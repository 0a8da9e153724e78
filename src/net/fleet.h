// Distributed front-end fleet: hashing and member choice (DistCache-style).
//
// An N-process front-end tier splits the paper's cache budget c across its
// members with an *independent* hash — independent of the backend
// consistent-hash/replica partitioner in src/cluster (different keyed
// SipHash streams) and of the intra-process reactor-shard split (unkeyed
// mix64). Each key is cached on exactly one member, so the fleet's
// footprint stays c:
//
//   * fleet_owner()      — which fleet member holds a key's cache slot (the
//                          only member allowed to cache it),
//   * fleet_candidates() — the owner plus a distinct alternate from a
//                          second hash stream, and
//   * fleet_route()      — the router's choice between them: the owner
//                          while its link is up, else the alternate.
//
// DistCache balances a key between two members because both hold a copy.
// Here only the owner does: a cached key sent to the alternate comes back
// as kRedirect to the owner, one more round trip for nothing. So the router
// sends every key to its owner, and the alternate carries a key only while
// its owner is down.
//
// The same functions run in the edge router (scp_router / RouterServer),
// the fleet members themselves (a non-owner answers a cached key with
// kRedirect to the owner) and the tests, so every component agrees on the
// key -> member mapping from the shared fleet seed alone — no handshake.
#pragma once

#include <cstdint>

namespace scp::net {

inline constexpr std::uint32_t kNoFleetMember = UINT32_MAX;

/// The fleet member owning `key`'s cache slot: keyed SipHash of the key
/// under a stream derived from `fleet_seed`, reduced mod `fleet_size`.
/// Deterministic across processes sharing the seed. fleet_size == 0 is
/// treated as 1 (a degenerate single-member fleet owns everything).
std::uint32_t fleet_owner(std::uint64_t key, std::uint64_t fleet_seed,
                          std::uint32_t fleet_size) noexcept;

/// A key's two candidate front ends.
struct FleetCandidates {
  std::uint32_t owner = 0;      ///< cache owner (fleet_owner())
  std::uint32_t alternate = 0;  ///< distinct second choice (== owner iff N=1)
};

/// owner = fleet_owner(); alternate drawn from an independent hash stream
/// over the remaining N-1 members, so the two candidates are distinct
/// whenever the fleet has more than one member.
FleetCandidates fleet_candidates(std::uint64_t key, std::uint64_t fleet_seed,
                                 std::uint32_t fleet_size) noexcept;

/// Where the edge router sends `key`: its owner while `up(owner)`, else its
/// alternate while `up(alternate)`, else kNoFleetMember. Only the owner may
/// cache the key, so routing to it costs no redirect hop; the alternate
/// carries the key only while the owner is down. Reads nothing but the
/// candidates and `up`, so every router replica routes alike.
template <typename Up>
std::uint32_t fleet_route(const FleetCandidates& candidates, Up&& up) {
  if (up(candidates.owner)) return candidates.owner;
  if (up(candidates.alternate)) return candidates.alternate;
  return kNoFleetMember;
}

}  // namespace scp::net
