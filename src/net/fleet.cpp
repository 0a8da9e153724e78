#include "net/fleet.h"

#include "common/hash.h"
#include "common/rng.h"

namespace scp::net {
namespace {

// Distinct derive_seed() streams for the two fleet hashes. The backend
// partitioners key their SipHash from the partition seed directly (streams
// 0x5c9 / ring point streams), so deriving from the *fleet* seed with
// private stream ids keeps the fleet mapping statistically independent of
// the replica-group mapping even when an operator reuses one seed value
// everywhere.
constexpr std::uint64_t kOwnerStream = 0xf1ee70;
constexpr std::uint64_t kAlternateStream = 0xf1ee71;

}  // namespace

std::uint32_t fleet_owner(std::uint64_t key, std::uint64_t fleet_seed,
                          std::uint32_t fleet_size) noexcept {
  if (fleet_size <= 1) return 0;
  const SipKey sip = sip_key_from_seed(derive_seed(fleet_seed, kOwnerStream));
  return static_cast<std::uint32_t>(siphash24(sip, key) % fleet_size);
}

FleetCandidates fleet_candidates(std::uint64_t key, std::uint64_t fleet_seed,
                                 std::uint32_t fleet_size) noexcept {
  FleetCandidates candidates;
  candidates.owner = fleet_owner(key, fleet_seed, fleet_size);
  if (fleet_size <= 1) {
    candidates.alternate = candidates.owner;
    return candidates;
  }
  // Independent second stream over the other N-1 members: the alternate is
  // uniform over the fleet minus the owner, so the pair is always distinct.
  const SipKey sip =
      sip_key_from_seed(derive_seed(fleet_seed, kAlternateStream));
  const std::uint32_t step =
      static_cast<std::uint32_t>(siphash24(sip, key) % (fleet_size - 1));
  candidates.alternate = (candidates.owner + 1 + step) % fleet_size;
  return candidates;
}

}  // namespace scp::net
