// Wire protocol for the live serving tier.
//
// Length-prefixed binary frames over TCP:
//
//   [u32 payload_length, big endian] [payload_length bytes]
//
// The payload starts with a one-byte message type and a u32 request id,
// followed by type-specific big-endian fields. Every hop matches a reply to
// its request by id alone (a reply carries its request's id), so a peer may
// answer in any order; each connection with requests in flight mints ids
// from its own counter (inflight.h), and servers echo a client's id
// verbatim. One-way frames (kHotKeyReport, kHotKeySubscribe) carry id 0.
// The protocol is deliberately tiny — GET by key id with VALUE / MISS /
// REDIRECT replies, a metrics introspection pair, and the mutable-data
// family (PUT / DELETE / quorum version reads, the replica apply + ack pair
// that carries quorum replication, rebalance handoff streams, and the JOIN
// / LEAVE membership announcements) — because the serving tier exists to
// measure the paper's load-balancing claims on a real request path, not to
// be a general RPC system. Decoding is strict:
// unknown types, truncated fields and trailing bytes are all rejected, and
// FrameReader refuses frames whose declared length exceeds the cap (a
// garbage or hostile peer cannot make a server buffer unbounded data).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "detect/hot_key.h"
#include "obs/metrics.h"

namespace scp::net {

/// Hard cap on a frame's payload size; a declared length above this marks
/// the stream corrupted and the connection is dropped.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;
inline constexpr std::size_t kLengthPrefixBytes = 4;

enum class MsgType : std::uint8_t {
  kGet = 1,        ///< request: fetch `key`
  kValue = 2,      ///< reply: `key` found, value attached
  kMiss = 3,       ///< reply: `key` absent on the serving node
  kRedirect = 4,   ///< reply: `key` not owned here; try node `node`
  // 5 and 6 are unassigned; decode rejects them.
  kPing = 7,       ///< request: liveness probe (upstream.h)
  kPong = 8,       ///< reply to kPing
  kError = 9,      ///< reply: request failed, human-readable reason attached
  kMetricsRequest = 10,  ///< request: full metrics snapshot
  kMetricsReply = 11,    ///< reply: obs::MetricsSnapshot (histograms included)
  // --- mutable data (quorum-replicated write path) ----------------------
  kPut = 12,        ///< request: write `key` := payload (coordinator assigns
                    ///< the version; a client-supplied one is ignored)
  kDelete = 13,     ///< request: tombstone `key`
  kWriteReply = 14, ///< reply: write committed at `version` (also acks
                    ///< kJoin/kLeave, with `version` = ring epoch)
  kQuorumGet = 15,  ///< request: R-quorum versioned read via this coordinator
  kVerRead = 16,    ///< internal: local version probe of `key` (no fan-out)
  kVerValue = 17,   ///< reply: version + flags (+ value when kFlagFound)
  kReplicate = 18,  ///< internal: versioned LWW apply (replication,
                    ///< read-repair, rebalance handoff)
  kRepAck = 19,     ///< reply: replica durably holds `key` at >= `version`
                    ///< (kFlagApplied set iff this apply took effect)
  kJoin = 20,       ///< admin: node `node` joins at endpoint payload
                    ///< ("host:port"); triggers ring rebalance
  kLeave = 21,      ///< admin: node `node` leaves the ring
  // --- hot-key detection reports ----------------------------------------
  kHotKeyReport = 22,    ///< one-way: node `hot.node`'s windowed top-k
                         ///< observation (a backend pushes it to subscribed
                         ///< front ends; never answered)
  kHotKeySubscribe = 23, ///< one-way: push future kHotKeyReports down this
                         ///< connection (front ends send it after connect;
                         ///< never answered)
  // --- batched forwarding ------------------------------------------------
  kBatchGet = 24,   ///< request: fetch every key in `batch_keys` in one
                    ///< frame; with id b, key i owns id b+i (a front end
                    ///< answers each key with its own frame)
  kBatchReply = 25, ///< reply: one BatchItem per requested key, in request
                    ///< order (each item is a kValue/kMiss/kRedirect/kError
                    ///< verdict for its key), carrying the batch's id
};

// Bits of Message::flags (kVerValue / kReplicate / kRepAck).
inline constexpr std::uint8_t kFlagFound = 1;      ///< entry exists (kVerValue)
inline constexpr std::uint8_t kFlagTombstone = 2;  ///< entry is a delete marker
inline constexpr std::uint8_t kFlagApplied = 1;    ///< apply took effect (kRepAck)

/// Sanity cap on the entries in one kBatchGet/kBatchReply; a count above
/// this is rejected before any entry is read (the frame cap bounds total
/// bytes, this bounds entry-count amplification on tiny entries).
inline constexpr std::uint32_t kMaxBatchEntries = 4096;

/// One per-key verdict inside a kBatchReply: the same shapes an individual
/// reply frame can take. Item i answers request id b+i; its key must match.
struct BatchItem {
  MsgType type = MsgType::kMiss;  ///< kValue | kMiss | kRedirect | kError
  std::uint64_t key = 0;
  std::uint32_t node = 0;   ///< kRedirect: suggested NodeId
  std::string payload;      ///< kValue: value bytes; kError: reason

  bool operator==(const BatchItem&) const = default;
};

/// Counter snapshot returned by every server's stats(); kMetricsReply
/// carries the same counters. Each role fills the fields that apply to it.
struct ServerStats {
  std::uint64_t requests = 0;   ///< GETs received
  std::uint64_t hits = 0;       ///< served locally (storage / cache)
  std::uint64_t misses = 0;     ///< absent key (backend) or cache miss (FE)
  std::uint64_t redirects = 0;  ///< REDIRECTs sent (BE) or received (FE)
  std::uint64_t forwarded = 0;  ///< FE only: requests answered via a backend
  std::uint64_t retries = 0;    ///< FE only: wire sends beyond the first
  std::uint64_t failures = 0;   ///< FE only: requests answered with kError
  std::uint64_t attempts = 0;   ///< FE only: total wire sends to backends
  // --- write path -------------------------------------------------------
  std::uint64_t puts = 0;          ///< kPut requests received
  std::uint64_t deletes = 0;       ///< kDelete requests received
  std::uint64_t replications = 0;  ///< BE only: kReplicate applies received
  std::uint64_t invalidations = 0; ///< FE only: cache entries dropped by writes
  // --- single-flight coalescing ------------------------------------------
  std::uint64_t coalesced = 0;  ///< FE only: misses parked on an already
                                ///< in-flight forward for the same key

  bool operator==(const ServerStats&) const = default;
};

/// Decoded protocol message. Which fields are meaningful depends on `type`;
/// encode() ignores the rest and decode_payload() zero-fills them.
struct Message {
  MsgType type = MsgType::kPing;
  std::uint32_t id = 0;     ///< every type: request id (a reply carries
                            ///< its request's id; one-way frames carry 0)
  std::uint64_t key = 0;    ///< kGet, kValue, kMiss, kRedirect, kError,
                            ///< every write/replication type
  std::uint32_t node = 0;   ///< kRedirect: suggested NodeId; kJoin/kLeave:
                            ///< the joining/leaving node
  std::uint64_t version = 0;  ///< kWriteReply, kVerValue, kReplicate, kRepAck
  std::uint8_t flags = 0;     ///< kVerValue/kReplicate/kRepAck (kFlag* bits)
  std::string payload;      ///< kValue/kVerValue/kReplicate/kPut: value
                            ///< bytes; kError: reason; kJoin: "host:port"
  obs::MetricsSnapshot metrics;  ///< kMetricsReply
  detect::HotKeyReport hot;      ///< kHotKeyReport
  std::vector<std::uint64_t> batch_keys;  ///< kBatchGet: requested keys
  std::vector<BatchItem> batch;           ///< kBatchReply: per-key verdicts

  bool operator==(const Message&) const = default;
};

/// Serializes a message as one complete frame (length prefix included).
std::vector<std::uint8_t> encode(const Message& message);

/// Serializes into `frame` (cleared first), reusing its capacity — the
/// hot-path form: a server encoding into a per-connection scratch buffer
/// pays zero heap allocations per frame once the buffer has grown to the
/// working set's frame size. Byte-identical to encode().
void encode_into(const Message& message, std::vector<std::uint8_t>& frame);

/// Parses one frame payload (the bytes after the length prefix). Strict:
/// returns nullopt on an unknown type, a truncated field, an embedded length
/// that overruns the payload, or trailing bytes.
std::optional<Message> decode_payload(std::span<const std::uint8_t> payload);

/// Incremental frame extraction from a TCP byte stream. Feed arbitrary
/// chunks with append(); next_payload() yields complete payloads in order.
/// A declared payload length above the cap poisons the reader (corrupted())
/// — the owner should drop the connection.
class FrameReader {
 public:
  explicit FrameReader(std::uint32_t max_payload = kMaxFrameBytes)
      : max_payload_(max_payload) {}

  void append(std::span<const std::uint8_t> data);

  /// Next complete frame payload, or nullopt when none is buffered (or the
  /// stream is corrupted).
  std::optional<std::vector<std::uint8_t>> next_payload();

  /// Zero-copy variant: a view into the internal buffer, valid only until
  /// the next append()/next_frame()/next_payload() call. The reactor's read
  /// path decodes straight from this view, so a frame costs no allocation
  /// beyond what decode itself needs.
  std::optional<std::span<const std::uint8_t>> next_frame();

  bool corrupted() const noexcept { return corrupted_; }
  std::size_t buffered_bytes() const noexcept {
    return buffer_.size() - offset_;
  }

  /// Buffer recycling across connections: a reactor hands a retiring
  /// reader's storage to the next accepted connection so steady-state accept
  /// churn stops allocating read buffers. adopt_storage() keeps only the
  /// capacity (contents are discarded; the reader must be freshly
  /// constructed or fully drained).
  void adopt_storage(std::vector<std::uint8_t>&& storage) {
    buffer_ = std::move(storage);
    buffer_.clear();
    offset_ = 0;
  }
  std::vector<std::uint8_t> release_storage() {
    offset_ = 0;
    return std::move(buffer_);
  }

 private:
  /// Parses the length prefix at offset_. Returns false when no complete
  /// frame is buffered or the stream is corrupted.
  bool peek_frame(std::uint32_t& length);

  std::vector<std::uint8_t> buffer_;
  std::size_t offset_ = 0;
  std::uint32_t max_payload_;
  bool corrupted_ = false;
};

/// Deterministic value for a key: the decimal key id padded with filler to
/// `value_bytes`. Backends preload it and the perfect front-end cache
/// fills at start with it, so every tier agrees on a key's bytes without any
/// shared state until a write replaces them.
std::string make_value(std::uint64_t key, std::uint32_t value_bytes);

}  // namespace scp::net
