// Requests in flight on one connection, found by the id each was sent with.
//
// Every frame carries a u32 request id and a reply echoes it (wire.h), so
// the owner of a connection mints ids from that connection's counter and
// matches each reply by id alone, in whatever order the peer answers. Ids
// are minted consecutively, so the table is a power-of-two ring of slots
// indexed by id minus the oldest id still in flight: every operation is
// O(1) and allocates nothing once the ring has grown to the connection's
// in-flight depth. The first slot is the oldest request, whose deadline
// bounds the connection. Id arithmetic is unsigned, so ids wrap freely.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/reactor.h"

namespace scp::net {

/// Where a server sends a request's eventual reply: the client connection
/// and the id the client sent, which the reply echoes.
struct ReplyTo {
  ConnId conn = kInvalidConn;
  std::uint32_t id = 0;
};

/// Sends `reply` to `to`, stamped with the id its request carried.
inline bool send_reply(Reactor& loop, ReplyTo to, Message& reply) {
  reply.id = to.id;
  return loop.send(to.conn, reply);
}

template <typename T>
class InflightTable {
 public:
  /// `first_id` is the id the first add() mints.
  explicit InflightTable(std::uint32_t first_id = 0) : base_(first_id) {}

  /// The id the next add() mints.
  std::uint32_t next_id() const noexcept { return base_ + span_; }

  /// Records a request sent with id next_id() and returns that id.
  std::uint32_t add(T entry) {
    if (span_ == slots_.size()) grow();
    slots_[slot(span_)] = std::move(entry);
    return base_ + span_++;
  }

  /// The request sent with `id`, or nullptr when none is in flight.
  T* find(std::uint32_t id) {
    const std::uint32_t offset = id - base_;
    if (offset >= span_ || !slots_[slot(offset)].has_value()) return nullptr;
    return &*slots_[slot(offset)];
  }

  /// Removes and returns the request sent with `id` (nullopt when unknown).
  std::optional<T> take(std::uint32_t id) {
    T* entry = find(id);
    if (entry == nullptr) return std::nullopt;
    std::optional<T> taken(std::move(*entry));
    slots_[slot(id - base_)].reset();
    // Slide the window past the answered requests at its old end.
    while (span_ > 0 && !slots_[head_].has_value()) {
      head_ = slot(1);
      ++base_;
      --span_;
    }
    return taken;
  }

  /// The oldest request still in flight, or nullptr when none is.
  const T* oldest() const { return span_ == 0 ? nullptr : &*slots_[head_]; }

  /// Removes every request, oldest first (the connection is gone). Ids keep
  /// counting from where they were.
  std::vector<T> drain() {
    std::vector<T> out;
    for (; span_ > 0; --span_, ++base_, head_ = slot(1)) {
      if (slots_[head_].has_value()) out.push_back(std::move(*slots_[head_]));
      slots_[head_].reset();
    }
    return out;
  }

 private:
  std::size_t slot(std::uint32_t offset) const noexcept {
    return (head_ + offset) & (slots_.size() - 1);
  }

  /// Doubles the ring, re-laying the window from slot 0.
  void grow() {
    std::vector<std::optional<T>> larger(std::max<std::size_t>(8, 2 * span_));
    for (std::uint32_t offset = 0; offset < span_; ++offset) {
      larger[offset] = std::move(slots_[slot(offset)]);
    }
    slots_ = std::move(larger);
    head_ = 0;
  }

  std::vector<std::optional<T>> slots_;  ///< ring; size is a power of two
  std::size_t head_ = 0;    ///< slot of id base_
  std::uint32_t base_;      ///< oldest id in flight (or next_id() if none)
  std::uint32_t span_ = 0;  ///< ids base_ … base_+span_-1; slot 0 is live
};

}  // namespace scp::net
