// Quorum accounting for coordinator-driven sloppy-quorum operations.
//
// Pure counting state machines — no I/O, no threads. The backend server
// keeps one per in-flight client operation on the coordinating shard's loop
// thread and feeds acks/losses in as replica connections answer or die:
//
//   WriteQuorum — commits once `need` (W) replicas durably applied the
//                 write; fails as soon as the remaining outstanding replies
//                 cannot reach W (fail-fast, no pointless timeout wait).
//   ReadQuorum  — resolves once `need` (R) versioned responses arrived and
//                 picks the last-writer-wins winner; stale_nodes() lists the
//                 responders that need read-repair.
//
// With R+W>N every read quorum intersects every committed write quorum, so
// the LWW winner over any R responses is at least as new as the last
// committed write — the acceptance property the loopback tests prove over
// real sockets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/types.h"

namespace scp::replication {

enum class QuorumState : std::uint8_t { kPending, kDone, kFailed };

class WriteQuorum {
 public:
  /// `need` acks required out of at most `outstanding` possible (both
  /// include the coordinator's own local apply, which the owner feeds in as
  /// the first on_ack()).
  WriteQuorum(std::uint32_t need, std::uint32_t outstanding)
      : need_(need), outstanding_(outstanding) {
    refresh();
  }

  QuorumState on_ack() {
    if (state_ == QuorumState::kPending) {
      ++acks_;
      --outstanding_;
      refresh();
    }
    return state_;
  }

  /// A replica definitively will not ack (connection down, kError).
  QuorumState on_lost() {
    if (state_ == QuorumState::kPending && outstanding_ > 0) {
      --outstanding_;
      refresh();
    }
    return state_;
  }

  QuorumState state() const noexcept { return state_; }
  std::uint32_t acks() const noexcept { return acks_; }

 private:
  void refresh() {
    if (acks_ >= need_) {
      state_ = QuorumState::kDone;
    } else if (acks_ + outstanding_ < need_) {
      state_ = QuorumState::kFailed;
    }
  }

  std::uint32_t need_;
  std::uint32_t acks_ = 0;
  std::uint32_t outstanding_;
  QuorumState state_ = QuorumState::kPending;
};

/// One replica's answer to a version read. A missing entry reports
/// found=false with version 0, which loses LWW to any real write.
struct ReadResponse {
  NodeId node = 0;
  bool found = false;
  bool tombstone = false;
  std::uint64_t version = 0;
  std::string value{};
};

class ReadQuorum {
 public:
  ReadQuorum(std::uint32_t need, std::uint32_t outstanding)
      : need_(need), outstanding_(outstanding) {
    refresh();
  }

  QuorumState on_response(ReadResponse response) {
    if (state_ == QuorumState::kPending) {
      responses_.push_back(std::move(response));
      --outstanding_;
      refresh();
    }
    return state_;
  }

  QuorumState on_lost() {
    if (state_ == QuorumState::kPending && outstanding_ > 0) {
      --outstanding_;
      refresh();
    }
    return state_;
  }

  QuorumState state() const noexcept { return state_; }

  /// LWW winner among the collected responses: highest version, tombstones
  /// and live values alike. Null when no response carried an entry.
  const ReadResponse* newest() const;

  /// Responders strictly older than the winner (read-repair targets);
  /// includes not-found responders when a winner exists.
  std::vector<NodeId> stale_nodes() const;

  const std::vector<ReadResponse>& responses() const noexcept {
    return responses_;
  }

 private:
  void refresh() {
    if (responses_.size() >= need_) {
      state_ = QuorumState::kDone;
    } else if (responses_.size() + outstanding_ < need_) {
      state_ = QuorumState::kFailed;
    }
  }

  std::uint32_t need_;
  std::uint32_t outstanding_;
  std::vector<ReadResponse> responses_;
  QuorumState state_ = QuorumState::kPending;
};

}  // namespace scp::replication
