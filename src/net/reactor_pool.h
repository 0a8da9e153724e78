// Sharded multi-reactor: N FrameLoops sharing one listening port.
//
// The preferred mechanism is SO_REUSEPORT — every shard owns its own
// listening socket bound to the same address/port and the kernel spreads
// incoming connections across them, so the accept path itself scales with
// shards and no fd ever crosses a thread. Port 0 works: shard 0 binds first
// (kernel assigns), the remaining shards bind the resolved port.
//
// Where SO_REUSEPORT is unavailable (or force_fallback_accept is set, which
// tests use to cover the path), the pool degrades to a single acceptor:
// only shard 0 listens, and its accept handler round-robins accepted fds
// into the shards via FrameLoop::adopt() — same observable behavior, one
// extra cross-thread hop per accepted connection.
//
// The pool owns loop lifecycle only. Per-shard callbacks, metrics and
// application state belong to the owner (FrontendServer/BackendServer keep
// a Shard struct per loop); connections never migrate between shards, so
// shard state needs no locks. stop() asks every shard to stop before
// joining any of them — all shards quit accepting immediately and drain
// their write queues concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/reactor.h"
#include "obs/metrics.h"

namespace scp::net {

/// Merges per-shard registry snapshots into one aggregate view. With a
/// single shard the result is exactly that shard's snapshot (byte-identical
/// exposition to the unsharded server). With more, the canonical names hold
/// the cross-shard sums/merges and every shard's series is re-emitted as
/// "<role>.shardK.<rest>": names already starting "<role>." get the shard
/// segment spliced in after the role, anything else (e.g. "loop.tick_us")
/// is prefixed whole.
obs::MetricsSnapshot merge_shard_snapshots(
    const std::string& role, const std::vector<obs::MetricsSnapshot>& shards);

class ReactorPool {
 public:
  struct Options {
    std::size_t shards = 1;
    /// Test hook: skip SO_REUSEPORT and exercise the single-acceptor
    /// round-robin fallback even where the kernel supports sharded listen.
    bool force_fallback_accept = false;
  };

  explicit ReactorPool(Options options);
  ReactorPool(const ReactorPool&) = delete;
  ReactorPool& operator=(const ReactorPool&) = delete;

  std::size_t shards() const noexcept { return loops_.size(); }
  Reactor& shard(std::size_t index) { return *loops_[index]; }
  const Reactor& shard(std::size_t index) const { return *loops_[index]; }

  /// Binds the shared listening port across all shards (see file comment).
  /// Call after per-shard callbacks are set, before start(). All-or-nothing:
  /// on failure no shard is left listening.
  bool listen(const std::string& address, std::uint16_t port,
              int backlog = 128);

  /// Resolved listening port (after listen() with port 0).
  std::uint16_t port() const noexcept { return port_; }

  /// True when the single-acceptor fallback is active instead of
  /// SO_REUSEPORT sharding.
  bool fallback_accept() const noexcept { return fallback_accept_; }

  /// Starts every shard loop; on any failure stops the ones already
  /// started and returns false.
  bool start();

  /// Graceful stop: every shard stops accepting at once, then all drain
  /// concurrently for up to `drain_s` and are joined. Idempotent.
  void stop(double drain_s = 1.0);

  bool running() const noexcept;

  /// Sum of the per-shard loop counters.
  struct Totals {
    std::uint64_t accepted = 0;
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t protocol_errors = 0;
    std::uint64_t syscalls = 0;
    std::uint64_t wakeups = 0;
    /// Always 0: FrameLoop has no receive-buffer ring to starve. Kept for
    /// readers of the totals that still sum it.
    std::uint64_t buf_starved = 0;
  };
  Totals totals() const;

 private:
  Options options_;
  // unique_ptr: reactors are non-movable and shard() refs must be stable.
  std::vector<std::unique_ptr<Reactor>> loops_;
  std::uint16_t port_ = 0;
  bool fallback_accept_ = false;
  std::atomic<std::uint64_t> next_accept_{0};
};

}  // namespace scp::net
