// Reactor: the serving tier's event-loop interface. FrameLoop (epoll,
// frame_loop.h) is its implementation; the base class keeps the I/O
// model's seam so a test fake can stand in for it.
//
// The base class owns everything that is not I/O specific: the timer queue
// (run_after), the self-pipe wakeup, the cross-thread post() queue,
// pre-start connect queueing, the per-loop buffer pool, thread lifecycle
// (start/request_stop/join) and the counters. Derived classes implement the
// I/O: listen/send/close_connection, the loop body (run), fd adoption and
// outbound connects.
//
// Threading contract: callbacks, send(), close_connection() and
// run_after() execute on the loop thread (callbacks are invoked there;
// calling these from inside a callback is the normal pattern).
// listen()/connect()/run_after() may also be called before start(). post()
// and stop() are safe from any thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace scp::net {

using ConnId = std::uint64_t;
inline constexpr ConnId kInvalidConn = 0;

/// Loop-wide counters, readable from any thread.
struct ReactorCounters {
  std::atomic<std::uint64_t> accepted{0};         ///< inbound connections
  std::atomic<std::uint64_t> frames_in{0};        ///< decoded messages
  std::atomic<std::uint64_t> frames_out{0};       ///< messages queued out
  std::atomic<std::uint64_t> protocol_errors{0};  ///< bad frames/streams
  /// Data-plane syscalls issued by the loop thread (waits, recv/sendmsg,
  /// accept, epoll_ctl, wake-pipe drains). The numerator of the
  /// syscalls/request measurement.
  std::atomic<std::uint64_t> syscalls{0};
  /// Blocking waits returned (loop iterations). frames/wakeup =
  /// (frames_in + frames_out) / wakeups.
  std::atomic<std::uint64_t> wakeups{0};

  /// Writes all six counters into `snap` as "loop.<name>" (the servers'
  /// scrape path; a reactor has no registry of its own).
  void export_to(obs::MetricsSnapshot& snap) const;
};

/// Delay before re-dialing an outbound connection after `failures`
/// consecutive failed attempts: 50 ms, doubling per failure, capped at 1 s.
double reconnect_delay_s(std::uint32_t failures) noexcept;

class Reactor {
 public:
  struct Callbacks {
    /// A complete, decoded message arrived on `conn`.
    std::function<void(ConnId, Message&&)> on_message;
    /// `conn` went away (peer close, error, protocol violation, or a local
    /// close_connection()). Not fired for never-established outbound
    /// connects or during final teardown.
    std::function<void(ConnId)> on_close;
    /// Outcome of a connect(): established (true) or failed (false; the
    /// conn id is dead afterwards). Never fired before the connect() call
    /// that created the conn id has returned, even when the kernel resolves
    /// a loopback connect synchronously — owners can record the returned id
    /// before the outcome arrives.
    std::function<void(ConnId, bool)> on_connect;
  };

  Reactor();
  virtual ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Must be set before start().
  void set_callbacks(Callbacks callbacks) { callbacks_ = std::move(callbacks); }

  /// Optional instrumentation; must be set before start() and outlive the
  /// loop. Publishes "loop.tick_us" (busy time per reactor iteration) and
  /// "loop.dispatch_depth" (posted functions + I/O events per iteration).
  void set_metrics(obs::MetricsRegistry* registry);

  /// Binds and listens (port 0 = kernel-assigned; see port()). Call before
  /// start(). Returns false on bind/listen failure. With `reuse_port` the
  /// listener is SO_REUSEPORT-bound so sibling loops can share the port.
  virtual bool listen(const std::string& address, std::uint16_t port,
                      int backlog = 128, bool reuse_port = false) = 0;
  std::uint16_t port() const noexcept { return port_; }

  /// When set (before start()), accepted fds are handed to the handler
  /// instead of being adopted by this loop — ReactorPool's fallback acceptor
  /// uses it to spread inbound connections across shards. The handler runs
  /// on this loop's thread and takes ownership of the fd.
  void set_accept_handler(std::function<void(int)> handler) {
    accept_handler_ = std::move(handler);
  }

  /// Adopts an already-connected inbound fd as a new connection (counted as
  /// accepted). Thread-safe: reroutes through post() off the loop thread.
  /// The loop owns the fd from this call on; a draining loop closes it.
  void adopt(int fd);

  /// Spawns the loop thread. Returns false if the loop's resources could
  /// not be acquired or the loop is already running.
  bool start();

  /// Graceful stop from any thread: stops accepting and dispatching, keeps
  /// flushing queued writes for up to `drain_s`, then closes everything and
  /// joins. Idempotent. Equivalent to request_stop() + join(); ReactorPool
  /// uses the split form so all shards stop accepting before any is joined
  /// (concurrent drain instead of serial).
  void stop(double drain_s = 1.0);
  void request_stop(double drain_s = 1.0);
  void join();

  bool running() const noexcept { return running_.load(); }

  /// Starts an outbound connection; result arrives via on_connect. Usable
  /// before start() (queued) or on the loop thread; other threads are
  /// transparently rerouted through post().
  ConnId connect(const std::string& address, std::uint16_t port);

  /// Queues a message on `conn` (loop thread). False if the conn is gone.
  virtual bool send(ConnId conn, const Message& message) = 0;

  /// Closes `conn` and fires on_close (loop thread).
  virtual void close_connection(ConnId conn) = 0;

  /// Runs `fn` on the loop thread after `delay_s` seconds. Timers die with
  /// the loop (not fired on stop).
  void run_after(double delay_s, std::function<void()> fn);

  /// Enqueues `fn` for execution on the loop thread. Thread-safe.
  void post(std::function<void()> fn);

  /// Optional hook run on the loop thread once per wakeup, immediately
  /// before the loop's single flush point. Work that accumulates frames
  /// across one dispatch round (Upstream's per-link GET queues) flushes here
  /// so everything it emits rides the same gathered write as the round's
  /// other frames. Set before start() or on the loop thread.
  void set_before_flush(std::function<void()> hook) {
    before_flush_ = std::move(hook);
  }

  const ReactorCounters& counters() const noexcept { return counters_; }

 protected:
  using Clock = std::chrono::steady_clock;

  struct Timer {
    Clock::time_point deadline;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Timer& other) const noexcept {
      return deadline != other.deadline ? deadline > other.deadline
                                        : seq > other.seq;
    }
  };

  /// True when construction acquired every I/O resource (the epoll fd).
  /// Checked by start(); the wake pipe is checked by the base.
  virtual bool valid() const noexcept = 0;

  /// The loop body, executed on the spawned thread. The base wrapper sets
  /// loop_thread_id_ before and clears running_ after.
  virtual void run() = 0;

  /// Takes ownership of an inbound fd on the loop thread.
  virtual void adopt_on_loop(int fd) = 0;

  /// Starts an outbound connect on the loop thread (or pre-start).
  virtual void do_connect(ConnId id, const std::string& address,
                          std::uint16_t port) = 0;

  bool on_loop_thread() const noexcept {
    return std::this_thread::get_id() ==
           loop_thread_id_.load(std::memory_order_acquire);
  }

  /// Interrupts the loop's blocking wait. Safe from any thread (write(2) on
  /// the self-pipe; the derived loop watches the read end).
  void wakeup() noexcept;
  int wake_fd() const noexcept { return wake_read_.fd(); }
  bool wake_valid() const noexcept { return wake_read_.valid(); }

  /// Runs queued pre-start connects and posted functions (loop thread).
  /// Returns the number of posted functions, for dispatch-depth accounting.
  std::size_t drain_posted();

  void run_due_timers();
  /// Milliseconds until the next timer (0 when overdue), capped at 100.
  int next_timeout_ms() const;

  /// Invokes the before-flush hook if one is set (loop thread, once per
  /// wakeup, right before flush_pending_conns()).
  void run_before_flush() {
    if (before_flush_) before_flush_();
  }

  /// Per-loop free list of byte buffers shared by encode scratch and reader
  /// storage; capacity-capped so a one-off huge value cannot pin memory.
  std::vector<std::uint8_t> acquire_buffer();
  void release_buffer(std::vector<std::uint8_t>&& buffer);

  Callbacks callbacks_;
  std::function<void(int)> accept_handler_;
  std::function<void()> before_flush_;
  Socket listener_;
  std::uint16_t port_ = 0;

  std::vector<std::vector<std::uint8_t>> buffer_pool_;

  std::atomic<ConnId> next_conn_id_{1};

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<double> drain_s_{1.0};
  bool draining_ = false;  // loop thread only
  bool started_ = false;

  ReactorCounters counters_;
  obs::Timer* tick_us_ = nullptr;  // null = instrumentation off
  obs::Timer* dispatch_depth_ = nullptr;

 private:
  Socket wake_read_;
  Socket wake_write_;

  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::uint64_t timer_seq_ = 0;

  std::mutex post_mutex_;
  std::vector<std::function<void()>> posted_;
  std::vector<std::pair<ConnId, std::pair<std::string, std::uint16_t>>>
      pending_connects_;  // queued before start()

  std::thread thread_;
  // Written once by the loop thread at startup, read by any thread that
  // calls adopt()/send() — another shard's accept handler may race the
  // owning thread's first instruction, hence atomic.
  std::atomic<std::thread::id> loop_thread_id_{};
};

}  // namespace scp::net
