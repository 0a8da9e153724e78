// Readiness notification for FrameLoop: a level-triggered epoll set. A
// registered fd is reported readable/writable on every wait() while the
// condition holds. The owning Reactor's self-pipe read end is registered
// via set_wake_fd(); wait() drains it internally and reports the
// interruption as a return with no events.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "net/socket.h"

namespace scp::net {

struct IoEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  /// Error or hangup: the owner should tear the connection down after
  /// draining whatever read() still returns.
  bool broken = false;
};

class EventLoop {
 public:
  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// True when construction acquired every resource (epoll fd).
  bool valid() const noexcept;

  /// Registers the owner's wakeup pipe read end (not owned). wait() drains
  /// it and suppresses it from the event list.
  void set_wake_fd(int fd);

  /// Optional syscall accounting: every epoll_ctl/epoll_wait and wake drain
  /// increments the counter (must outlive the loop).
  void set_syscall_counter(std::atomic<std::uint64_t>* counter) {
    syscalls_ = counter;
  }

  bool add(int fd, bool want_read, bool want_write);
  bool modify(int fd, bool want_read, bool want_write);
  void remove(int fd);

  /// Blocks up to timeout_ms (-1 = indefinitely) and appends ready events to
  /// `out` (cleared first). Returns the number of events, 0 on timeout, -1
  /// on error. Wakeups drain the pipe and count as a return with 0 events.
  int wait(std::vector<IoEvent>& out, int timeout_ms);

 private:
  void count_syscall() noexcept {
    if (syscalls_ != nullptr) {
      syscalls_->fetch_add(1, std::memory_order_relaxed);
    }
  }

  int wake_fd_ = -1;
  std::atomic<std::uint64_t>* syscalls_ = nullptr;
  Socket epoll_;
};

}  // namespace scp::net
