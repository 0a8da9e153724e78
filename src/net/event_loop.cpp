#include "net/event_loop.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/log.h"

namespace scp::net {

EventLoop::EventLoop() {
  epoll_.reset(::epoll_create1(0));
  if (!epoll_.valid()) {
    SCP_LOG_ERROR << "net: epoll_create1 failed: " << std::strerror(errno);
  }
}

EventLoop::~EventLoop() = default;

bool EventLoop::valid() const noexcept { return epoll_.valid(); }

void EventLoop::set_wake_fd(int fd) {
  wake_fd_ = fd;
  if (fd >= 0) add(fd, /*want_read=*/true, /*want_write=*/false);
}

bool EventLoop::add(int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  count_syscall();
  return ::epoll_ctl(epoll_.fd(), EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool EventLoop::modify(int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  count_syscall();
  return ::epoll_ctl(epoll_.fd(), EPOLL_CTL_MOD, fd, &ev) == 0;
}

void EventLoop::remove(int fd) {
  count_syscall();
  ::epoll_ctl(epoll_.fd(), EPOLL_CTL_DEL, fd, nullptr);
}

int EventLoop::wait(std::vector<IoEvent>& out, int timeout_ms) {
  out.clear();
  epoll_event events[64];
  count_syscall();
  const int n = ::epoll_wait(epoll_.fd(), events, 64, timeout_ms);
  if (n < 0) {
    return errno == EINTR ? 0 : -1;
  }
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wake_fd_) {
      char buf[64];
      count_syscall();
      while (::read(fd, buf, sizeof(buf)) > 0) {
        count_syscall();
      }
      continue;
    }
    IoEvent event;
    event.fd = fd;
    event.readable = (events[i].events & EPOLLIN) != 0;
    event.writable = (events[i].events & EPOLLOUT) != 0;
    event.broken = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    out.push_back(event);
  }
  return static_cast<int>(out.size());
}

}  // namespace scp::net
