#include "net/frame_loop.h"

#include <limits.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/log.h"

namespace scp::net {
namespace {

/// Gather width of one flush: IOV_MAX is the syscall's hard ceiling; 256 is
/// plenty (a deeper backlog just takes another sendmsg on the same wakeup).
constexpr std::size_t kMaxIov = IOV_MAX < 256 ? IOV_MAX : 256;

}  // namespace

FrameLoop::FrameLoop() {
  events_.set_wake_fd(wake_fd());
  events_.set_syscall_counter(&counters_.syscalls);
}

FrameLoop::~FrameLoop() { stop(0.0); }

bool FrameLoop::listen(const std::string& address, std::uint16_t port,
                       int backlog, bool reuse_port) {
  listener_ = listen_tcp(address, port, backlog, &port_, reuse_port);
  if (!listener_.valid()) return false;
  events_.add(listener_.fd(), /*want_read=*/true, /*want_write=*/false);
  return true;
}

bool FrameLoop::send(ConnId conn_id, const Message& message) {
  Connection* conn = find(conn_id);
  if (conn == nullptr) return false;
  std::vector<std::uint8_t> frame = acquire_buffer();
  encode_into(message, frame);
  conn->out_bytes += frame.size();
  conn->outq.push_back(std::move(frame));
  counters_.frames_out.fetch_add(1, std::memory_order_relaxed);
  // No syscall here: the frame rides the end-of-wakeup gathered flush with
  // every other frame queued this iteration (one sendmsg per connection).
  schedule_flush(*conn);
  return true;
}

void FrameLoop::schedule_flush(Connection& conn) {
  if (conn.flush_pending) return;
  conn.flush_pending = true;
  flush_pending_.push_back(conn.id);
}

void FrameLoop::flush_pending_conns() {
  // flush_writes can destroy the conn (write error) and callbacks run from
  // there may queue more sends — iterate by index over a growable list.
  for (std::size_t i = 0; i < flush_pending_.size(); ++i) {
    const ConnId id = flush_pending_[i];
    Connection* conn = find(id);
    if (conn == nullptr) continue;
    conn->flush_pending = false;
    if (conn->connecting) continue;  // flushed once the connect resolves
    flush_writes(*conn);
    conn = find(id);
    if (conn != nullptr) update_interest(*conn);
  }
  flush_pending_.clear();
}

void FrameLoop::close_connection(ConnId conn_id) { destroy(conn_id, true); }

FrameLoop::Connection* FrameLoop::find(ConnId id) {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : &it->second;
}

void FrameLoop::run() {
  std::vector<IoEvent> ready;
  Clock::time_point drain_deadline{};
  // Busy time per iteration: from returning out of events_.wait to entering
  // it again (event dispatch plus the next round of posted work and timers).
  std::uint64_t tick_start_ns = 0;
  std::uint64_t tick_items = 0;

  while (true) {
    // Posted functions and queued pre-start connects.
    const std::size_t posted = drain_posted();

    if (!draining_) {
      run_due_timers();
    }

    if (stop_requested_.load() && !draining_) {
      draining_ = true;
      drain_deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(drain_s_.load()));
      if (listener_.valid()) {
        events_.remove(listener_.fd());
        listener_.reset();
      }
      // Abort half-open connects; keep established connections write-only
      // so queued replies still go out.
      std::vector<ConnId> connecting;
      for (auto& [id, conn] : conns_) {
        if (conn.connecting) connecting.push_back(id);
      }
      for (ConnId id : connecting) {
        destroy(id, false);
      }
      for (auto& [id, conn] : conns_) {
        update_interest(conn);
      }
    }

    // The wakeup's single flush point: every frame queued by posted work,
    // timers and the previous round of event dispatch goes out in one
    // gathered write per connection, right before the loop blocks again.
    // The before-flush hook runs first so batching servers can convert
    // their accumulated per-peer queues into frames that join this flush.
    run_before_flush();
    flush_pending_conns();

    if (draining_) {
      bool writes_pending = false;
      for (const auto& [id, conn] : conns_) {
        if (conn.out_bytes > 0) {
          writes_pending = true;
          break;
        }
      }
      if (!writes_pending || Clock::now() >= drain_deadline) break;
    }

    tick_items += posted;
    if (tick_us_ != nullptr && tick_start_ns != 0) {
      tick_us_->record((obs::now_ns() - tick_start_ns) / 1000);
      dispatch_depth_->record(tick_items);
    }
    const int timeout_ms = draining_ ? 10 : next_timeout_ms();
    const int n = events_.wait(ready, timeout_ms);
    counters_.wakeups.fetch_add(1, std::memory_order_relaxed);
    tick_start_ns = tick_us_ != nullptr ? obs::now_ns() : 0;
    tick_items = static_cast<std::uint64_t>(n > 0 ? n : 0);
    if (n < 0) {
      SCP_LOG_ERROR << "net: event loop wait failed: " << std::strerror(errno)
                    << "; shutting down";
      break;
    }
    for (const IoEvent& event : ready) {
      handle_event(event);
    }
  }

  // Final teardown: no callbacks.
  for (auto& [id, conn] : conns_) {
    events_.remove(conn.sock.fd());
  }
  conns_.clear();
  by_fd_.clear();
}

void FrameLoop::do_connect(ConnId id, const std::string& address,
                           std::uint16_t port) {
  if (draining_) {
    if (callbacks_.on_connect) callbacks_.on_connect(id, false);
    return;
  }
  bool in_progress = false;
  counters_.syscalls.fetch_add(1, std::memory_order_relaxed);
  Socket sock = connect_tcp_nonblocking(address, port, &in_progress);
  if (!sock.valid()) {
    // Loopback connects can fail synchronously (ECONNREFUSED from
    // ::connect). Deferring the callback upholds the on_connect contract:
    // the owner's connect() call has returned before the outcome arrives.
    run_after(0.0, [this, id] { notify_connect_deferred(id); });
    return;
  }
  const int fd = sock.fd();
  Connection conn;
  conn.id = id;
  conn.sock = std::move(sock);
  conn.reader.adopt_storage(acquire_buffer());
  conn.outbound = true;
  conn.connecting = in_progress;
  conn.want_read = !in_progress;
  conn.want_write = in_progress;
  events_.add(fd, conn.want_read, conn.want_write);
  by_fd_[fd] = id;
  conns_.emplace(id, std::move(conn));
  if (!in_progress) {
    // Synchronous loopback success: same deferral as the failure path.
    run_after(0.0, [this, id] { notify_connect_deferred(id); });
  }
}

void FrameLoop::notify_connect_deferred(ConnId id) {
  Connection* conn = find(id);
  if (conn == nullptr) {
    // Synchronous failure, or the conn died before the deferred outcome was
    // delivered — either way the owner sees one on_connect(false).
    if (callbacks_.on_connect) callbacks_.on_connect(id, false);
    return;
  }
  conn->connect_notified = true;
  if (callbacks_.on_connect) callbacks_.on_connect(id, true);
}

void FrameLoop::accept_ready() {
  while (listener_.valid()) {
    counters_.syscalls.fetch_add(1, std::memory_order_relaxed);
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        SCP_LOG_WARN << "net: accept failed: " << std::strerror(errno);
      }
      return;
    }
    if (accept_handler_) {
      accept_handler_(fd);  // handler owns the fd (typically adopt()s it
                            // into a sibling shard)
      continue;
    }
    adopt_on_loop(fd);
  }
}

void FrameLoop::adopt_on_loop(int fd) {
  if (draining_) {
    ::close(fd);
    return;
  }
  set_nonblocking(fd);
  set_nodelay(fd);
  const ConnId id = next_conn_id_.fetch_add(1);
  Connection conn;
  conn.id = id;
  conn.sock.reset(fd);
  conn.reader.adopt_storage(acquire_buffer());
  conn.want_read = true;
  events_.add(fd, conn.want_read, conn.want_write);
  by_fd_[fd] = id;
  conns_.emplace(id, std::move(conn));
  counters_.accepted.fetch_add(1, std::memory_order_relaxed);
}

void FrameLoop::handle_event(const IoEvent& event) {
  if (listener_.valid() && event.fd == listener_.fd()) {
    accept_ready();
    return;
  }
  auto fd_it = by_fd_.find(event.fd);
  if (fd_it == by_fd_.end()) return;  // destroyed earlier this batch
  const ConnId id = fd_it->second;

  Connection* conn = find(id);
  if (conn == nullptr) return;

  if (conn->connecting) {
    if (event.writable || event.broken) {
      int error = 0;
      socklen_t len = sizeof(error);
      counters_.syscalls.fetch_add(1, std::memory_order_relaxed);
      if (::getsockopt(conn->sock.fd(), SOL_SOCKET, SO_ERROR, &error, &len) !=
              0 ||
          error != 0 || event.broken) {
        if (callbacks_.on_connect) callbacks_.on_connect(id, false);
        destroy(id, false);
        return;
      }
      conn->connecting = false;
      conn->connect_notified = true;
      update_interest(*conn);
      if (callbacks_.on_connect) callbacks_.on_connect(id, true);
    }
    return;
  }

  if (event.readable) {
    handle_readable(id);
    conn = find(id);
    if (conn == nullptr) return;
  }
  if (event.writable) {
    flush_writes(*conn);
    conn = find(id);
    if (conn == nullptr) return;
    update_interest(*conn);
  }
  if (event.broken) {
    destroy(id, true);
  }
}

void FrameLoop::handle_readable(ConnId id) {
  Connection* conn = find(id);
  if (conn == nullptr) return;

  std::uint8_t buffer[16384];
  while (true) {
    counters_.syscalls.fetch_add(1, std::memory_order_relaxed);
    const ssize_t n = ::recv(conn->sock.fd(), buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn->reader.append({buffer, static_cast<std::size_t>(n)});
      if (static_cast<std::size_t>(n) < sizeof(buffer)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    destroy(id, true);  // EOF or hard error
    return;
  }

  while (true) {
    conn = find(id);
    if (conn == nullptr) return;
    // Zero-copy: the frame is decoded straight out of the reader's buffer
    // (the view dies at the next reader call, after decode has copied what
    // the Message needs).
    auto frame = conn->reader.next_frame();
    if (!frame.has_value()) {
      if (conn->reader.corrupted()) {
        counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        destroy(id, true);
      }
      return;
    }
    auto message = decode_payload(*frame);
    if (!message.has_value()) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      destroy(id, true);
      return;
    }
    counters_.frames_in.fetch_add(1, std::memory_order_relaxed);
    if (!draining_ && callbacks_.on_message) {
      callbacks_.on_message(id, std::move(*message));
    }
  }
}

void FrameLoop::flush_writes(Connection& conn) {
  while (conn.out_bytes > 0) {
    // Gather every queued frame (up to kMaxIov) into one sendmsg: the
    // per-frame syscall cost of the old send()-per-frame path amortizes
    // across the whole wakeup's worth of replies.
    iovec iov[kMaxIov];
    std::size_t iovcnt = 0;
    std::size_t head_off = conn.out_head_off;
    for (auto it = conn.outq.begin();
         it != conn.outq.end() && iovcnt < kMaxIov; ++it) {
      iov[iovcnt].iov_base = it->data() + head_off;
      iov[iovcnt].iov_len = it->size() - head_off;
      head_off = 0;
      ++iovcnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovcnt;
    counters_.syscalls.fetch_add(1, std::memory_order_relaxed);
    const ssize_t n = ::sendmsg(conn.sock.fd(), &msg, MSG_NOSIGNAL);
    if (n > 0) {
      std::size_t written = static_cast<std::size_t>(n);
      conn.out_bytes -= written;
      while (written > 0) {
        std::vector<std::uint8_t>& head = conn.outq.front();
        const std::size_t remaining = head.size() - conn.out_head_off;
        if (written < remaining) {
          conn.out_head_off += written;
          break;
        }
        written -= remaining;
        release_buffer(std::move(head));
        conn.outq.pop_front();
        conn.out_head_off = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    destroy(conn.id, true);
    return;
  }
}

void FrameLoop::update_interest(Connection& conn) {
  const bool want_read = !draining_ && !conn.connecting;
  const bool want_write = conn.connecting || conn.out_bytes > 0;
  if (want_read == conn.want_read && want_write == conn.want_write) return;
  events_.modify(conn.sock.fd(), want_read, want_write);
  conn.want_read = want_read;
  conn.want_write = want_write;
}

void FrameLoop::destroy(ConnId id, bool notify) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  // Move the connection out before the callback so on_close can freely call
  // back into the loop (send to other conns, reconnect, ...).
  Connection conn = std::move(it->second);
  conns_.erase(it);
  by_fd_.erase(conn.sock.fd());
  events_.remove(conn.sock.fd());
  conn.sock.reset();
  // Recycle the retiring conn's buffers so accept/connect churn stops
  // allocating at steady state.
  release_buffer(conn.reader.release_storage());
  for (auto& frame : conn.outq) {
    release_buffer(std::move(frame));
  }
  // Outbound conns whose on_connect hasn't been delivered report their
  // demise through the connect path (deferred notifier finds them gone),
  // never through on_close.
  const bool established = !conn.outbound || conn.connect_notified;
  if (notify && established && callbacks_.on_close) {
    callbacks_.on_close(id);
  }
}

}  // namespace scp::net
