// Readiness-based framed-TCP reactor: one epoll event loop on its own
// thread, owning a set of connections that speak the length-prefixed
// wire protocol. Both server roles and the front-end's backend pool are
// built on the Reactor interface this class implements — a FrameLoop can
// simultaneously accept inbound connections (listen) and maintain outbound
// ones (connect), which is exactly what scp_frontend needs to forward
// misses while serving clients. ReactorPool composes N reactors into a
// sharded server (SO_REUSEPORT or an accept-handler that round-robins fds
// into other loops via adopt()).
//
// Hot-path cost model: send() only encodes (into a pooled buffer, no heap
// allocation at steady state) and queues; all queued frames of a wakeup are
// flushed with one gathered sendmsg per connection (up to IOV_MAX buffers)
// right before the loop blocks again. Read buffers are recycled through the
// same per-loop pool, and inbound frames are decoded from a zero-copy view.
//
// Timers, post(), the self-pipe wakeup, buffer pooling and the threading
// contract live in the Reactor base (see reactor.h).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/reactor.h"

namespace scp::net {

class FrameLoop final : public Reactor {
 public:
  FrameLoop();
  ~FrameLoop() override;

  bool listen(const std::string& address, std::uint16_t port,
              int backlog = 128, bool reuse_port = false) override;

  bool send(ConnId conn, const Message& message) override;
  void close_connection(ConnId conn) override;

 protected:
  bool valid() const noexcept override { return events_.valid(); }
  void run() override;
  void adopt_on_loop(int fd) override;
  void do_connect(ConnId id, const std::string& address,
                  std::uint16_t port) override;

 private:
  struct Connection {
    ConnId id = kInvalidConn;
    Socket sock;
    FrameReader reader;
    /// Outbound frames, one pooled buffer per frame; flushed with a single
    /// gathered sendmsg per wakeup. `out_head_off` is how much of the front
    /// frame has already hit the socket; `out_bytes` the total unsent bytes.
    std::deque<std::vector<std::uint8_t>> outq;
    std::size_t out_head_off = 0;
    std::size_t out_bytes = 0;
    bool flush_pending = false;  ///< queued in flush_pending_ this wakeup
    bool outbound = false;
    bool connecting = false;
    /// Interest bits currently registered with the event loop; a modify
    /// that would not change them is skipped (it would be a wasted syscall).
    bool want_read = false;
    bool want_write = false;
    /// Outbound only: on_connect has been delivered. A conn that dies first
    /// reports on_connect(false) (via the deferred notifier), never
    /// on_close — so owners see exactly one outcome per connect().
    bool connect_notified = false;
  };

  void notify_connect_deferred(ConnId id);
  void accept_ready();
  Connection* find(ConnId id);
  void handle_event(const IoEvent& event);
  void handle_readable(ConnId id);
  void flush_writes(Connection& conn);
  void schedule_flush(Connection& conn);
  void flush_pending_conns();
  void update_interest(Connection& conn);
  void destroy(ConnId id, bool notify);

  EventLoop events_;

  std::vector<ConnId> flush_pending_;  // conns with frames queued this wakeup

  std::unordered_map<ConnId, Connection> conns_;
  std::unordered_map<int, ConnId> by_fd_;
};

}  // namespace scp::net
