// A stand-in for a backend, a replica peer or a fleet member in the loopback
// suites: it accepts every connection and decodes every frame. Hung (a zero
// pace), it never replies. Slow, it answers each connection's frames in
// order, one every `pace`: kRepAck, kPong, or an empty kVerValue. Records
// when each connection arrived and when the first bytes did, the key of
// every kReplicate it answered, and counts the GET keys and kPings it read.
// stop() closes the listener and every connection, freeing the port.
#pragma once

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"

namespace scp::net {

class FakePeer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit FakePeer(std::chrono::milliseconds pace = {}) : pace_(pace) {}
  ~FakePeer() { stop(); }

  bool start() {
    listener_ = listen_tcp("127.0.0.1", 0, 16, &port_);
    if (!listener_.valid()) return false;
    thread_ = std::thread([this] { run(); });
    return true;
  }

  void stop() {
    stopping_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    listener_.reset();
  }

  std::uint16_t port() const noexcept { return port_; }

  std::vector<Clock::time_point> accepts() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return accepts_;
  }

  std::optional<Clock::time_point> first_bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return first_bytes_;
  }

  std::vector<KeyId> acked() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return acked_;
  }

  std::uint64_t get_keys() const { return get_keys_.load(); }
  std::uint64_t pings() const { return pings_.load(); }

 private:
  struct Conn {
    Socket socket;
    FrameReader reader;
    std::deque<Message> owed;
  };

  static Message answer(const Message& request) {
    Message reply;
    reply.id = request.id;
    reply.key = request.key;
    if (request.type == MsgType::kReplicate) {
      reply.type = MsgType::kRepAck;
      reply.version = request.version;
      reply.flags = kFlagApplied;
    } else if (request.type == MsgType::kPing) {
      reply.type = MsgType::kPong;
    } else {
      reply.type = MsgType::kVerValue;
    }
    return reply;
  }

  /// Reads what `conn` has; false once it is closed or corrupt.
  bool receive(Conn& conn) {
    std::uint8_t buffer[16384];
    const ssize_t n = ::recv(conn.socket.fd(), buffer, sizeof(buffer), 0);
    if (n <= 0) return false;
    conn.reader.append({buffer, static_cast<std::size_t>(n)});
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_bytes_.has_value()) first_bytes_ = Clock::now();
    }
    while (auto payload = conn.reader.next_payload()) {
      auto message = decode_payload(*payload);
      if (!message.has_value()) return false;
      if (message->type == MsgType::kGet) get_keys_.fetch_add(1);
      if (message->type == MsgType::kBatchGet) {
        get_keys_.fetch_add(message->batch_keys.size());
      }
      if (message->type == MsgType::kPing) pings_.fetch_add(1);
      if (pace_.count() > 0) conn.owed.push_back(std::move(*message));
    }
    return !conn.reader.corrupted();
  }

  void run() {
    std::vector<Conn> conns;
    Clock::time_point next_reply = Clock::now();
    while (!stopping_.load(std::memory_order_relaxed)) {
      std::vector<pollfd> fds{{listener_.fd(), POLLIN, 0}};
      for (const Conn& conn : conns) {
        fds.push_back({conn.socket.fd(), POLLIN, 0});
      }
      ::poll(fds.data(), fds.size(), 1);
      if ((fds[0].revents & POLLIN) != 0) {
        const int fd = ::accept(listener_.fd(), nullptr, nullptr);
        if (fd >= 0) {
          conns.push_back(Conn{Socket(fd), FrameReader(), {}});
          std::lock_guard<std::mutex> lock(mutex_);
          accepts_.push_back(Clock::now());
        }
      }
      // Backwards, so dropping a closed connection keeps the rest aligned
      // with fds (fds[i] is conns[i - 1]).
      for (std::size_t i = fds.size() - 1; i >= 1; --i) {
        if (fds[i].revents == 0 || receive(conns[i - 1])) continue;
        conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i - 1));
      }
      if (pace_.count() == 0 || Clock::now() < next_reply) continue;
      next_reply = Clock::now() + pace_;
      for (Conn& conn : conns) {
        if (conn.owed.empty()) continue;
        const Message& request = conn.owed.front();
        const std::vector<std::uint8_t> frame = encode(answer(request));
        // Replies are small; a short send only happens on a closing socket.
        ::send(conn.socket.fd(), frame.data(), frame.size(), MSG_NOSIGNAL);
        if (request.type == MsgType::kReplicate) {
          std::lock_guard<std::mutex> lock(mutex_);
          acked_.push_back(request.key);
        }
        conn.owed.pop_front();
      }
    }
  }

  const std::chrono::milliseconds pace_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
  mutable std::mutex mutex_;
  std::vector<Clock::time_point> accepts_;
  std::optional<Clock::time_point> first_bytes_;
  std::vector<KeyId> acked_;
  std::atomic<std::uint64_t> get_keys_{0};
  std::atomic<std::uint64_t> pings_{0};
};

}  // namespace scp::net
