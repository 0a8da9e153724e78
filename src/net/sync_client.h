// Blocking request/reply client for the SCP wire protocol.
//
// One TCP connection, strictly synchronous call() — exactly what a load
// generator thread or a test needs. NOT thread-safe: give each thread its
// own client. Against a sharded (SO_REUSEPORT) server each connection lands
// on one shard for its whole lifetime, so a client sees exactly one shard's
// cache.
//
// Every request goes out under an id minted from the client's own counter,
// and its reply must carry that id (wire.h). Failure handling is
// drop-and-reconnect by design: every failure (timeout, peer close,
// protocol error, a reply with an id nothing asked for) closes the socket,
// so a late reply to a timed-out request never reaches the next call().
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"

namespace scp::net {

class SyncClient {
 public:
  SyncClient() = default;

  /// Connects (blocking, with timeout). False on refusal or timeout.
  /// Reconnecting an already-connected client drops the old connection and
  /// any reply still in flight on it.
  bool connect(const std::string& address, std::uint16_t port,
               double timeout_s = 1.0);
  void disconnect() { sock_.reset(); }
  bool connected() const noexcept { return sock_.valid(); }

  /// Sends `request` under a fresh id (its own `id` is ignored) and blocks
  /// for the reply carrying it. nullopt when not connected, on timeout, a
  /// peer close, or a protocol error — the connection is dropped in every
  /// failure case, so the caller can simply reconnect.
  std::optional<Message> call(const Message& request, double timeout_s = 1.0);

  /// GET convenience wrapper.
  std::optional<Message> get(std::uint64_t key, double timeout_s = 1.0);

  /// Sends one kBatchGet for `keys` under id b and blocks until every key
  /// is answered. Returns one Message per key, in request order, however
  /// the server answers: one kBatchReply carrying b (a backend) or one
  /// frame per key, key i's carrying b+i (a front end). nullopt on timeout,
  /// protocol error or peer close; the connection is then dropped.
  std::optional<std::vector<Message>> batch_get(
      const std::vector<std::uint64_t>& keys, double timeout_s = 1.0);

 private:
  bool send_all(const std::uint8_t* data, std::size_t size, double timeout_s);
  /// Next decoded frame, blocking until `deadline`. nullopt (and the
  /// connection dropped) on timeout, peer close or a malformed frame.
  std::optional<Message> receive(
      std::chrono::steady_clock::time_point deadline);

  Socket sock_;
  FrameReader reader_;
  std::uint32_t next_id_ = 1;  ///< not 0, so an unechoed reply never matches
};

}  // namespace scp::net
