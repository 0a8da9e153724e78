#include "net/sync_client.h"

#include <poll.h>
#include <sys/socket.h>

#include <cassert>
#include <cerrno>

namespace scp::net {
namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point deadline_after(double timeout_s) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(timeout_s));
}

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left <= 0 ? 0 : static_cast<int>(left);
}

}  // namespace

bool SyncClient::connect(const std::string& address, std::uint16_t port,
                         double timeout_s) {
  sock_ = connect_tcp(address, port, timeout_s);
  reader_ = FrameReader();
  return sock_.valid();
}

bool SyncClient::send_all(const std::uint8_t* data, std::size_t size,
                          double timeout_s) {
  const auto deadline = deadline_after(timeout_s);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(sock_.fd(), data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{sock_.fd(), POLLOUT, 0};
      const int timeout = remaining_ms(deadline);
      if (timeout == 0 || ::poll(&pfd, 1, timeout) <= 0) return false;
      continue;
    }
    return false;
  }
  return true;
}

std::optional<Message> SyncClient::receive(Clock::time_point deadline) {
  std::uint8_t buffer[16384];
  while (true) {
    if (auto payload = reader_.next_payload(); payload.has_value()) {
      auto message = decode_payload(*payload);
      if (!message.has_value()) disconnect();
      return message;
    }
    if (reader_.corrupted()) {
      disconnect();
      return std::nullopt;
    }
    pollfd pfd{sock_.fd(), POLLIN, 0};
    const int timeout = remaining_ms(deadline);
    if (timeout == 0 || ::poll(&pfd, 1, timeout) <= 0) {
      disconnect();
      return std::nullopt;
    }
    const ssize_t n = ::recv(sock_.fd(), buffer, sizeof(buffer), 0);
    if (n > 0) {
      reader_.append({buffer, static_cast<std::size_t>(n)});
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    disconnect();  // EOF or hard error
    return std::nullopt;
  }
}

std::optional<Message> SyncClient::call(const Message& request,
                                        double timeout_s) {
  if (!sock_.valid()) return std::nullopt;
  Message framed = request;
  framed.id = next_id_++;
  const std::vector<std::uint8_t> frame = encode(framed);
  if (!send_all(frame.data(), frame.size(), timeout_s)) {
    disconnect();
    return std::nullopt;
  }
  std::optional<Message> reply = receive(deadline_after(timeout_s));
  if (reply.has_value() && reply->id != framed.id) {
    disconnect();
    return std::nullopt;
  }
  // Strictly synchronous contract: one reply per request, so nothing may
  // remain buffered once the reply is decoded.
  assert((!reply.has_value() || reader_.buffered_bytes() == 0) &&
         "SyncClient: server sent bytes beyond the single expected reply");
  return reply;
}

std::optional<Message> SyncClient::get(std::uint64_t key, double timeout_s) {
  Message request;
  request.type = MsgType::kGet;
  request.key = key;
  return call(request, timeout_s);
}

std::optional<std::vector<Message>> SyncClient::batch_get(
    const std::vector<std::uint64_t>& keys, double timeout_s) {
  if (!sock_.valid() || keys.empty()) return std::nullopt;
  Message request;
  request.type = MsgType::kBatchGet;
  request.id = next_id_;
  request.batch_keys = keys;
  next_id_ += static_cast<std::uint32_t>(keys.size());
  const std::vector<std::uint8_t> frame = encode(request);
  if (!send_all(frame.data(), frame.size(), timeout_s)) {
    disconnect();
    return std::nullopt;
  }

  const auto deadline = deadline_after(timeout_s);
  std::vector<Message> replies(keys.size());
  std::vector<bool> answered(keys.size(), false);
  std::size_t filled = 0;
  while (filled < keys.size()) {
    std::optional<Message> message = receive(deadline);
    if (!message.has_value()) return std::nullopt;
    if (message->type == MsgType::kBatchReply) {
      // Backend path: one frame carrying the batch's id answers every key
      // in request order; mixing it with per-key frames is a protocol error.
      if (filled != 0 || message->id != request.id ||
          message->batch.size() != keys.size()) {
        disconnect();
        return std::nullopt;
      }
      for (std::size_t i = 0; i < keys.size(); ++i) {
        BatchItem& item = message->batch[i];
        if (item.key != keys[i]) {
          disconnect();
          return std::nullopt;
        }
        replies[i].type = item.type;
        replies[i].id = request.id + static_cast<std::uint32_t>(i);
        replies[i].key = item.key;
        replies[i].node = item.node;
        replies[i].payload = std::move(item.payload);
      }
      filled = keys.size();
      break;
    }
    // Front-end path: key i's own frame carries id b+i, in whatever order
    // the keys settled.
    const std::uint32_t slot = message->id - request.id;
    if (slot >= keys.size() || answered[slot] || message->key != keys[slot]) {
      disconnect();
      return std::nullopt;
    }
    replies[slot] = std::move(*message);
    answered[slot] = true;
    ++filled;
  }
  assert(reader_.buffered_bytes() == 0 &&
         "SyncClient: server sent bytes beyond the batch replies");
  return replies;
}

}  // namespace scp::net
