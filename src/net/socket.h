// Thin POSIX TCP socket helpers: RAII fd ownership, loopback listeners with
// kernel-assigned ports (--port 0), and blocking/non-blocking connects.
// Everything returns a plain invalid Socket on failure and logs the errno —
// the serving tier treats socket failure as "peer is down", never as a
// crash. parse_endpoints() is the one parser of endpoint lists.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace scp::net {

/// Move-only RAII wrapper around a file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket() { reset(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }

  /// Releases ownership without closing.
  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the current fd (if any) and adopts `fd`.
  void reset(int fd = -1) noexcept;

 private:
  int fd_ = -1;
};

bool set_nonblocking(int fd) noexcept;
bool set_nodelay(int fd) noexcept;

/// Creates a listening TCP socket bound to address:port (SO_REUSEADDR set;
/// port 0 = kernel-assigned). On success writes the actually bound port to
/// `bound_port` (when non-null) and returns the socket; invalid on failure.
/// With `reuse_port` the socket is additionally bound with SO_REUSEPORT so
/// several listeners can share one port and the kernel spreads accepted
/// connections across them (the multi-reactor accept path). When the
/// platform rejects SO_REUSEPORT the bind fails — callers fall back to a
/// single acceptor.
Socket listen_tcp(const std::string& address, std::uint16_t port, int backlog,
                  std::uint16_t* bound_port, bool reuse_port = false);

/// Starts a non-blocking connect. On return the socket is either connected,
/// in progress (`*in_progress` = true; completion is signaled by
/// writability, result read via SO_ERROR), or invalid (immediate failure).
Socket connect_tcp_nonblocking(const std::string& address, std::uint16_t port,
                               bool* in_progress);

/// Blocking connect with a timeout. Returns an invalid socket on failure or
/// timeout. The returned socket is left in blocking mode.
Socket connect_tcp(const std::string& address, std::uint16_t port,
                   double timeout_s);

using Endpoint = std::pair<std::string, std::uint16_t>;

/// Parses a comma-separated endpoint list. An entry is "host:port", or a
/// bare "port" on 127.0.0.1; the port is the whole rest of the entry, in
/// 1..65535. An empty entry keeps its index as an empty slot ({"", 0}), and
/// an empty text is an empty list. nullopt when any entry is malformed.
std::optional<std::vector<Endpoint>> parse_endpoints(std::string_view text);

}  // namespace scp::net
