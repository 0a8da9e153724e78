#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>

#include "common/log.h"

namespace scp::net {
namespace {

bool make_address(const std::string& address, std::uint16_t port,
                  sockaddr_in& out) {
  std::memset(&out, 0, sizeof(out));
  out.sin_family = AF_INET;
  out.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &out.sin_addr) != 1) {
    SCP_LOG_ERROR << "net: bad IPv4 address '" << address << "'";
    return false;
  }
  return true;
}

}  // namespace

void Socket::reset(int fd) noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
  }
  fd_ = fd;
}

bool set_nonblocking(int fd) noexcept {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool set_nodelay(int fd) noexcept {
  int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

Socket listen_tcp(const std::string& address, std::uint16_t port, int backlog,
                  std::uint16_t* bound_port, bool reuse_port) {
  sockaddr_in addr{};
  if (!make_address(address, port, addr)) return {};

  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    SCP_LOG_ERROR << "net: socket() failed: " << std::strerror(errno);
    return {};
  }
  int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuse_port) {
#ifdef SO_REUSEPORT
    if (::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEPORT, &one,
                     sizeof(one)) != 0) {
      SCP_LOG_WARN << "net: SO_REUSEPORT unsupported: " << std::strerror(errno);
      return {};
    }
#else
    SCP_LOG_WARN << "net: SO_REUSEPORT not available on this platform";
    return {};
#endif
  }
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    SCP_LOG_ERROR << "net: bind(" << address << ":" << port
                  << ") failed: " << std::strerror(errno);
    return {};
  }
  if (::listen(sock.fd(), backlog) != 0) {
    SCP_LOG_ERROR << "net: listen() failed: " << std::strerror(errno);
    return {};
  }
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&actual), &len) !=
        0) {
      SCP_LOG_ERROR << "net: getsockname() failed: " << std::strerror(errno);
      return {};
    }
    *bound_port = ntohs(actual.sin_port);
  }
  if (!set_nonblocking(sock.fd())) {
    SCP_LOG_ERROR << "net: set_nonblocking(listener) failed";
    return {};
  }
  return sock;
}

Socket connect_tcp_nonblocking(const std::string& address, std::uint16_t port,
                               bool* in_progress) {
  if (in_progress != nullptr) *in_progress = false;
  sockaddr_in addr{};
  if (!make_address(address, port, addr)) return {};

  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return {};
  if (!set_nonblocking(sock.fd())) return {};
  set_nodelay(sock.fd());
  if (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    return sock;
  }
  if (errno == EINPROGRESS) {
    if (in_progress != nullptr) *in_progress = true;
    return sock;
  }
  return {};
}

Socket connect_tcp(const std::string& address, std::uint16_t port,
                   double timeout_s) {
  bool in_progress = false;
  Socket sock = connect_tcp_nonblocking(address, port, &in_progress);
  if (!sock.valid()) return {};
  if (in_progress) {
    pollfd pfd{sock.fd(), POLLOUT, 0};
    const int timeout_ms = static_cast<int>(timeout_s * 1000.0);
    if (::poll(&pfd, 1, timeout_ms) <= 0) return {};
    int error = 0;
    socklen_t len = sizeof(error);
    if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &error, &len) != 0 ||
        error != 0) {
      return {};
    }
  }
  // Back to blocking for the synchronous-client use case.
  const int flags = ::fcntl(sock.fd(), F_GETFL, 0);
  if (flags >= 0) {
    ::fcntl(sock.fd(), F_SETFL, flags & ~O_NONBLOCK);
  }
  return sock;
}

std::optional<std::vector<Endpoint>> parse_endpoints(std::string_view text) {
  std::vector<Endpoint> endpoints;
  if (text.empty()) return endpoints;
  while (true) {
    const std::size_t comma = text.find(',');
    const std::string_view entry = text.substr(0, comma);
    if (entry.empty()) {
      endpoints.emplace_back();
    } else {
      const std::size_t colon = entry.rfind(':');
      const bool bare = colon == std::string_view::npos;
      const std::string_view host =
          bare ? std::string_view("127.0.0.1") : entry.substr(0, colon);
      const std::string_view port_text =
          bare ? entry : entry.substr(colon + 1);
      unsigned port = 0;
      const char* end = port_text.data() + port_text.size();
      const auto [ptr, ec] = std::from_chars(port_text.data(), end, port);
      if (host.empty() || ec != std::errc() || ptr != end || port == 0 ||
          port > 65535) {
        return std::nullopt;
      }
      endpoints.emplace_back(std::string(host),
                             static_cast<std::uint16_t>(port));
    }
    if (comma == std::string_view::npos) return endpoints;
    text.remove_prefix(comma + 1);
  }
}

}  // namespace scp::net
