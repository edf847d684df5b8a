#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace causalec::net {

void ScopedFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

std::optional<std::pair<std::string, std::uint16_t>> parse_host_port(
    const std::string& spec) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    return std::nullopt;
  }
  unsigned long port = 0;
  for (std::size_t i = colon + 1; i < spec.size(); ++i) {
    if (spec[i] < '0' || spec[i] > '9') return std::nullopt;
    port = port * 10 + static_cast<unsigned long>(spec[i] - '0');
    if (port > 65535) return std::nullopt;
  }
  return std::make_pair(spec.substr(0, colon),
                        static_cast<std::uint16_t>(port));
}

bool set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, want) == 0;
}

bool set_nodelay(int fd) {
  int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

namespace {

bool fill_addr(const std::string& host, std::uint16_t port,
               sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

}  // namespace

ScopedFd listen_tcp(const std::string& host, std::uint16_t port,
                    int backlog) {
  sockaddr_in addr;
  if (!fill_addr(host, port, &addr)) {
    errno = EINVAL;
    return ScopedFd();
  }
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return ScopedFd();
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) !=
      0) {
    return ScopedFd();
  }
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd.get(), backlog) != 0 || !set_nonblocking(fd.get())) {
    return ScopedFd();
  }
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

ScopedFd connect_tcp_nonblocking(const std::string& host,
                                 std::uint16_t port) {
  sockaddr_in addr;
  if (!fill_addr(host, port, &addr)) {
    errno = EINVAL;
    return ScopedFd();
  }
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid() || !set_nonblocking(fd.get())) return ScopedFd();
  set_nodelay(fd.get());
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    return ScopedFd();
  }
  return fd;
}

ScopedFd connect_tcp_blocking(const std::string& host, std::uint16_t port,
                              int timeout_ms) {
  ScopedFd fd = connect_tcp_nonblocking(host, port);
  if (!fd.valid()) return ScopedFd();
  pollfd pfd{fd.get(), POLLOUT, 0};
  const int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc <= 0 || take_socket_error(fd.get()) != 0) return ScopedFd();
  set_nonblocking(fd.get(), false);
  return fd;
}

int take_socket_error(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return errno;
  return err;
}

ScopedFd accept_nonblocking(int listen_fd) {
  const int fd = ::accept4(listen_fd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd < 0) return ScopedFd();
  set_nodelay(fd);
  return ScopedFd(fd);
}

}  // namespace causalec::net
