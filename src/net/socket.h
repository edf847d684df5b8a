// Thin POSIX TCP helpers for the net layer: an RAII fd, non-blocking
// listen/connect/accept, and host:port parsing. Loopback and LAN TCP only;
// everything above this file speaks in terms of fds and byte spans.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace causalec::net {

/// Owns a file descriptor; closes it on destruction. Movable, not copyable.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { reset(); }

  ScopedFd(ScopedFd&& other) noexcept : fd_(other.release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// "host:port" -> (host, port); nullopt on malformed input.
std::optional<std::pair<std::string, std::uint16_t>> parse_host_port(
    const std::string& spec);

/// O_NONBLOCK on/off; false on fcntl failure.
bool set_nonblocking(int fd, bool on = true);

/// TCP_NODELAY (the request/response paths are latency-bound, and frames
/// are written coalesced, so Nagle only adds delay).
bool set_nodelay(int fd);

/// Non-blocking listening socket bound to host:port, with SO_REUSEADDR and
/// SO_REUSEPORT. SO_REUSEPORT lets several shards of one process bind the
/// same port and have the kernel load-balance incoming connections across
/// them (the shard-per-core accept model), and lets a listener bind a port
/// that net::reserve_loopback_ports still holds. Returns an invalid fd on
/// failure with errno set.
ScopedFd listen_tcp(const std::string& host, std::uint16_t port,
                    int backlog = 128);

/// The port a bound socket actually listens on (resolves port 0).
std::uint16_t local_port(int fd);

/// Start a non-blocking connect; the fd is connecting (or connected) on
/// return. Completion is signaled by EPOLLOUT; check take_socket_error().
ScopedFd connect_tcp_nonblocking(const std::string& host,
                                 std::uint16_t port);

/// Blocking connect with a timeout, for client tools and test fixtures.
ScopedFd connect_tcp_blocking(const std::string& host, std::uint16_t port,
                              int timeout_ms);

/// SO_ERROR fetch-and-clear; 0 means the socket is healthy.
int take_socket_error(int fd);

/// Non-blocking accept; invalid fd when no connection is pending.
ScopedFd accept_nonblocking(int listen_fd);

}  // namespace causalec::net
