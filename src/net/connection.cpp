#include "net/connection.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <optional>

#include "common/expect.h"

namespace causalec::net {

namespace {

/// Writes `frame` from byte `offset` on until it is all out or the socket
/// would block; returns the new offset, or nullopt on a hard error.
std::optional<std::size_t> write_from(int fd, const erasure::Buffer& frame,
                                      std::size_t offset) {
  while (offset < frame.size()) {
    const ssize_t n = ::send(fd, frame.data() + offset, frame.size() - offset,
                             MSG_NOSIGNAL);
    if (n > 0) {
      offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return std::nullopt;
  }
  return offset;
}

}  // namespace

Connection::Connection(EventLoop* loop, ScopedFd fd)
    : loop_(loop), fd_(std::move(fd)) {}

void Connection::open(FrameHandler on_frame, CloseHandler on_close) {
  CEC_DCHECK(loop_->on_loop_thread());
  CEC_CHECK(fd_.valid());
  on_frame_ = std::move(on_frame);
  on_close_ = std::move(on_close);
  auto self = shared_from_this();
  loop_->watch(fd_.get(), /*want_read=*/true, /*want_write=*/false,
               [self](std::uint32_t events) { self->handle_events(events); });
}

void Connection::send(erasure::Buffer frame) {
  if (frame.empty()) return;
  std::unique_lock<std::mutex> lock(write_mu_);
  if (!fd_.valid() || write_failed_) return;
  if (!write_queue_.empty()) {
    // Behind a backlog: the EPOLLOUT drain writes it in turn.
    write_queue_.push_back(std::move(frame));
    return;
  }
  const std::optional<std::size_t> written = write_from(fd_.get(), frame, 0);
  if (!written.has_value()) {
    write_failed_ = true;
    lock.unlock();
    post_close();
    return;
  }
  if (*written == frame.size()) return;
  // The socket buffer is full: the loop thread writes the rest once the
  // peer drains it.
  front_written_ = *written;
  write_queue_.push_back(std::move(frame));
  lock.unlock();
  if (loop_->on_loop_thread()) {
    arm_backlog();
  } else {
    auto self = shared_from_this();
    loop_->post([self] { self->arm_backlog(); });
  }
}

void Connection::close() {
  if (loop_->on_loop_thread()) {
    close_on_loop();
    return;
  }
  post_close();
}

void Connection::post_close() {
  auto self = shared_from_this();
  loop_->post([self] { self->close_on_loop(); });
}

std::size_t Connection::write_backlog() const {
  std::lock_guard<std::mutex> lock(write_mu_);
  std::size_t total = 0;
  for (const auto& b : write_queue_) total += b.size();
  return total - front_written_;
}

void Connection::arm_backlog() {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (want_write_ || write_queue_.empty() || !fd_.valid()) return;
  want_write_ = true;
  loop_->update(fd_.get(), /*want_read=*/true, /*want_write=*/true);
}

bool Connection::drain_backlog() {
  std::lock_guard<std::mutex> lock(write_mu_);
  while (!write_queue_.empty()) {
    const erasure::Buffer& front = write_queue_.front();
    const std::optional<std::size_t> written =
        write_from(fd_.get(), front, front_written_);
    if (!written.has_value()) {
      write_failed_ = true;
      return false;
    }
    front_written_ = *written;
    if (front_written_ < front.size()) return true;  // would block
    write_queue_.pop_front();
    front_written_ = 0;
  }
  if (want_write_) {
    want_write_ = false;
    loop_->update(fd_.get(), /*want_read=*/true, /*want_write=*/false);
  }
  return true;
}

void Connection::handle_events(std::uint32_t events) {
  if (closed_) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    close_on_loop();
    return;
  }
  if ((events & EPOLLOUT) != 0 && !drain_backlog()) {
    close_on_loop();
    return;
  }
  if ((events & EPOLLIN) != 0) handle_readable();
}

void Connection::handle_readable() {
  // Drain the socket. Each read is copied once into an arena of its own
  // size; frames wholly inside it are delivered as zero-copy slices by the
  // FrameReader.
  while (!closed_) {
    const ssize_t n = recv_into(fd_.get(), reader_);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_on_loop();
      return;
    }
    if (n == 0) {  // orderly peer shutdown
      close_on_loop();
      return;
    }
    auto self = shared_from_this();  // a frame handler may close us
    while (auto payload = reader_.next()) {
      on_frame_(self, std::move(*payload));
      if (closed_) return;
    }
    if (reader_.failed()) {
      // Framing violation (oversized length prefix): hostile or broken
      // peer; drop the connection rather than guess at resync.
      close_on_loop();
      return;
    }
    // A short read means the socket is drained.
    if (static_cast<std::size_t>(n) < kReadChunkBytes) return;
  }
}

void Connection::close_on_loop() {
  if (closed_) return;
  closed_ = true;
  loop_->unwatch(fd_.get());
  std::deque<erasure::Buffer> dropped;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    fd_.reset();
    dropped.swap(write_queue_);
    front_written_ = 0;
  }
  // on_frame_ is deliberately left in place: close() may run from inside
  // it, and destroying an executing std::function is undefined behavior.
  // The closed_ flag guarantees it is never invoked again.
  if (on_close_) {
    auto self = shared_from_this();
    CloseHandler handler = std::move(on_close_);
    on_close_ = nullptr;
    handler(self);
  }
}

}  // namespace causalec::net
