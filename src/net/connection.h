// One established TCP connection on an event loop: owns the fd, the
// FrameReader (read-sized arenas feeding the zero-copy codec), and the
// outbound write backlog.
//
// Thread model: one thread, the owning loop's, does everything -- reads,
// sends, the close handler and the EPOLLOUT backlog drain (DESIGN.md §11:
// every socket has one owner thread). A connection is opened on the loop
// that serves it and never moves. send() writes through: the frame goes on
// the socket at once whenever nothing is queued ahead of it. Only a send
// that meets a full socket buffer queues the rest and arms EPOLLOUT; the
// loop then drains that backlog, so frames go out whole and in send()
// order. Lifetime is shared_ptr-based: the loop's fd handler closure keeps
// the connection alive until close, and response routing holds weak_ptrs
// so a dead connection drops its responses instead of dangling.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "erasure/buffer.h"
#include "net/frame.h"
#include "net/socket.h"
#include "runtime/event_loop.h"

namespace causalec::net {

class Connection : public std::enable_shared_from_this<Connection> {
 public:
  /// Called on the loop thread for every complete payload frame.
  using FrameHandler =
      std::function<void(const std::shared_ptr<Connection>&,
                         erasure::Buffer payload)>;
  /// Called on the loop thread exactly once when the connection dies
  /// (peer hangup, read/write error, framing violation, or local close()).
  using CloseHandler = std::function<void(const std::shared_ptr<Connection>&)>;

  /// Any thread; the connection is then used only on `loop`'s thread.
  Connection(runtime::EventLoop* loop, ScopedFd fd);
  ~Connection() = default;

  /// Registers with the loop and starts reading. Loop thread only.
  void open(FrameHandler on_frame, CloseHandler on_close);

  /// Frames one payload (net/frame.h: framed) and writes it. Loop thread
  /// only. The payload's arena is shared, not copied, so a multicast
  /// payload sent on n connections costs one allocation total. A write
  /// error posts the close to the loop rather than running the close
  /// handler inside the caller; payloads sent to a closed connection are
  /// dropped.
  void send(erasure::Buffer payload);

  /// Drops the fd and fires the close handler if the connection is still
  /// alive. Loop thread, or any thread once the loop has stopped.
  void close();

  /// Bytes queued behind a full socket buffer and not yet written. Loop
  /// thread only.
  std::size_t write_backlog() const;

 private:
  /// On EPOLLOUT: writes queued frames until the socket would block again,
  /// and unsubscribes once the backlog is empty. False on a hard write
  /// error.
  bool drain_backlog();
  void handle_events(std::uint32_t events);
  void handle_readable();
  /// Delivers every complete frame the reader holds; false once the
  /// connection is closed (by a handler, or for a framing violation).
  bool deliver_buffered();

  runtime::EventLoop* loop_;
  FrameHandler on_frame_;
  CloseHandler on_close_;
  FrameReader reader_;
  bool closed_ = false;
  ScopedFd fd_;
  /// Outbound frames behind a full socket buffer; front_written_ bytes of
  /// the front one already went out (partial-write bookkeeping).
  std::deque<erasure::Buffer> write_queue_;
  std::size_t front_written_ = 0;
  bool want_write_ = false;    // EPOLLOUT currently subscribed
  bool write_failed_ = false;  // a write hit a hard error; close is posted
};

}  // namespace causalec::net
