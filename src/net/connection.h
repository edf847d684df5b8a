// One established TCP connection on an event loop: owns the fd, the
// FrameReader (read-sized arenas feeding the zero-copy codec), and the
// outbound write backlog.
//
// Thread model: reads, the close handler and the EPOLLOUT backlog drain run
// on the owning loop's thread. The owner may move a connection to another
// loop once, from inside a frame handler (hand_off): a daemon moves each
// inbound peer connection from the shard that ran its Hello to the
// automaton's loop. send() may be called from any thread and
// writes through: the calling thread puts the frame on the socket itself,
// under the per-connection write mutex, whenever nothing is queued ahead of
// it. Only a send that meets a full socket buffer queues the rest and arms
// EPOLLOUT; the loop thread then drains that backlog under the same mutex,
// so frames from every sender go out whole and in the order their send()
// calls took the mutex. Lifetime is shared_ptr-based: the loop's fd handler
// closure keeps the connection alive until close, and response routing
// across threads holds weak_ptrs so a dead connection drops its responses
// instead of dangling.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>

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

  Connection(runtime::EventLoop* loop, ScopedFd fd);
  ~Connection() = default;

  /// Registers with the loop and starts reading; frames already buffered
  /// (see hand_off) are delivered first, in order. Loop thread only.
  void open(FrameHandler on_frame, CloseHandler on_close);

  /// Loop thread, from inside this connection's frame handler: moves the
  /// connection to `target`. This loop stops watching the fd at once; the
  /// fd and every byte read but not yet delivered go to the returned
  /// connection, which must be open()ed on `target`'s thread. This one is
  /// closed from here on, without its close handler.
  std::shared_ptr<Connection> hand_off(runtime::EventLoop* target);

  /// Write a ready-made frame (header + payload, see encode_frame). Any
  /// thread; the frame is written on the calling thread unless a backlog
  /// is queued. The Buffer's arena is shared, not copied, so a multicast
  /// frame sent on n connections costs one allocation total. A write
  /// error posts the close to the loop; frames sent to a closed
  /// connection are dropped.
  void send(erasure::Buffer frame);

  /// Any thread. Drops the fd and fires the close handler (on the loop
  /// thread) if the connection is still alive.
  void close();

  /// Bytes queued behind a full socket buffer and not yet written. Any
  /// thread.
  std::size_t write_backlog() const;

 private:
  /// On EPOLLOUT: writes queued frames until the socket would block again,
  /// and unsubscribes once the backlog is empty. False on a hard write
  /// error. Loop thread only.
  bool drain_backlog();
  /// Subscribes EPOLLOUT while a backlog is queued. Loop thread only.
  void arm_backlog();
  void handle_events(std::uint32_t events);
  void handle_readable();
  /// Delivers every complete frame the reader holds; false once the
  /// connection is closed (by a handler, or for a framing violation).
  bool deliver_buffered();
  void close_on_loop();
  void post_close();

  runtime::EventLoop* loop_;
  FrameHandler on_frame_;
  CloseHandler on_close_;
  FrameReader reader_;
  bool closed_ = false;  // loop thread only

  /// Guards the write side and the fd's teardown: a sending thread holds
  /// it across its send(2), so close_on_loop cannot release the fd (and
  /// let the kernel reuse its number) under a write.
  mutable std::mutex write_mu_;
  ScopedFd fd_;
  /// Outbound frames behind a full socket buffer; front_written_ bytes of
  /// the front one already went out (partial-write bookkeeping).
  std::deque<erasure::Buffer> write_queue_;
  std::size_t front_written_ = 0;
  bool want_write_ = false;    // EPOLLOUT currently subscribed
  bool write_failed_ = false;  // a write hit a hard error; close is posted
};

}  // namespace causalec::net
