// NetTransport: the Transport seam (causalec/server.h) over real TCP.
//
// Outbound topology: every daemon *dials* every peer and sends its protocol
// frames on its own outbound links only; accepted connections are
// receive-only for protocol traffic. This gives each ordered channel a
// single writer and makes "who is connected to whom" trivial to reason
// about after crashes.
//
// PeerLink is one such outbound link. Its shard's event loop dials,
// re-dials and watches it; frames are written by the sending thread (the
// automaton) straight through Connection::send. Its delivery semantics
// match the crash-stop channel model of the in-process runtimes:
//   * before the link is first established (cluster start-up), frames are
//     queued (bounded) so no protocol traffic is lost to boot-order races;
//   * after an established link is lost, frames are dropped -- exactly the
//     "crashed node loses its mailbox" behavior the rejoin protocol
//     (DESIGN.md §9) is built to repair -- and the automaton is told via
//     set_peer_down until the link re-establishes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "causalec/server.h"
#include "erasure/buffer.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "runtime/automaton_loop.h"

namespace causalec::net {

class PeerLink {
 public:
  /// `on_liveness(down)` fires on the loop thread at every established /
  /// lost transition (the daemon marshals it to set_peer_down).
  PeerLink(EventLoop* loop, NodeId self, NodeId peer, std::string host,
           std::uint16_t port,
           std::function<void(NodeId peer, bool down)> on_liveness);

  /// Begin dialing (posts to the loop; any thread).
  void start();
  /// Drop the connection and stop reconnecting. Any thread: later frames
  /// are dropped at once; the close and the cancelling of a dial in
  /// progress are posted to the loop.
  void shutdown();

  /// Send one ready-made frame on the calling thread (see delivery
  /// semantics above). Any thread; multicast callers pass the same Buffer
  /// to every link, so the arena is shared across all n-1 destinations.
  void send_frame(erasure::Buffer frame);

  NodeId peer() const { return peer_; }

  /// Frames queued while the link was never yet established are capped;
  /// beyond this the oldest are dropped (rejoin repairs the loss).
  static constexpr std::size_t kMaxPendingFrames = 4096;

 private:
  // All of the below runs on the loop thread.
  void dial();
  void on_connect_ready(std::uint32_t events);
  void on_lost(const std::shared_ptr<Connection>& dead);
  void retry_later();
  bool is_shut_down();

  EventLoop* loop_;
  NodeId self_;
  NodeId peer_;
  std::string host_;
  std::uint16_t port_;
  std::function<void(NodeId, bool)> on_liveness_;

  ScopedFd connecting_;  // fd mid-connect (watched for EPOLLOUT); loop only
  bool down_reported_ = false;  // loop thread only

  /// Guards the send-side state below. Held across the Hello and the
  /// start-up flush, so no frame can overtake them on a new connection.
  std::mutex mu_;
  std::shared_ptr<Connection> conn_;
  std::deque<erasure::Buffer> pending_;  // pre-first-establishment queue
  bool ever_established_ = false;
  bool shutdown_ = false;
};

/// Transport implementation handed to the Server automaton. send/multicast
/// serialize through the codec, wrap the bytes in one frame arena
/// (serialize once, share everywhere), and send on the per-peer links from
/// the calling thread. Serialization timing and the timers behind
/// schedule_after/now belong to the automaton loop hosting the server (the
/// Server only ever calls them from that loop's thread, so the automaton
/// thread is the only sender of protocol frames and every link is FIFO).
class NetTransport final : public causalec::Transport {
 public:
  /// `links[j]` is the link to node j (null at the self index). `loop`
  /// must outlive the transport.
  NetTransport(std::vector<PeerLink*> links, runtime::AutomatonLoop* loop);

  void send(NodeId to, sim::MessagePtr message) override;
  void multicast(std::span<const NodeId> targets,
                 const std::function<sim::MessagePtr()>& make) override;
  void schedule_after(SimTime delta, std::function<void()> fn) override;
  SimTime now() const override;

  /// Automaton thread: frames sent from here on are held until
  /// release_held(), which sends them in order. NodeDaemon brackets a
  /// client write with the pair so the client's ack goes out before the
  /// write's fan-out.
  void hold();
  void release_held();

 private:
  void send_frame(NodeId to, erasure::Buffer frame);

  std::vector<PeerLink*> links_;
  runtime::AutomatonLoop* loop_;
  bool holding_ = false;
  std::vector<std::pair<PeerLink*, erasure::Buffer>> held_;
};

}  // namespace causalec::net
