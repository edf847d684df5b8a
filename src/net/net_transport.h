// PeerLink: one outbound protocol link over real TCP.
//
// Outbound topology: every daemon *dials* every peer and sends its protocol
// frames on its own outbound links only; accepted connections are
// receive-only for protocol traffic. This gives each ordered channel a
// single writer and makes "who is connected to whom" trivial to reason
// about after crashes. A daemon's Server sends through its AutomatonLoop's
// outbox (runtime/automaton_loop.h), whose round end hands each link its
// payloads in send order; frontdoor::Router dials its backends with
// PeerLink too.
//
// One loop thread owns a link: it dials, re-dials, watches and writes it
// (a daemon's automaton loop, or the router's shard). Until the first
// establishment the redial delay starts at 1 ms and doubles up to 100 ms,
// so a peer that is still binding its listener costs milliseconds; after
// that, a lost link redials every 100 ms. Payloads go straight through
// Connection::send, which frames them. Its delivery semantics match the
// crash-stop channel model of the in-process runtimes:
//   * before the link is first established (cluster start-up), payloads
//     are queued (bounded) so no protocol traffic is lost to boot-order
//     races;
//   * after an established link is lost, payloads are dropped -- exactly the
//     "crashed node loses its mailbox" behavior the rejoin protocol
//     (DESIGN.md §9) is built to repair -- and the owner is told, so the
//     automaton can set_peer_down until the link re-establishes.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "common/types.h"
#include "erasure/buffer.h"
#include "net/client_proto.h"
#include "net/connection.h"
#include "runtime/event_loop.h"

namespace causalec::net {

class PeerLink {
 public:
  /// Every connection opens with `hello`: a daemon names itself as a
  /// server, a router as a client. `on_liveness(peer, down)` fires on the
  /// loop thread each time a connection is established (down = false,
  /// the first time included) and each time one is lost (down = true).
  /// `on_frame`, when set, gets the frames the peer sends back, on the
  /// loop thread; without it they are ignored.
  PeerLink(runtime::EventLoop* loop, NodeId peer, std::string host,
           std::uint16_t port, Hello hello,
           std::function<void(NodeId peer, bool down)> on_liveness,
           Connection::FrameHandler on_frame = nullptr);

  /// Begin dialing (posts to the loop; any thread).
  void start();
  /// Drop the connection and stop reconnecting; later frames are dropped.
  /// Loop thread, or any thread once the loop has stopped.
  void shutdown();

  /// Send one payload (see delivery semantics above). Loop thread only;
  /// multicast callers pass the same Buffer to every link, so the arena is
  /// shared across all n-1 destinations.
  void send(erasure::Buffer payload);

  NodeId peer() const { return peer_; }

  /// Payloads queued while the link was never yet established are capped;
  /// beyond this the oldest are dropped (rejoin repairs the loss).
  static constexpr std::size_t kMaxPendingFrames = 4096;

 private:
  void dial();
  void on_connect_ready(std::uint32_t events);
  void on_lost(const std::shared_ptr<Connection>& dead);
  void retry_later();

  runtime::EventLoop* loop_;
  NodeId peer_;
  std::string host_;
  std::uint16_t port_;
  Hello hello_;
  std::function<void(NodeId, bool)> on_liveness_;
  Connection::FrameHandler on_frame_;

  ScopedFd connecting_;  // fd mid-connect (watched for EPOLLOUT)
  /// Next redial delay before the first establishment.
  std::chrono::milliseconds startup_redial_delay_;
  std::shared_ptr<Connection> conn_;
  std::deque<erasure::Buffer> pending_;  // pre-first-establishment queue
  bool ever_established_ = false;
  bool shutdown_ = false;
};

}  // namespace causalec::net
