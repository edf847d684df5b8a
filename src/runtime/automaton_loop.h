// AutomatonLoop: the driver thread of one Server automaton, shared by the
// in-process ThreadedCluster and the socket NodeDaemon.
//
// The paper's server is one single-threaded automaton (Algorithms 1-3)
// driven by inbound messages, internal actions and a GC timer. The loop
// runs that drive on one runtime::EventLoop thread (named s<id>-auto),
// the same wait primitive the daemon's shards use, and owns everything
// around it. A *round* is everything one wake of the loop runs: its
// posted tasks, the socket frames it reads, its inbox batch, one
// Apply/Encoding fixpoint, the post-batch hook, its due timers and, last,
// the flush of its outbox:
//   * two ways in for peer messages. A daemon serves every connection on
//     event_loop(), so its peers' frames are read, decoded and dispatched
//     on this thread (dispatch_frame) with no handoff. Other threads
//     deliver through a swap-and-drain MPSC inbox (deliver;
//     ThreadedCluster's channels): producers append a batch under
//     `inbox_mu_` with no closure allocation, and the first message of an
//     inbox batch posts the one task that wakes the loop; the whole batch
//     is drained at the end of that round, after its tasks, so a client
//     operation queued with it does not wait behind the batch.
//     The Apply/Encoding fixpoint runs once per round, not once per
//     message; a client write read in the same round as a peer frame
//     applies what is pending before it takes its tag
//     (Server::client_write);
//   * one way out. transport() is the driven Server's Transport: every
//     protocol message it sends during a round waits in the round's
//     outbox, and the round's last step serializes each message once and
//     hands the peer sink one batch per peer, in send order. So a client
//     write is answered (client replies do not wait) before its app
//     messages leave, as Alg. 1 allows, and a ThreadedCluster peer gets one
//     inbox push per round, however many messages the round sent it (a
//     daemon writes them to the peer's link one frame at a time). The
//     loop thread is the only sender, so every peer channel stays FIFO;
//   * tasks (ThreadedCluster's client operations and liveness changes, a
//     daemon's rejoin round), which are EventLoop posts;
//   * the GC cadence, the snapshot cadence of a durable server, and
//     Transport::schedule_after, which are EventLoop timers. A GC tick's
//     dels and a timer callback's sends leave in the round that made them;
//   * a per-thread erasure::BufferPool, so the data path, socket reads
//     included, recycles arenas;
//   * the codec boundary: frames are untrusted bytes, so a malformed one
//     is logged and dropped, never fatal;
//   * instrumentation read from ServerConfig::obs: phase.queue_wait_ns,
//     phase.deserialize_ns, phase.serialize_ns, the
//     runtime.mailbox_depth.s<id> gauge, msg.send and msg.deliver trace
//     events and the net.* message counters (DESIGN.md §10 says what the
//     first and the gauge mean for frames the loop reads itself). Null
//     hooks cost one branch per site.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "causalec/server.h"
#include "erasure/arena_pool.h"
#include "erasure/buffer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/event_loop.h"

namespace causalec::runtime {

class AutomatonLoop {
 public:
  /// One protocol message between two servers: its codec frame (the
  /// targets of a multicast share one arena), or, from a loop that skips
  /// the codec (set_peer_sink), the message itself.
  struct Envelope {
    erasure::Buffer frame;
    sim::MessagePtr message;
  };

  /// Where a round's outbox goes: called on the loop thread at the end of
  /// the round, once per peer the round sent to, with every message for
  /// that peer in send order. The sink may move out of the batch.
  using PeerSink = std::function<void(NodeId to, std::span<Envelope> batch)>;

  /// Loop for server `id`: GC every `gc_period`, and a checkpoint every
  /// `snapshot_period` while the driven server is durable.
  AutomatonLoop(NodeId id, const obs::ObsHooks& obs,
                std::chrono::milliseconds gc_period,
                std::chrono::milliseconds snapshot_period);
  ~AutomatonLoop();

  AutomatonLoop(const AutomatonLoop&) = delete;
  AutomatonLoop& operator=(const AutomatonLoop&) = delete;

  /// Runs after every round's tasks, messages and fixpoint, before its due
  /// timers and the flush of its outbox. Set before start().
  void set_post_batch(std::function<void()> hook) {
    post_batch_ = std::move(hook);
  }

  /// Where transport()'s messages go. With `serialize` false the sink gets
  /// in-memory messages, one per target, instead of frames. Set before
  /// start(); a loop without a sink drops its outbox.
  void set_peer_sink(PeerSink sink, bool serialize = true) {
    peer_sink_ = std::move(sink);
    serialize_ = serialize;
  }

  /// The driven Server's Transport: send and multicast queue the message
  /// in the round's outbox (loop thread only; multicast's `make` runs at
  /// once), schedule_after and now are the loop's.
  Transport& transport() { return transport_; }

  /// Starts the loop thread driving `server` (not owned). A loop is
  /// created stopped; start() is legal again after stop().
  void start(Server& server);

  /// Joins the loop thread, then discards every queued task, frame,
  /// outbound message and timer, as a crash would. No-op when stopped.
  void stop();

  /// Enqueue a task for the loop thread (any thread). Dropped while the
  /// loop is stopped.
  void post(std::function<void()> task);

  /// Enqueue a batch of messages from `from`, in order (any thread): one
  /// inbox push, and at most one wake. Frames are decoded on the loop
  /// thread, and their payloads alias the frame. The batch is moved from;
  /// dropped while the loop is stopped.
  void deliver(NodeId from, std::span<Envelope> batch);

  /// Loop thread: a protocol frame from `from` that this loop read itself
  /// (a socket watched by event_loop()). Decoded and dispatched at once;
  /// the round's fixpoint follows.
  void dispatch_frame(NodeId from, erasure::Buffer frame);

  /// Transport::schedule_after of the driven server. Call only from the
  /// loop thread, or while the loop is stopped (a restore).
  void schedule_after(SimTime delta_ns, std::function<void()> fn);

  /// Transport::now: steady-clock nanoseconds.
  static SimTime now();

  /// The loop the automaton runs on: fds watched here are read on the
  /// automaton thread, and connections opened here are served by it.
  EventLoop& event_loop() { return loop_; }

 private:
  /// transport(): the Server's sends go into the outbox.
  class OutboxTransport final : public Transport {
   public:
    explicit OutboxTransport(AutomatonLoop* loop) : loop_(loop) {}
    void send(NodeId to, sim::MessagePtr message) override;
    void multicast(std::span<const NodeId> targets,
                   const std::function<sim::MessagePtr()>& make) override;
    void schedule_after(SimTime delta, std::function<void()> fn) override {
      loop_->schedule_after(delta, std::move(fn));
    }
    SimTime now() const override { return AutomatonLoop::now(); }

   private:
    AutomatonLoop* loop_;
  };

  /// One inbound message: still-serialized (`frame`) or an in-memory
  /// object (`message`).
  struct Inbound {
    NodeId from;
    erasure::Buffer frame;
    sim::MessagePtr message;
    SimTime enqueued_at;  // 0 unless phase.queue_wait_ns is recorded
  };

  /// Dispatches the whole inbox batch.
  void drain_inbox();
  void dispatch(NodeId from, sim::MessagePtr message);
  /// The after-round hook: the inbox batch if one is due, the fixpoint if
  /// the round dispatched, then the post-batch hook.
  void end_round();
  /// Loop thread: `message` joins the round's outbox for every target.
  void queue(std::span<const NodeId> targets, sim::MessagePtr message);
  /// Serializes each queued message once and hands the sink one batch per
  /// peer.
  void flush_outbox();
  void collect_garbage();
  void checkpoint();
  /// Codec frame of an outbound message, timed into phase.serialize_ns.
  erasure::Buffer serialize(const sim::Message& message) const;
  /// try_deserialize_message, timed; null (logged) for a malformed frame.
  sim::MessagePtr decode(NodeId from, erasure::Buffer frame);
  /// net.* counters and the msg.send event of one message to one peer.
  void note_send(NodeId to, const sim::Message& message);
  void trace_deliver(NodeId from, const sim::Message& message);

  const NodeId id_;
  const std::chrono::milliseconds gc_period_;
  const std::chrono::milliseconds snapshot_period_;
  std::function<void()> post_batch_;
  PeerSink peer_sink_;
  bool serialize_ = true;
  OutboxTransport transport_{this};
  Server* server_ = nullptr;  // set by start()

  std::mutex inbox_mu_;
  std::vector<Inbound> inbox_;
  bool inbox_open_ = false;  // guarded by inbox_mu_; false while stopped

  // Loop thread only.
  bool inbox_due_ = false;  // a batch's task ran: drain at the round's end
  std::vector<Inbound> draining_;
  std::size_t unsettled_ = 0;  // dispatched this round
  /// The round's outbound messages in send order; frames are filled in
  /// at the flush.
  std::vector<Envelope> outbox_;
  /// Per peer: the outbox_ indices it is sent, in send order.
  std::vector<std::vector<std::uint32_t>> sends_;
  std::vector<Envelope> batch_;  // one peer's batch, handed to the sink
  /// Node-local arena recycling, installed on the loop thread.
  erasure::BufferPool pool_;

  // Instrumentation (null when the hooks are off).
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Histogram* m_queue_wait_ = nullptr;
  obs::Histogram* m_deserialize_ = nullptr;
  obs::Histogram* m_serialize_ = nullptr;
  obs::Gauge* m_mailbox_depth_ = nullptr;

  EventLoop loop_;  // declared last: its thread uses every member above
};

}  // namespace causalec::runtime
