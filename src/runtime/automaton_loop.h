// AutomatonLoop: the driver thread of one Server automaton, shared by the
// in-process ThreadedCluster and the socket NodeDaemon.
//
// The paper's server is one single-threaded automaton (Algorithms 1-3)
// driven by inbound messages, internal actions and a GC timer. The loop
// runs that drive on one runtime::EventLoop thread (named s<id>-auto),
// the same wait primitive the daemon's shards use, and owns everything
// around it:
//   * two ways in for peer messages. A daemon serves every connection on
//     event_loop(), so its peers' frames are read, decoded and dispatched
//     on this thread (dispatch_frame) with no handoff. Other
//     threads deliver through a swap-and-drain MPSC inbox (deliver_frame,
//     deliver_message; ThreadedCluster's channels): producers append under
//     `inbox_mu_` with no closure allocation, and the first frame of a
//     batch posts the one task that wakes the loop; the whole batch is
//     drained at the end of that round, after its tasks, so a client
//     operation queued with it does not wait behind the batch. The
//     Apply/Encoding fixpoint runs once per loop round, after the round's
//     tasks, socket frames and inbox batch, not once per message; a client
//     write read in the same round as a peer frame applies what is
//     pending before it takes its tag (Server::client_write);
//   * tasks (ThreadedCluster's client operations and liveness changes, a
//     daemon's rejoin round), which are EventLoop posts;
//   * the GC cadence, the snapshot cadence of a durable server, and
//     Transport::schedule_after, which are EventLoop timers;
//   * a per-thread erasure::BufferPool, so the data path, socket reads
//     included, recycles arenas;
//   * the codec boundary: frames are untrusted bytes, so a malformed one
//     is logged and dropped, never fatal;
//   * instrumentation read from ServerConfig::obs: phase.queue_wait_ns,
//     phase.deserialize_ns, phase.serialize_ns, the
//     runtime.mailbox_depth.s<id> gauge and msg.deliver trace events
//     (DESIGN.md §10 says what the first and the gauge mean for frames the
//     loop reads itself). Null hooks cost one branch per site.
#pragma once

#include <chrono>
#include <functional>
#include <mutex>
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
  /// Loop for server `id`: GC every `gc_period`, and a checkpoint every
  /// `snapshot_period` while the driven server is durable.
  AutomatonLoop(NodeId id, const obs::ObsHooks& obs,
                std::chrono::milliseconds gc_period,
                std::chrono::milliseconds snapshot_period);
  ~AutomatonLoop();

  AutomatonLoop(const AutomatonLoop&) = delete;
  AutomatonLoop& operator=(const AutomatonLoop&) = delete;

  /// Runs after every loop round (tasks, then messages and their
  /// fixpoint), before due timers fire. Set before start().
  void set_post_batch(std::function<void()> hook) {
    post_batch_ = std::move(hook);
  }

  /// Starts the loop thread driving `server` (not owned). A loop is
  /// created stopped; start() is legal again after stop().
  void start(Server& server);

  /// Joins the loop thread, then discards every queued task, frame and
  /// timer, as a crash would. No-op when stopped.
  void stop();

  /// Enqueue a task for the loop thread (any thread). Dropped while the
  /// loop is stopped.
  void post(std::function<void()> task);

  /// Enqueue a serialized protocol frame from `from` (any thread). It is
  /// decoded on the loop thread, and its payloads alias the frame. Dropped
  /// while the loop is stopped.
  void deliver_frame(NodeId from, erasure::Buffer frame);

  /// Enqueue an in-memory message (a runtime that skips the codec).
  void deliver_message(NodeId from, sim::MessagePtr message);

  /// Loop thread: a protocol frame from `from` that this loop read itself
  /// (a socket watched by event_loop()). Decoded and dispatched at once;
  /// the round's fixpoint follows.
  void dispatch_frame(NodeId from, erasure::Buffer frame);

  /// Codec frame of an outbound message, timed into phase.serialize_ns.
  /// Any thread.
  erasure::Buffer serialize(const sim::Message& message) const;

  /// Transport::schedule_after of the driven server. Call only from the
  /// loop thread, or while the loop is stopped (a restore).
  void schedule_after(SimTime delta_ns, std::function<void()> fn);

  /// Transport::now: steady-clock nanoseconds.
  static SimTime now();

  /// The loop the automaton runs on: fds watched here are read on the
  /// automaton thread, and connections opened here are served by it.
  EventLoop& event_loop() { return loop_; }

 private:
  /// One inbound message: still-serialized (`frame`) or an in-memory
  /// object (`message`).
  struct Inbound {
    NodeId from;
    erasure::Buffer frame;
    sim::MessagePtr message;
    SimTime enqueued_at;  // 0 unless phase.queue_wait_ns is recorded
  };

  void enqueue(Inbound in);
  /// Dispatches the whole inbox batch.
  void drain_inbox();
  void deliver(NodeId from, sim::MessagePtr message);
  /// The after-round hook: the inbox batch if one is due, the fixpoint if
  /// the round dispatched, then the post-batch hook.
  void end_round();
  void collect_garbage();
  void checkpoint();
  /// try_deserialize_message, timed; null (logged) for a malformed frame.
  sim::MessagePtr decode(NodeId from, erasure::Buffer frame);
  void trace_deliver(NodeId from, const sim::Message& message);

  const NodeId id_;
  const std::chrono::milliseconds gc_period_;
  const std::chrono::milliseconds snapshot_period_;
  std::function<void()> post_batch_;
  Server* server_ = nullptr;  // set by start()

  std::mutex inbox_mu_;
  std::vector<Inbound> inbox_;
  bool inbox_open_ = false;  // guarded by inbox_mu_; false while stopped

  // Loop thread only.
  bool inbox_due_ = false;  // a batch's task ran: drain at the round's end
  std::vector<Inbound> draining_;
  std::size_t unsettled_ = 0;  // dispatched this round
  /// Node-local arena recycling, installed on the loop thread.
  erasure::BufferPool pool_;

  // Instrumentation (null when the hooks are off).
  obs::Tracer* tracer_ = nullptr;
  obs::Histogram* m_queue_wait_ = nullptr;
  obs::Histogram* m_deserialize_ = nullptr;
  obs::Histogram* m_serialize_ = nullptr;
  obs::Gauge* m_mailbox_depth_ = nullptr;

  EventLoop loop_;  // declared last: its thread uses every member above
};

}  // namespace causalec::runtime
