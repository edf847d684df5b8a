// AutomatonLoop: the driver thread of one Server automaton, shared by the
// in-process ThreadedCluster and the socket NodeDaemon.
//
// The paper's server is one single-threaded automaton (Algorithms 1-3)
// driven by inbound messages, internal actions and a GC timer. The loop
// runs that drive on a dedicated OS thread and owns everything around it:
//   * a two-lock swap-and-drain MPSC inbox: producers append frames under
//     `inbox_mu_` (no closure allocation, no contention with the consumer's
//     wait mutex); the loop thread swaps the whole batch out under one lock
//     acquisition, dispatches every message, and runs the Apply/Encoding
//     fixpoint once per batch instead of once per message;
//   * a FIFO task deque for everything else (client operations, liveness
//     changes, the rejoin round);
//   * the wall-clock timer list behind Transport::schedule_after/now;
//   * the GC cadence and, for a durable server, the snapshot cadence;
//   * a per-thread erasure::BufferPool, so the data path recycles arenas;
//   * the codec boundary: frames are untrusted bytes, so a malformed one
//     is logged and dropped, never fatal;
//   * instrumentation read from ServerConfig::obs: phase.queue_wait_ns,
//     phase.deserialize_ns, phase.serialize_ns, the
//     runtime.mailbox_depth.s<id> gauge and msg.deliver trace events. Null
//     hooks cost one branch per site.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "causalec/server.h"
#include "erasure/buffer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

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

  /// Runs after every drained batch (tasks, then messages and their
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
  /// decoded on the loop thread, and its payloads alias the frame.
  void deliver_frame(NodeId from, erasure::Buffer frame);

  /// Enqueue an in-memory message (a runtime that skips the codec).
  void deliver_message(NodeId from, sim::MessagePtr message);

  /// Codec frame of an outbound message, timed into phase.serialize_ns.
  /// Any thread.
  erasure::Buffer serialize(const sim::Message& message) const;

  /// Transport::schedule_after of the driven server. Call only from the
  /// loop thread, or while the loop is stopped (a restore).
  void schedule_after(SimTime delta_ns, std::function<void()> fn);

  /// Transport::now: steady-clock nanoseconds.
  static SimTime now();

 private:
  using Clock = std::chrono::steady_clock;

  /// One inbound message: still-serialized (`frame`) or an in-memory
  /// object (`message`).
  struct Inbound {
    NodeId from;
    erasure::Buffer frame;
    sim::MessagePtr message;
    SimTime enqueued_at;  // 0 unless phase.queue_wait_ns is recorded
  };

  struct Timer {
    Clock::time_point at;
    std::function<void()> fn;
  };

  void enqueue(Inbound in);
  void run();
  /// Dispatches one drained inbox batch, then runs the fixpoint once.
  void dispatch(std::vector<Inbound>& batch);
  /// try_deserialize_message, timed; null (logged) for a malformed frame.
  sim::MessagePtr decode(NodeId from, erasure::Buffer frame);
  void trace_deliver(NodeId from, const sim::Message& message);
  void fire_due_timers(Clock::time_point now);

  const NodeId id_;
  const std::chrono::milliseconds gc_period_;
  const std::chrono::milliseconds snapshot_period_;
  std::function<void()> post_batch_;
  Server* server_ = nullptr;  // set by start()

  std::mutex mu_;  // guards stop_ and tasks_; the loop thread waits on it
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = true;
  std::vector<Timer> timers_;  // loop thread only (or while stopped)

  std::mutex inbox_mu_;
  std::vector<Inbound> inbox_;
  std::atomic<bool> inbox_ready_{false};

  // Instrumentation (null when the hooks are off).
  obs::Tracer* tracer_ = nullptr;
  obs::Histogram* m_queue_wait_ = nullptr;
  obs::Histogram* m_deserialize_ = nullptr;
  obs::Histogram* m_serialize_ = nullptr;
  obs::Gauge* m_mailbox_depth_ = nullptr;

  std::thread thread_;  // declared last: it uses every member above
};

}  // namespace causalec::runtime
