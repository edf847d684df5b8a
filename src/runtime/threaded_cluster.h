// ThreadedCluster: CausalEC on real threads.
//
// The same Server automaton that runs on the discrete-event simulator,
// deployed with one AutomatonLoop thread per server node (the driver
// NodeDaemon shares): batched mailboxes as channels, wall-clock GC and
// snapshot timers, and (optionally) every message passed through the
// binary codec so real bytes cross the node boundary.
//
// The client API is thread-safe and marshals every operation onto the
// owning node's thread (the automaton itself is single-threaded by
// design). Blocking calls must not be issued from a node thread.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "causalec/config.h"
#include "causalec/server.h"
#include "erasure/code.h"
#include "persist/backend.h"
#include "persist/journal.h"

namespace causalec::runtime {

struct ThreadedClusterConfig {
  ServerConfig server;
  std::chrono::milliseconds gc_period{20};
  /// Pass every inter-node message through serialize/deserialize, so the
  /// bytes that cross the boundary are the codec's output.
  bool serialize_messages = true;

  /// Observability sinks shared by every node thread: servers record spans
  /// and server.* metrics (timestamps are steady-clock wall time), and the
  /// router records msg.send / msg.deliver events plus net.* counters.
  /// The registry and tracer are thread-safe, so one instance serves all
  /// nodes. Also copied into `server.obs`.
  obs::ObsHooks obs;

  /// When set (not owned; must outlive the cluster), every node journals
  /// accepted writes and delivered messages into this backend and
  /// checkpoints a full snapshot every snapshot_period of wall time, which
  /// is what makes stop_node()/start_node() crash-recovery possible. Null
  /// keeps nodes crash-stop.
  persist::Backend* persistence = nullptr;
  std::chrono::milliseconds snapshot_period{200};
};

class ThreadedCluster {
 public:
  explicit ThreadedCluster(erasure::CodePtr code,
                           ThreadedClusterConfig config = {});
  ~ThreadedCluster();

  ThreadedCluster(const ThreadedCluster&) = delete;
  ThreadedCluster& operator=(const ThreadedCluster&) = delete;

  std::size_t num_servers() const;

  /// Blocking write at server `at`; returns once the server acknowledged
  /// (Property (I): the server-side work is local and immediate).
  Tag write(NodeId at, ClientId client, ObjectId object,
            erasure::Value value);

  /// Blocking read at server `at`.
  std::pair<erasure::Value, Tag> read(NodeId at, ClientId client,
                                      ObjectId object);

  /// Asynchronous read; `done` fires on the node's thread.
  void read_async(NodeId at, ClientId client, ObjectId object,
                  std::function<void(erasure::Value, Tag)> done);

  /// Snapshot of a server's storage (marshalled onto its thread).
  StorageStats storage(NodeId at);

  /// Error1/Error2 counters summed over all servers (must stay 0).
  std::uint64_t total_error_events();

  /// Polls until every server's transient state (histories, queues,
  /// pending reads) is empty; false on timeout. Stopped nodes are skipped.
  bool await_convergence(std::chrono::milliseconds timeout);

  /// Crash a node: its thread stops and all traffic addressed to it is
  /// dropped until start_node(). Mailbox contents and pending timers die
  /// with the crash, as they would on a real machine.
  void stop_node(NodeId id);

  /// Restart a stopped node from its durable state (requires
  /// ThreadedClusterConfig::persistence): Server::restore_from_journal,
  /// restart the thread, then run the anti-entropy rejoin round on it
  /// (DESIGN.md §9).
  void start_node(NodeId id);

  /// True while the node's thread is accepting traffic.
  bool node_running(NodeId id) const;

 private:
  class Node;

  /// Channel between nodes: optionally passes through the codec.
  void route(NodeId from, NodeId to, sim::MessagePtr message);

  /// Broadcast channel: when serializing, encodes the frame once and shares
  /// the bytes across every destination mailbox.
  void multicast_route(NodeId from, std::span<const NodeId> targets,
                       const std::function<sim::MessagePtr()>& make);

  /// Per-hop observability (net.* counters, msg.send trace event).
  void note_send(NodeId from, NodeId to, const sim::Message& message);

  erasure::CodePtr code_;
  ThreadedClusterConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<persist::Journal>> journals_;
  std::atomic<OpId> next_opid_{1};
};

}  // namespace causalec::runtime
