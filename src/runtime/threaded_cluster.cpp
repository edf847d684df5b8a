#include "runtime/threaded_cluster.h"

#include <atomic>
#include <future>

#include "common/expect.h"
#include "runtime/automaton_loop.h"

namespace causalec::runtime {

/// One server node: its Server automaton driven by an AutomatonLoop thread.
/// The Server sends through the loop's outbox; each round's end hands a
/// peer's whole batch to that peer's inbox in one push.
class ThreadedCluster::Node {
 public:
  Node(NodeId id, erasure::CodePtr code, const ThreadedClusterConfig& config,
       ThreadedCluster* cluster)
      : loop_(id, config.server.obs, config.gc_period,
              config.snapshot_period),
        server_(id, std::move(code), config.server, &loop_.transport()) {
    loop_.set_peer_sink(
        [cluster, id](NodeId to,
                      std::span<AutomatonLoop::Envelope> batch) {
          CEC_CHECK(to < cluster->nodes_.size());
          Node& peer = *cluster->nodes_[to];
          // A crashed node's batch is lost with its NIC.
          if (peer.accepting()) peer.loop_.deliver(id, batch);
        },
        config.serialize_messages);
  }

  /// The loop thread goes before the Server it drives.
  ~Node() { loop_.stop(); }

  void start() { loop_.start(server_); }

  void stop() {
    accepting_.store(false, std::memory_order_release);
    loop_.stop();
  }

  bool accepting() const {
    return accepting_.load(std::memory_order_acquire);
  }

  /// Recover the node from its journal and restart its loop. Only legal
  /// while the loop is stopped: the restore runs on the caller's thread
  /// (safe -- the automaton has no other thread), and the rejoin round is
  /// the restarted loop's first task.
  void recover_and_restart() {
    server_.restore_from_journal();
    accepting_.store(true, std::memory_order_release);
    loop_.start(server_);
    loop_.post([this] { server_.begin_rejoin(); });
  }

  /// Run `fn` on the node thread and wait for its result. The answer is
  /// given inside the round; the messages the round sent leave at its end.
  template <typename Fn>
  auto call(Fn&& fn) -> decltype(fn()) {
    using Result = decltype(fn());
    std::promise<Result> promise;
    auto future = promise.get_future();
    loop_.post([&promise, fn = std::forward<Fn>(fn)]() mutable {
      promise.set_value(fn());
    });
    return future.get();
  }

  Server& server() { return server_; }
  AutomatonLoop& loop() { return loop_; }

 private:
  AutomatonLoop loop_;
  Server server_;
  /// False between stop() and recover_and_restart(): peers' batches for
  /// this node are dropped, like a dead NIC.
  std::atomic<bool> accepting_{true};
};

ThreadedCluster::ThreadedCluster(erasure::CodePtr code,
                                 ThreadedClusterConfig config)
    : code_(std::move(code)), config_(std::move(config)) {
  if (config_.obs.tracer != nullptr) {
    config_.server.obs.tracer = config_.obs.tracer;
  }
  if (config_.obs.metrics != nullptr) {
    config_.server.obs.metrics = config_.obs.metrics;
  }
  const std::size_t n = code_->num_servers();
  nodes_.reserve(n);
  for (NodeId s = 0; s < n; ++s) {
    nodes_.push_back(std::make_unique<Node>(s, code_, config_, this));
  }
  if (config_.persistence != nullptr) {
    journals_.reserve(n);
    for (NodeId s = 0; s < n; ++s) {
      std::string key = "s";
      key += std::to_string(s);
      journals_.push_back(std::make_unique<persist::Journal>(
          config_.persistence, std::move(key)));
      nodes_[s]->server().attach_journal(journals_[s].get());
    }
  }
  for (auto& node : nodes_) node->start();
}

ThreadedCluster::~ThreadedCluster() {
  for (auto& node : nodes_) node->stop();
}

std::size_t ThreadedCluster::num_servers() const { return nodes_.size(); }

void ThreadedCluster::stop_node(NodeId id) {
  CEC_CHECK(id < nodes_.size());
  CEC_CHECK_MSG(nodes_[id]->accepting(),
                "stop_node: node " << id << " is already stopped");
  nodes_[id]->stop();
}

void ThreadedCluster::start_node(NodeId id) {
  CEC_CHECK(id < nodes_.size());
  CEC_CHECK_MSG(config_.persistence != nullptr,
                "start_node requires ThreadedClusterConfig::persistence");
  CEC_CHECK_MSG(!nodes_[id]->accepting(),
                "start_node: node " << id << " is running");
  nodes_[id]->recover_and_restart();
}

bool ThreadedCluster::node_running(NodeId id) const {
  CEC_CHECK(id < nodes_.size());
  return nodes_[id]->accepting();
}

Tag ThreadedCluster::write(NodeId at, ClientId client, ObjectId object,
                           erasure::Value value) {
  CEC_CHECK(at < nodes_.size());
  CEC_CHECK_MSG(nodes_[at]->accepting(),
                "write: node " << at << " is stopped");
  const OpId opid = next_opid_.fetch_add(1);
  return nodes_[at]->call([&, opid] {
    return nodes_[at]->server().client_write(client, opid, object,
                                             std::move(value));
  });
}

std::pair<erasure::Value, Tag> ThreadedCluster::read(NodeId at,
                                                     ClientId client,
                                                     ObjectId object) {
  std::promise<std::pair<erasure::Value, Tag>> promise;
  auto future = promise.get_future();
  read_async(at, client, object,
             [&promise](erasure::Value value, Tag tag) {
               promise.set_value({std::move(value), std::move(tag)});
             });
  return future.get();
}

void ThreadedCluster::read_async(
    NodeId at, ClientId client, ObjectId object,
    std::function<void(erasure::Value, Tag)> done) {
  CEC_CHECK(at < nodes_.size());
  CEC_CHECK_MSG(nodes_[at]->accepting(),
                "read: node " << at << " is stopped");
  const OpId opid = next_opid_.fetch_add(1);
  Node* node = nodes_[at].get();
  node->loop().post([node, client, opid, object, done = std::move(done)] {
    node->server().client_read(
        client, opid, object,
        [done](const erasure::Value& value, const Tag& tag,
               const VectorClock&) { done(value, tag); });
  });
}

StorageStats ThreadedCluster::storage(NodeId at) {
  CEC_CHECK(at < nodes_.size());
  CEC_CHECK_MSG(nodes_[at]->accepting(),
                "storage: node " << at << " is stopped");
  return nodes_[at]->call([&] { return nodes_[at]->server().storage(); });
}

std::uint64_t ThreadedCluster::total_error_events() {
  std::uint64_t total = 0;
  for (auto& node : nodes_) {
    if (!node->accepting()) continue;
    total += node->call([&node_ref = *node] {
      const auto& c = node_ref.server().counters();
      return c.error1_events + c.error2_events;
    });
  }
  return total;
}

bool ThreadedCluster::await_convergence(std::chrono::milliseconds timeout) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + timeout;
  int stable_polls = 0;
  while (Clock::now() < deadline) {
    bool converged = true;
    for (NodeId s = 0; s < nodes_.size(); ++s) {
      if (!nodes_[s]->accepting()) continue;
      const StorageStats stats = storage(s);
      if (stats.history_entries != 0 || stats.inqueue_entries != 0 ||
          stats.readl_entries != 0) {
        converged = false;
        break;
      }
    }
    if (converged) {
      if (++stable_polls >= 2) return true;
    } else {
      stable_polls = 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

}  // namespace causalec::runtime
