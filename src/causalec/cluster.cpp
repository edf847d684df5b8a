#include "causalec/cluster.h"

#include <utility>

namespace causalec {

/// Adapts one server's outbound traffic onto the simulator.
class Cluster::SimTransport final : public Transport {
 public:
  SimTransport(sim::Simulation* sim, NodeId self) : sim_(sim), self_(self) {}

  void send(NodeId to, sim::MessagePtr message) override {
    sim_->send(self_, to, std::move(message));
  }

  void schedule_after(SimTime delta, std::function<void()> fn) override {
    sim_->schedule_after(delta, std::move(fn));
  }

  SimTime now() const override { return sim_->now(); }

 private:
  sim::Simulation* sim_;
  NodeId self_;
};

Cluster::Cluster(erasure::CodePtr code,
                 std::unique_ptr<sim::LatencyModel> latency,
                 ClusterConfig config)
    : code_(std::move(code)), config_(std::move(config)) {
  sim_ = std::make_unique<sim::Simulation>(std::move(latency), config_.seed);
  if (config_.obs.any()) sim_->set_obs(config_.obs);
  const std::size_t n = code_->num_servers();
  transports_.reserve(n);
  servers_.reserve(n);
  for (NodeId s = 0; s < n; ++s) {
    transports_.push_back(std::make_unique<SimTransport>(sim_.get(), s));
    ServerConfig server_config = config_.server;
    if (config_.obs.tracer != nullptr) server_config.obs.tracer = config_.obs.tracer;
    if (config_.obs.metrics != nullptr) server_config.obs.metrics = config_.obs.metrics;
    if (!config_.proximity_matrix.empty()) {
      CEC_CHECK(config_.proximity_matrix.size() == n);
      server_config.proximity = config_.proximity_matrix[s];
    }
    servers_.push_back(std::make_unique<Server>(
        s, code_, server_config, transports_.back().get()));
    const NodeId sim_id = sim_->add_node(servers_.back().get());
    CEC_CHECK(sim_id == s);
    if (config_.persistence != nullptr) {
      std::string key = "s";
      key += std::to_string(s);
      journals_.push_back(std::make_unique<persist::Journal>(
          config_.persistence, std::move(key)));
      servers_.back()->attach_journal(journals_.back().get());
    }
  }
  arm_gc_timers();
  arm_storage_sampler();
  arm_snapshot_timers();
}

Cluster::~Cluster() = default;

Server& Cluster::server(NodeId id) {
  CEC_CHECK(id < servers_.size());
  return *servers_[id];
}

const Server& Cluster::server(NodeId id) const {
  CEC_CHECK(id < servers_.size());
  return *servers_[id];
}

Client& Cluster::make_client(NodeId at_server) {
  CEC_CHECK(at_server < servers_.size());
  clients_.push_back(
      std::make_unique<Client>(next_client_id_++, servers_[at_server].get()));
  return *clients_.back();
}

void Cluster::halt_server(NodeId id) {
  CEC_CHECK(id < servers_.size());
  sim_->halt(id);
  // Fail-stop liveness feed: survivors route degraded reads around the dead
  // server through repair plans instead of timing out on it.
  for (NodeId s = 0; s < servers_.size(); ++s) {
    if (s != id && !sim_->halted(s)) servers_[s]->set_peer_down(id, true);
  }
}

void Cluster::recover_server(NodeId id) {
  CEC_CHECK(id < servers_.size());
  CEC_CHECK_MSG(config_.persistence != nullptr,
                "recover_server requires ClusterConfig::persistence");
  CEC_CHECK_MSG(sim_->halted(id), "recover_server: server " << id
                                                            << " is not down");
  sim_->restart(id);
  Server& server = *servers_[id];
  server.restore_from_journal();
  // Refresh liveness views: the rejoiner learns who is still down (its
  // symbol-repair helper set must avoid them); survivors mark it back up.
  for (NodeId s = 0; s < servers_.size(); ++s) {
    if (s == id) continue;
    server.set_peer_down(s, sim_->halted(s));
    if (!sim_->halted(s)) servers_[s]->set_peer_down(id, false);
  }
  server.begin_rejoin();
}

void Cluster::partition(const std::vector<NodeId>& side, SimTime heal_at) {
  std::vector<bool> in_side(servers_.size(), false);
  for (NodeId id : side) {
    CEC_CHECK(id < servers_.size());
    in_side[id] = true;
  }
  for (NodeId a = 0; a < servers_.size(); ++a) {
    for (NodeId b = 0; b < servers_.size(); ++b) {
      if (a != b && in_side[a] != in_side[b]) {
        sim_->block_channel(a, b, heal_at);
      }
    }
  }
}

void Cluster::run_for(SimTime duration) {
  sim_->run_until(sim_->now() + duration);
}

void Cluster::settle(std::size_t gc_rounds) {
  disarm_gc_timers();
  disarm_storage_sampler();
  disarm_snapshot_timers();
  sim_->run_until_idle();
  for (std::size_t round = 0; round < gc_rounds; ++round) {
    for (NodeId s = 0; s < servers_.size(); ++s) {
      if (!sim_->halted(s)) servers_[s]->run_garbage_collection();
    }
    sim_->run_until_idle();
  }
  arm_gc_timers();
  arm_storage_sampler();
  arm_snapshot_timers();
}

bool Cluster::storage_converged() const {
  for (NodeId s = 0; s < servers_.size(); ++s) {
    if (sim_->halted(s)) continue;
    const StorageStats stats = servers_[s]->storage();
    if (stats.history_entries != 0 || stats.inqueue_entries != 0 ||
        stats.readl_entries != 0) {
      return false;
    }
  }
  return true;
}

void Cluster::arm_gc_timers() {
  gc_timer_ids_.clear();
  for (NodeId s = 0; s < servers_.size(); ++s) {
    Server* server = servers_[s].get();
    auto* simulation = sim_.get();
    gc_timer_ids_.push_back(sim_->schedule_periodic(
        sim_->now() + config_.gc_period + s * config_.gc_stagger,
        config_.gc_period,
        [server, simulation, s] {
          if (!simulation->halted(s)) server->run_garbage_collection();
        },
        sim::Simulation::kForever, config_.gc_jitter));
  }
}

void Cluster::disarm_gc_timers() {
  for (auto id : gc_timer_ids_) sim_->cancel_timer(id);
  gc_timer_ids_.clear();
}

void Cluster::arm_snapshot_timers() {
  if (config_.persistence == nullptr) return;
  CEC_CHECK(config_.snapshot_period > 0);
  snapshot_timer_ids_.clear();
  for (NodeId s = 0; s < servers_.size(); ++s) {
    Server* server = servers_[s].get();
    auto* simulation = sim_.get();
    snapshot_timer_ids_.push_back(sim_->schedule_periodic(
        sim_->now() + config_.snapshot_period + s * config_.gc_stagger,
        config_.snapshot_period, [server, simulation, s] {
          if (!simulation->halted(s)) server->checkpoint();
        }));
  }
}

void Cluster::disarm_snapshot_timers() {
  for (auto id : snapshot_timer_ids_) sim_->cancel_timer(id);
  snapshot_timer_ids_.clear();
}

std::vector<std::string> Cluster::storage_series_columns() {
  return {"codeword_bytes", "history_bytes",  "history_entries",
          "inqueue_bytes",  "inqueue_entries", "readl_entries",
          "dell_entries"};
}

void Cluster::arm_storage_sampler() {
  if (config_.storage_series == nullptr) return;
  CEC_CHECK(config_.storage_sample_period > 0);
  CEC_CHECK(config_.storage_series->columns() == storage_series_columns());
  storage_sampler_id_ = sim_->schedule_periodic(
      sim_->now() + config_.storage_sample_period,
      config_.storage_sample_period, [this] { sample_storage(); });
}

void Cluster::disarm_storage_sampler() {
  if (storage_sampler_id_ != 0) sim_->cancel_timer(storage_sampler_id_);
  storage_sampler_id_ = 0;
}

void Cluster::sample_storage() {
  for (NodeId s = 0; s < servers_.size(); ++s) {
    if (sim_->halted(s)) continue;
    const StorageStats st = servers_[s]->storage();
    config_.storage_series->record(
        sim_->now(), s,
        {static_cast<double>(st.codeword_bytes),
         static_cast<double>(st.history_bytes),
         static_cast<double>(st.history_entries),
         static_cast<double>(st.inqueue_bytes),
         static_cast<double>(st.inqueue_entries),
         static_cast<double>(st.readl_entries),
         static_cast<double>(st.dell_entries)});
  }
}

}  // namespace causalec
