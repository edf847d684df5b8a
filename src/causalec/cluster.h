// Cluster: the convenience assembly of a full CausalEC deployment on the
// discrete-event simulator -- servers, transports, garbage-collection
// timers, and client sessions. This is the primary public entry point:
//
//   auto cluster = causalec::Cluster::Builder()
//                      .code(erasure::make_paper_5_3(64))
//                      .latency_ms(10)
//                      .build();
//   auto& alice = cluster->make_client(/*at_server=*/0);
//   alice.write(0, value);
//   alice.read(0, [](const auto& v, const auto& tag, const auto&) { ... });
//   cluster->run_for(sim::kSecond);
#pragma once

#include <memory>
#include <vector>

#include "causalec/client.h"
#include "causalec/config.h"
#include "causalec/server.h"
#include "erasure/code.h"
#include "obs/sampler.h"
#include "persist/backend.h"
#include "persist/journal.h"
#include "sim/latency.h"
#include "sim/simulation.h"

namespace causalec {

struct ClusterConfig {
  ServerConfig server;
  /// Garbage_Collection firing period per server (Sec. 4.2's T_gc).
  SimTime gc_period = 50 * sim::kMillisecond;
  /// Stagger GC across servers so they do not fire in lockstep.
  SimTime gc_stagger = sim::kMillisecond;
  /// Per-firing GC jitter (uniform in [-gc_jitter, +gc_jitter], seeded from
  /// the simulation Rng). The chaos harness uses this to explore GC /
  /// re-encode interleavings; 0 keeps firings strictly periodic.
  SimTime gc_jitter = 0;
  /// When non-empty (N x N), row s becomes server s's proximity vector for
  /// ReadFanout::kNearestRecoverySet (e.g. the RTT matrix).
  std::vector<std::vector<double>> proximity_matrix;
  std::uint64_t seed = 1;

  /// Observability sinks, shared by the simulator (message events, net.*
  /// counters) and every server (spans, server.* metrics). Copied into
  /// each ServerConfig; a value set in `server.obs` directly is overridden
  /// when these are non-null.
  obs::ObsHooks obs;

  /// When set, every server's StorageStats is sampled into this series
  /// every storage_sample_period of simulated time (the Sec. 4.2 transient
  /// storage curve). Use storage_series_columns() for the column layout.
  obs::TimeSeries* storage_series = nullptr;
  SimTime storage_sample_period = 50 * sim::kMillisecond;

  /// When set (not owned; must outlive the cluster), every server journals
  /// its state into this backend -- accepted writes and dispatched messages
  /// as WAL records, full images every snapshot_period -- which is what
  /// makes recover_server() possible. Null keeps servers crash-stop.
  persist::Backend* persistence = nullptr;
  SimTime snapshot_period = 200 * sim::kMillisecond;
};

class Cluster {
 public:
  Cluster(erasure::CodePtr code, std::unique_ptr<sim::LatencyModel> latency,
          ClusterConfig config = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const erasure::Code& code() const { return *code_; }
  std::size_t num_servers() const { return servers_.size(); }

  sim::Simulation& sim() { return *sim_; }
  Server& server(NodeId id);
  const Server& server(NodeId id) const;

  /// Creates a client attached to the given server; owned by the cluster.
  Client& make_client(NodeId at_server);

  /// Crash a server (it halts; Sec. 2.1).
  void halt_server(NodeId id);

  /// Crash-recover a halted server from its durable state (requires
  /// ClusterConfig::persistence): un-halt the simulated node,
  /// Server::restore_from_journal, then start the anti-entropy rejoin
  /// round (DESIGN.md §9).
  void recover_server(NodeId id);

  /// Transient network partition: every channel between `side` and its
  /// complement (both directions) holds messages back until `heal_at`.
  /// Messages sent during the partition are delivered after it heals
  /// (channels stay reliable and FIFO -- the paper's asynchronous model
  /// allows arbitrary finite delays). Call at the partition start time.
  void partition(const std::vector<NodeId>& side, SimTime heal_at);

  /// Advance simulated time; GC timers fire along the way.
  void run_for(SimTime duration);

  /// Drain every outstanding event, firing GC rounds until the protocol
  /// quiesces (no event left, incl. enough GC to converge storage). GC
  /// timers are re-armed afterwards.
  void settle(std::size_t gc_rounds = 8);

  /// Total payload+metadata entries across servers (Theorem 4.5 checks).
  bool storage_converged() const;

  /// Column names of the rows recorded into ClusterConfig::storage_series.
  static std::vector<std::string> storage_series_columns();

 private:
  class SimTransport;

  void arm_gc_timers();
  void disarm_gc_timers();
  void arm_storage_sampler();
  void disarm_storage_sampler();
  void sample_storage();
  void arm_snapshot_timers();
  void disarm_snapshot_timers();

  erasure::CodePtr code_;
  ClusterConfig config_;
  std::unique_ptr<sim::Simulation> sim_;
  std::vector<std::unique_ptr<SimTransport>> transports_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<persist::Journal>> journals_;
  std::vector<std::uint64_t> gc_timer_ids_;
  std::vector<std::uint64_t> snapshot_timer_ids_;
  std::uint64_t storage_sampler_id_ = 0;
  ClientId next_client_id_ = 1;
};

}  // namespace causalec
