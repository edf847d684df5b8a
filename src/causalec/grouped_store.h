// GroupedStore: the Sec. 4.2 deployment model -- K objects partitioned into
// groups of k, each group erasure-coded independently with its own
// (N, k) code, all groups hosted on the same N server nodes.
//
// Each node runs one CausalEC server automaton per group; traffic of all
// groups shares the node's network identity (messages carry a group id in
// their envelope). Objects get global ids; the store routes operations to
// the owning group.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "causalec/config.h"
#include "causalec/server.h"
#include "erasure/code.h"
#include "sim/simulation.h"

namespace causalec {

/// Global object identifier across all groups.
using GlobalObjectId = std::uint64_t;

struct GroupedStoreConfig {
  /// One code per group; all codes must span the same number of servers.
  std::vector<erasure::CodePtr> group_codes;
  ServerConfig server;
  SimTime gc_period = 50 * 1'000'000;  // 50 ms
  SimTime gc_stagger = 1'000'000;      // 1 ms
};

class GroupedStore {
 public:
  /// Registers one composite actor per server node on the simulation
  /// (node ids must start at the simulation's current count).
  GroupedStore(sim::Simulation* sim, GroupedStoreConfig config);
  ~GroupedStore();

  GroupedStore(const GroupedStore&) = delete;
  GroupedStore& operator=(const GroupedStore&) = delete;

  std::size_t num_servers() const;
  std::size_t num_groups() const { return config_.group_codes.size(); }
  std::size_t num_objects() const { return total_objects_; }

  /// Group and local index of a global object id.
  std::pair<std::size_t, ObjectId> locate(GlobalObjectId object) const;

  /// Local write at server `at` (synchronous, Property (I)).
  Tag write(NodeId at, ClientId client, GlobalObjectId object,
            erasure::Value value);

  /// Read at server `at`; callback fires exactly once (possibly inline).
  void read(NodeId at, ClientId client, GlobalObjectId object,
            ReadCallback callback);

  /// Fire one Garbage_Collection round on every group of one server.
  void run_garbage_collection(NodeId server);

  /// Arm periodic GC timers for every (server, group).
  void arm_gc_timers();

  /// Aggregated storage across all groups of one server.
  StorageStats storage(NodeId server) const;

  /// Decode-plan cache counters summed over every group's code
  /// (erasure/plan.h).
  erasure::PlanCacheStats decode_plan_cache_stats() const;

  /// Repair-plan cache counters summed over every group's code.
  erasure::PlanCacheStats repair_plan_cache_stats() const;

  /// Liveness feed (mirrors Cluster): marks `peer` down/up on every group
  /// automaton of every other node, switching eligible read fan-outs onto
  /// repair plans. Repair counters aggregate via repair_counters().
  void set_peer_down(NodeId peer, bool down);

  /// (degraded_reads, repair_plan_hits, repair_bytes) summed over every
  /// group automaton of one node.
  std::array<std::uint64_t, 3> repair_counters(NodeId node) const;

  /// Direct access for tests (group-level server automaton).
  Server& server(NodeId node, std::size_t group);

 private:
  class NodeActor;
  class GroupTransport;

  sim::Simulation* sim_;
  GroupedStoreConfig config_;
  std::size_t total_objects_ = 0;
  std::vector<std::size_t> group_offset_;  // prefix sums of group sizes
  std::vector<std::unique_ptr<NodeActor>> nodes_;
  OpId next_opid_ = 1;
};

}  // namespace causalec
