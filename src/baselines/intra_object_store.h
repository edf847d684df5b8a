// The conventional intra-object erasure-coded store (Sec. 1.1's comparison
// point; the approach of [15, 29, 13, 27, 18, 22]): every object value is
// split into k fragments of B/k bytes, encoded with a systematic
// Reed-Solomon (N, k) code, one fragment per server.
//
// Writes: the coordinating server encodes and ships one fragment to every
// server (cost N * B/k), acknowledging locally. Fragment application uses
// the same vector-clock causal-apply discipline as the other stores.
//
// Reads: never local (no server holds a full value) -- the coordinator
// requests fragments from the k-1 nearest servers, combines them with its
// local fragment, and decodes once k fragments of a common version are in
// hand; version-skewed responders are re-polled until versions align.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "baselines/replicated_store.h"  // ReadDone / WriteDone aliases
#include "causalec/tag.h"
#include "erasure/code.h"
#include "sim/simulation.h"

namespace causalec::baselines {

struct IntraObjectStoreConfig {
  std::size_t num_servers = 0;
  std::size_t num_objects = 0;
  std::size_t value_bytes = 0;   // must be divisible by k
  std::size_t k = 0;             // code dimension
  /// rtt_ms[s][t] used to pick the nearest fragment holders; empty = by id.
  std::vector<std::vector<double>> rtt_ms;
  /// Re-poll interval for version-skewed responses.
  SimTime retry_ns = 20'000'000;
};

class IntraObjectStore {
 public:
  IntraObjectStore(sim::Simulation* sim, IntraObjectStoreConfig config);
  ~IntraObjectStore();

  std::size_t num_servers() const;

  /// Local-ack write at server `at`.
  Tag write(NodeId at, ObjectId object, erasure::Value value);

  /// Read at server `at`: always at least one round trip.
  void read(NodeId at, ObjectId object, ReadDone done);

  std::size_t stored_bytes(NodeId server) const;

  /// Decoder-plan cache counters of the fragment code (reads decode from k
  /// fragments on every call, so the cache hit rate here approaches 1).
  erasure::PlanCacheStats decode_plan_cache_stats() const {
    return code_->decode_plan_cache_stats();
  }

  /// Liveness feed: a down server is skipped when a coordinator picks its
  /// k-1 nearest fragment holders, so degraded reads complete on the first
  /// round instead of stalling on a dead responder's retry loop.
  void set_server_down(NodeId server, bool down);

  /// Reads whose fragment-holder pick had to route around a down server.
  std::uint64_t degraded_reads() const;

 private:
  class Node;
  IntraObjectStoreConfig config_;
  erasure::CodePtr code_;  // RS(N, k) over fragments
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace causalec::baselines
