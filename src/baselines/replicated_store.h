// Replication-based causally consistent stores (the paper's comparison
// points, Sec. 1.1 / Appendix A):
//
//  * full replication  -- every server stores every object (Ahamad et al.
//    style causal memory [4]): writes local, reads always local.
//  * partial replication -- each server stores a subset; writes still
//    propagate to every server (Appendix A: required so all servers can
//    track causality and so reads never block on specific servers); reads
//    to non-local objects are forwarded to the nearest replica (one round
//    trip).
//
// Both use the same vector-clock apply discipline as CausalEC. Note the
// Appendix A caveat: the forwarded-read variant trades the blocking reads
// of [49] for immediate service from the nearest replica; this is the
// protocol whose costs Fig. 2 charges to "partial replication".
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "causalec/inqueue.h"
#include "causalec/tag.h"
#include "erasure/value.h"
#include "sim/simulation.h"

namespace causalec::baselines {

using ReadDone = std::function<void(const erasure::Value&, const Tag&)>;
using WriteDone = std::function<void(const Tag&)>;

struct ReplicatedStoreConfig {
  /// placement[s] = objects server s stores. Full replication = all at all.
  std::vector<std::vector<ObjectId>> placement;
  std::size_t num_objects = 0;
  std::size_t value_bytes = 0;
  /// rtt_ms[s][t] used to pick the nearest replica for forwarded reads;
  /// empty = pick the lowest-id replica.
  std::vector<std::vector<double>> rtt_ms;
};

class ReplicatedStore {
 public:
  /// Registers one actor per server on the simulation (node ids must start
  /// at the simulation's current count).
  ReplicatedStore(sim::Simulation* sim, ReplicatedStoreConfig config);
  ~ReplicatedStore();

  std::size_t num_servers() const;

  /// Local write at server `at` (acknowledged synchronously).
  Tag write(NodeId at, ObjectId object, erasure::Value value);

  /// Read at server `at`: inline when the object is placed there, else one
  /// round trip to the nearest replica.
  void read(NodeId at, ObjectId object, ReadDone done);

  /// Convenience factory: full replication.
  static ReplicatedStoreConfig full_replication(std::size_t num_servers,
                                                std::size_t num_objects,
                                                std::size_t value_bytes);

  /// Per-server stored payload bytes (for storage accounting).
  std::size_t stored_bytes(NodeId server) const;

 private:
  class Node;
  ReplicatedStoreConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace causalec::baselines
