// Linear plans and the per-code plan cache.
//
// Decoding and repair reduce to the same recipe: every output row is a
// linear combination of rows fetched from helper symbols,
//   out_row[r] = sum over row_ops[r] of op.coeff * fetches[op.fetch],
// where a fetch names row `row` of server `server`'s symbol. A Plan is that
// recipe, found once by Gaussian elimination (LinearCodeT::build_plan):
//
//   * decode         -- object k from a provided server set S: one output
//     row, target e_k, over the first minimal recovery set inside S.
//   * symbol repair  -- rebuild server f's whole codeword symbol (node
//     rebuild, rejoin catch-up): one output row per row of f's symbol, over
//     a surviving helper set that spans them.
//   * object repair  -- serve a degraded read of object k at server `local`
//     while the servers in `erased_mask` are down: only the helper mask,
//     the cheapest surviving recovery set counting rows `local` does not
//     already hold. decode() does the math once the fetched symbols arrive.
//
// Repair has two strategies, both always planned (every RepairPlanSummary
// reports the one against the other):
//
//   * kMinimalFetch -- minimize fetched rows. For an Azure-LRC data failure
//     this finds the local group (l+1 rows instead of k); for MDS
//     Reed-Solomon it degenerates to full decode, as theory demands.
//   * kFullDecode -- the classical baseline: decode everything from the
//     first surviving full-rank set, then re-encode; it fetches every row of
//     that set.
//
// A plan never changes for its key -- the code's matrices are immutable --
// so LinearCodeT memoizes plans in two PlanCache instances: decode plans
// keyed by (object, provided-server mask), repair plans by (kind, strategy,
// target, local, erased mask). Reads are concurrent under a shared mutex
// because ThreadedCluster decodes from many server threads against one Code
// instance; a racing miss builds the plan twice and the first insert wins
// (the racers built identical plans, so this wastes a little work and never
// yields wrong data). A null plan -- "no repair exists for this pattern" --
// is itself a cacheable answer. LinearCodeT::set_plan_cache_enabled(false)
// disables both caches (every lookup plans afresh); the differential tests
// use it to pin cached plans against fresh eliminations.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "erasure/code.h"

namespace causalec::erasure {

/// How a repair planner trades fetch traffic against planning generality.
enum class RepairStrategy : std::uint8_t {
  kMinimalFetch = 0,  // fewest symbol rows over the wire
  kFullDecode = 1,    // decode-all-then-reencode baseline
};

/// One fetched row: row `row` of server `server`'s symbol.
struct PlanFetch {
  NodeId server;
  std::uint32_t row;

  bool operator==(const PlanFetch&) const = default;
};

template <typename Elem>
struct Plan {
  struct Op {
    std::uint32_t fetch;  // index into `fetches`
    Elem coeff;           // nonzero
  };

  std::uint32_t helper_mask = 0;         // servers the plan reads
  std::vector<PlanFetch> fetches;        // (server, row) ascending
  std::vector<std::vector<Op>> row_ops;  // one program per output row
};

template <typename Elem>
class PlanCache {
 public:
  using PlanPtr = std::shared_ptr<const Plan<Elem>>;

  /// The plan cached under `key`; on a miss, `build()` makes it and the
  /// first insert for the key wins. Counts a hit or a miss while enabled;
  /// disabled, every call builds afresh and nothing is stored.
  template <typename Build>
  PlanPtr get(std::uint64_t key, Build&& build) const {
    if (!enabled_.load(std::memory_order_relaxed)) return build();
    {
      std::shared_lock lock(mu_);
      const auto it = map_.find(key);
      if (it != map_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    PlanPtr plan = build();
    std::unique_lock lock(mu_);
    return map_.emplace(key, std::move(plan)).first->second;
  }

  PlanCacheStats stats() const {
    PlanCacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    {
      std::shared_lock lock(mu_);
      s.entries = map_.size();
    }
    return s;
  }

  void set_enabled(bool enabled) const {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

 private:
  mutable std::shared_mutex mu_;
  mutable std::unordered_map<std::uint64_t, PlanPtr> map_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<bool> enabled_{true};
};

}  // namespace causalec::erasure
