// Repair plans and the per-code repair-plan cache (the openec-style
// pluggable coding-pipeline layer; ROADMAP open item 3).
//
// A decode plan (plan_cache.h) answers "how do I read object k from the
// symbols I was handed". A repair plan answers the *planning* question one
// layer up: given an erasure pattern (a set of unreachable servers), which
// surviving symbol rows should move across the network at all, and how do
// the fetched rows combine into the repair target? Two targets exist:
//
//   * object repair  -- serve a degraded read of object k at server `local`
//     while the servers in `erased_mask` are down. The plan names the
//     cheapest surviving recovery set, counting only rows `local` does not
//     already hold.
//   * symbol repair  -- rebuild server f's entire codeword symbol from a
//     helper set of survivors (node rebuild / rejoin catch-up). The plan is
//     a DAG: fetch nodes (one per helper symbol row moved) feeding axpy
//     ops (one program per row of the failed symbol), executed through the
//     runtime-dispatched gf kernels exactly like decode.
//
// Strategies are pluggable per Code instance:
//
//   * kMinimalFetch (default) -- minimize fetched rows. For an Azure-LRC
//     data failure this finds the local group (l+1 rows instead of k); for
//     MDS Reed-Solomon it degenerates to full decode, as theory demands.
//   * kFullDecode -- the classical baseline: decode everything from the
//     first surviving full-rank set, then re-encode. Benchmarks pin the
//     gap between the two.
//
// Like decode plans, repair plans are immutable once computed, so they are
// memoized in a shared-mutex cache keyed by (kind, strategy, target,
// erased-mask, local). set_repair_plan_cache_enabled(false) disables
// memoization (every lookup replans); the differential tests use it to pin
// cached plans against fresh eliminations.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "erasure/code.h"

namespace causalec::erasure {

/// How a planner trades fetch traffic against planning generality.
enum class RepairStrategy : std::uint8_t {
  kMinimalFetch = 0,  // fewest symbol rows over the wire
  kFullDecode = 1,    // decode-all-then-reencode baseline
};

/// Repair planning per Code instance: kMinimalFetch (the default), the
/// kFullDecode baseline, or kOff (consumers fall back to their pre-repair
/// behavior). Tests switch it with set_repair_mode_for_testing.
enum class RepairPlanMode : std::uint8_t { kOff, kFullDecode, kMinimalFetch };

/// One fetch node of the repair DAG: row `row` of server `server`'s symbol
/// moves to the repairing node.
struct RepairFetch {
  NodeId server;
  std::uint32_t row;

  bool operator==(const RepairFetch&) const = default;
};

/// A symbol-repair recipe: rebuild every row of the failed server's symbol
/// as a linear combination of fetched helper rows.
///   out_row[r] = sum over row_ops[r] of op.coeff * fetches[op.fetch]
template <typename Elem>
struct RepairPlan {
  struct Op {
    std::uint32_t fetch;  // index into `fetches`
    Elem coeff;           // nonzero
  };

  std::uint32_t helper_mask = 0;  // servers contributing fetches
  std::vector<RepairFetch> fetches;
  std::vector<std::vector<Op>> row_ops;  // one program per failed-symbol row
};

template <typename Elem>
class RepairPlanCache {
 public:
  using Plan = RepairPlan<Elem>;
  using PlanPtr = std::shared_ptr<const Plan>;

  /// nullopt on miss; the cached plan on a hit (which may itself be a null
  /// PlanPtr -- "no repair exists for this pattern" is a cacheable answer).
  /// Counts a hit or a miss (only while enabled).
  std::optional<PlanPtr> find(std::uint64_t key) const {
    if (!enabled()) return std::nullopt;
    {
      std::shared_lock lock(mu_);
      const auto it = map_.find(key);
      if (it != map_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }

  /// Inserts and returns the canonical plan for the key (the first insert
  /// wins a race; all racers computed the identical plan anyway). The plan
  /// may be nullptr -- "no repair exists for this pattern" is itself a
  /// cacheable answer.
  PlanPtr insert(std::uint64_t key, PlanPtr plan) const {
    if (!enabled()) return plan;
    std::unique_lock lock(mu_);
    const auto it = map_.emplace(key, std::move(plan)).first;
    return it->second;
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

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void set_enabled(bool enabled) const {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Cache key layout, shared by object and symbol lookups:
  ///   kind(1) | strategy(1) | target(8) | local(8) | erased_mask(16).
  static std::uint64_t key(bool symbol_kind, RepairStrategy strategy,
                           std::uint32_t target, std::uint32_t local,
                           std::uint32_t erased_mask) {
    return (static_cast<std::uint64_t>(symbol_kind) << 63) |
           (static_cast<std::uint64_t>(strategy) << 62) |
           (static_cast<std::uint64_t>(target & 0xFF) << 32) |
           (static_cast<std::uint64_t>(local & 0xFF) << 24) |
           static_cast<std::uint64_t>(erased_mask & 0xFFFF);
  }

 private:
  mutable std::shared_mutex mu_;
  mutable std::unordered_map<std::uint64_t, PlanPtr> map_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<bool> enabled_{true};
};

}  // namespace causalec::erasure
