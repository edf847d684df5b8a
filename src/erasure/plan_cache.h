// Decoder plans and the per-code plan cache.
//
// Decoding object k from a provided server set S reduces to one row vector
// lambda with lambda * stacked(S) = e_k, found by Gaussian elimination.
// The lambda for a given (object, S) never changes -- the code's matrices
// are immutable -- so LinearCodeT computes it once per (object, provided-
// server mask), flattens it into a DecodePlan (only the nonzero
// coefficients, each bound to its server row), and caches it here. Every
// later read with the same shape replays the plan: pure axpy kernel calls,
// no elimination.
//
// The cache is shared-mutex guarded (reads are concurrent; an insert takes
// the exclusive lock briefly) because ThreadedCluster decodes from many
// server threads against one Code instance. A racing miss computes the
// plan twice and the first insert wins -- plans for the same key are
// identical, so this is only a little wasted work, never wrong data.
//
// LinearCodeT::set_plan_cache_enabled(false) disables caching (every
// decode then runs a fresh elimination); the differential tests use it to
// pin the cached plans against freshly computed ones.
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

/// A resolved decode recipe: apply `coeff * (row r of server s's symbol)`
/// for every step, accumulating over the field. `set_mask` records the
/// minimal recovery set the plan decodes from (a subset of the provided
/// mask it was computed for).
template <typename Elem>
struct DecodePlan {
  struct Step {
    NodeId server;
    std::uint32_t row;  // row index within the server's stacked symbol
    Elem coeff;         // nonzero
  };

  std::uint32_t set_mask = 0;
  std::vector<Step> steps;
};

template <typename Elem>
class DecodePlanCache {
 public:
  using Plan = DecodePlan<Elem>;
  using PlanPtr = std::shared_ptr<const Plan>;

  /// nullptr on miss. Counts a hit or a miss (only while enabled).
  PlanPtr find(ObjectId object, std::uint32_t provided_mask) const {
    if (!enabled()) return nullptr;
    {
      std::shared_lock lock(mu_);
      const auto it = map_.find(key(object, provided_mask));
      if (it != map_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }

  /// Inserts and returns the canonical plan for the key (the first insert
  /// wins a race; all racers computed the identical plan anyway).
  PlanPtr insert(ObjectId object, std::uint32_t provided_mask,
                 PlanPtr plan) const {
    if (!enabled()) return plan;
    std::unique_lock lock(mu_);
    const auto it = map_.emplace(key(object, provided_mask),
                                 std::move(plan)).first;
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

 private:
  static std::uint64_t key(ObjectId object, std::uint32_t mask) {
    return (static_cast<std::uint64_t>(object) << 32) | mask;
  }

  mutable std::shared_mutex mu_;
  mutable std::unordered_map<std::uint64_t, PlanPtr> map_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<bool> enabled_{true};
};

}  // namespace causalec::erasure
