// The type-erased linear-code interface (Definitions 1-4 of the paper).
//
// A code C(N, K, F) assigns to each server i a linear encoding function
// Phi_i : V^K -> W_i. This interface exposes exactly the operations the
// CausalEC algorithm needs:
//   * encode          -- Phi_i applied to a full object vector
//   * reencode_batch  -- the re-encoding functions Gamma_{i,k} (Def. 4),
//                        applied to a batch of pending updates at once
//   * decode          -- the recovery functions Psi_S^{(k)} (Def. 2)
//   * recovery_sets   -- the minimal recovery sets R_k
//   * support         -- the object sets X_i (Def. 3)
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "erasure/value.h"

namespace causalec::erasure {

/// A recovery set: servers whose codeword symbols suffice to decode one
/// object. Stored sorted ascending.
using RecoverySet = std::vector<NodeId>;

/// Type-erased view of a repair plan (erasure/plan.h): enough for a
/// consumer holding a CodePtr to pick helpers and account traffic without
/// knowing the field. `fetch_*` counts only rows that actually cross the
/// network; `full_decode_*` is what the classical decode-all baseline would
/// move for the same erasure pattern.
struct RepairPlanSummary {
  std::uint32_t helper_mask = 0;   // servers to contact (may include local)
  std::uint32_t erased_mask = 0;   // the erasure pattern planned for
  std::size_t fetch_rows = 0;      // symbol rows moved over the network
  std::size_t fetch_bytes = 0;     // fetch_rows * value_bytes
  std::size_t full_decode_rows = 0;
  std::size_t full_decode_bytes = 0;
};

/// Counters of one plan cache (see erasure/plan.h). Codes without a cache
/// report all-zero stats.
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }

  PlanCacheStats& operator+=(const PlanCacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    entries += other.entries;
    return *this;
  }
};

class Code {
 public:
  virtual ~Code() = default;

  /// N: number of servers the code spans.
  virtual std::size_t num_servers() const = 0;
  /// K: number of objects the code stores.
  virtual std::size_t num_objects() const = 0;
  /// Size in bytes of one object value (all objects equal-sized, Sec. 2.2).
  virtual std::size_t value_bytes() const = 0;
  /// Size in bytes of server i's codeword symbol (0 if it stores nothing).
  virtual std::size_t symbol_bytes(NodeId server) const = 0;

  /// All-zero value / symbol of the right size.
  Value zero_value() const { return Value(value_bytes(), 0); }
  Symbol zero_symbol(NodeId server) const {
    return Symbol(symbol_bytes(server), 0);
  }

  /// Phi_i over a full object vector (values.size() == K).
  virtual Symbol encode(NodeId server, std::span<const Value> values) const = 0;

  /// One pending re-encode of a batch: object `object` goes from old_value
  /// to new_value (either may be empty = the zero vector, the paper's
  /// bold-0). The same object may appear more than once; entries compose
  /// in order.
  struct ReencodeEntry {
    ObjectId object;
    std::span<const std::uint8_t> old_value;
    std::span<const std::uint8_t> new_value;
  };

  /// Gamma_{i,k} over a batch: transform server i's symbol so that each
  /// entry's object goes from old_value to new_value, leaving all other
  /// objects untouched. A batch of one entry is a single Gamma_{i,k}.
  virtual void reencode_batch(NodeId server, Symbol& symbol,
                              std::span<const ReencodeEntry> entries) const = 0;

  /// Psi_S^{(k)}: decode object `object` from the symbols of the servers in
  /// `servers` (parallel spans). `servers` must contain a recovery set for
  /// the object; extra symbols are permitted and ignored as needed.
  virtual Value decode(ObjectId object, std::span<const NodeId> servers,
                       std::span<const Symbol> symbols) const = 0;

  /// Minimal recovery sets R_k for an object, each sorted ascending,
  /// ordered by (size, lexicographic).
  virtual const std::vector<RecoverySet>& recovery_sets(
      ObjectId object) const = 0;

  /// X_i: the objects server i's encoding function depends on (sorted).
  virtual const std::vector<ObjectId>& support(NodeId server) const = 0;

  /// True iff object is in X_i.
  virtual bool contains(NodeId server, ObjectId object) const = 0;

  /// True iff the (sorted or unsorted) server set can decode the object.
  virtual bool is_recovery_set(ObjectId object,
                               std::span<const NodeId> servers) const = 0;

  /// True iff {server} alone is a recovery set for object (local read).
  virtual bool is_local(NodeId server, ObjectId object) const = 0;

  /// Human-readable description for logs and bench tables.
  virtual std::string describe() const = 0;

  /// Decoder-plan cache counters (zero for codes without a cache).
  virtual PlanCacheStats decode_plan_cache_stats() const { return {}; }

  // -- Repair planning (erasure/plan.h) --------------------------------------

  /// Degraded read: the cheapest plan to recover `object` at reader `local`
  /// while the servers in `erased_mask` are unreachable. nullopt when the
  /// erasure pattern makes the object unrecoverable, or when the code has
  /// no repair planner.
  virtual std::optional<RepairPlanSummary> plan_object_repair(
      ObjectId object, std::uint32_t erased_mask, NodeId local) const {
    (void)object, (void)erased_mask, (void)local;
    return std::nullopt;
  }

  /// Node rebuild: the cheapest plan to reconstruct server `failed`'s whole
  /// codeword symbol while the servers in `erased_mask` (which must include
  /// `failed`) are unreachable. nullopt when no surviving helper set spans
  /// the failed symbol, or when the code has no repair planner.
  virtual std::optional<RepairPlanSummary> plan_symbol_repair(
      NodeId failed, std::uint32_t erased_mask) const {
    (void)failed, (void)erased_mask;
    return std::nullopt;
  }

  /// Execute a symbol repair: rebuild `failed`'s symbol from the helpers'
  /// symbols (parallel spans; must cover a plan_symbol_repair helper set).
  /// Codes without a repair planner CHECK-fail.
  virtual Symbol repair_symbol(NodeId failed, std::span<const NodeId> servers,
                               std::span<const Symbol> symbols) const;

  /// Repair-plan cache counters (zero for codes without a cache).
  virtual PlanCacheStats repair_plan_cache_stats() const { return {}; }
};

using CodePtr = std::shared_ptr<const Code>;

}  // namespace causalec::erasure
