// FaultPlan: a fully scripted adversarial schedule for one chaos run.
//
// Everything a run needs is in the plan -- workload shape, latency model
// parameters, GC timing, and a time-ordered list of fault events -- and the
// plan itself is derived deterministically from a single seed. That makes
// every run reproducible (same plan => byte-identical history, see
// runner.h) and shrinkable (drop events / reduce the op budget and re-run).
//
// The faults stay inside the paper's model (Sec. 2.1): channels remain
// reliable and FIFO -- partitions and delay bursts only stretch delivery
// times, which the asynchronous model already allows -- and crash-stop
// failures never exceed the code's tolerated budget of n - k servers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "sim/simulation.h"

namespace causalec::chaos {

/// Workload shape for one run. The erasure code is the systematic RS code
/// over all objects (cross-object coding, K = num_objects data symbols on
/// num_servers servers), so the crash budget is num_servers - num_objects.
struct WorkloadSpec {
  std::uint32_t num_servers = 6;
  std::uint32_t num_objects = 3;  // also the code dimension K
  std::uint32_t value_bytes = 64;
  std::uint32_t sessions = 4;
  std::uint64_t ops = 200;  // total op budget across all sessions
  double write_fraction = 0.5;
  double zipf_theta = 0.99;  // 0 = uniform keys
  double think_rate_hz = 2000.0;

  bool operator==(const WorkloadSpec&) const = default;
};

struct FaultEvent {
  enum class Kind : std::uint8_t {
    kCrash,       // halt `node` at `at`
    kPartition,   // split servers by `side_mask` from `at` until
                  // `at + duration`
    kDelayBurst,  // add `extra` delay on channel (from, to) during
                  // [at, at + duration)
    kGcNow,       // force an immediate Garbage_Collection at `node`
    kCrashRecover,  // halt `node` at `at`, crash-recover it from its
                    // journal at `at + duration` (DESIGN.md §9)
  };

  Kind kind = Kind::kCrash;
  SimTime at = 0;
  NodeId node = 0;               // kCrash / kGcNow
  std::uint64_t side_mask = 0;   // kPartition: bit s => server s on side A
  SimTime duration = 0;          // kPartition / kDelayBurst
  NodeId from = 0;               // kDelayBurst
  NodeId to = 0;                 // kDelayBurst
  SimTime extra = 0;             // kDelayBurst

  bool operator==(const FaultEvent&) const = default;
};

/// Caps for FaultPlan::generate. The fuzz tool narrows these (e.g. max_ops)
/// to keep smoke runs bounded.
struct GenerateLimits {
  std::uint64_t max_ops = 300;
  std::uint32_t max_sessions = 5;
  std::size_t max_partitions = 2;
  std::size_t max_bursts = 4;
  std::size_t max_gc_pokes = 3;
  /// Crashes are additionally capped by the per-plan budget n - k.
  std::size_t max_crashes = 3;
  /// Crash-recover cycles (drawn only when the permanent crashes leave
  /// headroom in the simultaneous-down budget; downtime windows never
  /// overlap each other, so *cumulative* crashes may exceed n - k).
  std::size_t max_crash_recovers = 2;
};

struct FaultPlan {
  std::uint64_t seed = 1;
  WorkloadSpec workload;
  /// Sessions stop issuing at `horizon` (they usually exhaust the op budget
  /// first); all fault events fire before it.
  SimTime horizon = 2 * sim::kSecond;
  SimTime gc_period = 20 * sim::kMillisecond;
  SimTime gc_jitter = 0;
  /// Heavy-tailed per-message delay: base * Pareto(alpha), capped at
  /// base * cap (see sim::HeavyTailLatency).
  SimTime latency_base = sim::kMillisecond;
  double latency_alpha = 1.2;
  double latency_cap = 50.0;
  /// false = ReadFanout::kBroadcast, true = kNearestRecoverySet (exercises
  /// the footnote-14 timeout fallback under crashes).
  bool nearest_fanout = false;
  /// Time-ordered fault schedule.
  std::vector<FaultEvent> events;

  bool operator==(const FaultPlan&) const = default;

  /// Deterministically derives a plan from `seed`. Crash events never
  /// exceed the budget and never crash every server.
  static FaultPlan generate(std::uint64_t seed,
                            const GenerateLimits& limits = {});

  /// The degraded-read scenario: nearest-recovery-set fanout with the full
  /// n - k crash budget spent early in the run, so most reads after the
  /// crashes must route through repair plans (DESIGN.md §5.2) around the
  /// dead servers. The causal / session / convergence checkers must hold
  /// exactly as in any other plan.
  static FaultPlan degraded_read_scenario(std::uint64_t seed);

  /// Servers a correct run may lose: n - k.
  std::uint32_t crash_budget() const {
    return workload.num_servers - workload.num_objects;
  }
  /// Distinct nodes crashed *permanently* (kCrash) by the schedule.
  std::vector<NodeId> crashed_nodes() const;

  /// Distinct nodes that are ever down: kCrash plus kCrashRecover nodes.
  /// Clients must not home on these (their calls bypass the network).
  std::vector<NodeId> ever_down_nodes() const;

  /// Peak number of simultaneously-down servers over the schedule
  /// (interval sweep: kCrash is down forever, kCrashRecover for its
  /// duration). The paper's model only requires this to stay <= n - k;
  /// cumulative crash-recover cycles may exceed it.
  std::size_t max_simultaneous_down() const;

  /// Structural sanity (server indices in range, simultaneous downtime
  /// within budget, events inside the horizon). Generate() and from_json()
  /// outputs pass.
  bool valid() const;

  std::string to_json() const;
  static std::optional<FaultPlan> from_json(std::string_view text);
};

}  // namespace causalec::chaos
