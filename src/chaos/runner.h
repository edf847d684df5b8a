// Executes one FaultPlan end-to-end and gates the run with every checker:
// causal consistency (Definition 5), session guarantees (including
// writes-follow-reads), Error1/Error2 invariants, liveness of the issued
// operations, and post-heal convergence among the surviving servers.
//
// Runs are bit-deterministic: the same plan (and ChaosOptions::inject_bug
// flag) always produces the same operation history, the same NetworkStats,
// and therefore the same history_hash. The replay bundle format (bundle.h)
// and the shrinker (shrink.h) both rely on this.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "consistency/history.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "sim/simulation.h"

namespace causalec::chaos {

struct ChaosOptions {
  /// Self-test seam: run the servers with the apply-order check disabled
  /// (ServerConfig::unsafe_skip_apply_order_check). A correct harness must
  /// catch the resulting causal violations.
  bool inject_bug = false;
  /// Self-test seam for recovery: rejoining servers skip the anti-entropy
  /// catch-up round (ServerConfig::unsafe_skip_rejoin_catchup). Plans with
  /// crash_recover events must then fail the convergence / invariant
  /// checks -- proving the harness would catch a stale rejoin.
  bool inject_recovery_bug = false;
  /// Optional Chrome-trace sink for the run (replay bundles re-run the
  /// shrunk plan with this set to export a trace).
  obs::Tracer* tracer = nullptr;
};

struct RunOutcome {
  bool ok = true;
  std::vector<std::string> violations;
  /// FNV-1a over the complete operation history, the final convergence
  /// reads, and the NetworkStats -- the byte-for-byte replay fingerprint.
  std::uint64_t history_hash = 0;
  std::uint64_t ops_issued = 0;
  std::uint64_t ops_completed = 0;
  sim::NetworkStats net;
  /// The main workload history (diagnostics / determinism tests).
  consistency::History history;
  /// The per-survivor final reads used by the convergence check.
  std::vector<consistency::OpRecord> final_reads;
  /// Each server's flight-recorder tail at the end of the run (index =
  /// server id). Dumped into replay bundles so a shrunk reproducer carries
  /// the last protocol events every node saw before the failure.
  std::vector<std::vector<obs::FlightEvent>> flight;
  /// Repair-plan consumption summed across servers (DESIGN.md §5.2): reads
  /// served through a degraded fan-out, plan-cache consultations that
  /// produced a plan, and the symbol bytes those plans moved.
  std::uint64_t degraded_reads = 0;
  std::uint64_t repair_plan_hits = 0;
  std::uint64_t repair_bytes = 0;
};

/// Runs `plan` on a fresh cluster. CHECK-fails on structurally invalid
/// plans (use FaultPlan::valid() to pre-screen untrusted input).
RunOutcome run_plan(const FaultPlan& plan, const ChaosOptions& options = {});

/// The replay fingerprint: FNV-1a over every OpRecord field of `history`
/// and `final_reads`, plus the NetworkStats totals and per-type counters.
std::uint64_t hash_run(const consistency::History& history,
                       const std::vector<consistency::OpRecord>& final_reads,
                       const sim::NetworkStats& net);

}  // namespace causalec::chaos
