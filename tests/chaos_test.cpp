// Chaos harness tests: plan generation/serialization, run determinism, the
// consistency gates over adversarial schedules, and the harness self-test
// (an intentionally broken server build must be caught, shrunk to a
// minimal reproducer, and replayed byte-for-byte from its bundle).
#include <gtest/gtest.h>

#include "chaos/bundle.h"
#include "chaos/fault_plan.h"
#include "chaos/runner.h"
#include "chaos/shrink.h"
#include "sim/latency.h"

namespace causalec::chaos {
namespace {

using sim::kMillisecond;
using sim::kSecond;

TEST(FaultPlanTest, GenerationIsDeterministicAndValid) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const FaultPlan a = FaultPlan::generate(seed);
    const FaultPlan b = FaultPlan::generate(seed);
    EXPECT_EQ(a, b) << "seed " << seed;
    EXPECT_TRUE(a.valid()) << "seed " << seed;
    EXPECT_LE(a.crashed_nodes().size(), a.crash_budget()) << "seed " << seed;
    for (std::size_t i = 1; i < a.events.size(); ++i) {
      EXPECT_LE(a.events[i - 1].at, a.events[i].at) << "seed " << seed;
    }
  }
  // Different seeds diverge.
  EXPECT_NE(FaultPlan::generate(1), FaultPlan::generate(2));
}

TEST(FaultPlanTest, JsonRoundTrip) {
  for (std::uint64_t seed : {1ull, 7ull, 33ull, 1234567ull}) {
    const FaultPlan plan = FaultPlan::generate(seed);
    const std::string json = plan.to_json();
    const auto parsed = FaultPlan::from_json(json);
    ASSERT_TRUE(parsed.has_value()) << json;
    EXPECT_EQ(*parsed, plan) << "seed " << seed;
  }
}

TEST(FaultPlanTest, FromJsonRejectsMalformedInput) {
  EXPECT_FALSE(FaultPlan::from_json("").has_value());
  EXPECT_FALSE(FaultPlan::from_json("{}").has_value());
  EXPECT_FALSE(FaultPlan::from_json("{\"format\":\"nope\"}").has_value());
  // Valid JSON, but the crash schedule exceeds the budget.
  const FaultPlan plan = FaultPlan::generate(1);
  FaultPlan overloaded = plan;
  overloaded.events.clear();
  for (std::uint32_t s = 0; s < plan.workload.num_servers; ++s) {
    FaultEvent ev;
    ev.kind = FaultEvent::Kind::kCrash;
    ev.node = s;
    overloaded.events.push_back(ev);
  }
  EXPECT_FALSE(FaultPlan::from_json(overloaded.to_json()).has_value());
}

// Satellite: the determinism regression. The same seed must produce the
// identical operation history and identical NetworkStats, twice.
TEST(ChaosRunnerTest, SameSeedReproducesHistoryAndNetworkStats) {
  const FaultPlan plan = FaultPlan::generate(42);
  const RunOutcome a = run_plan(plan);
  const RunOutcome b = run_plan(plan);

  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const auto& x = a.history.ops()[i];
    const auto& y = b.history.ops()[i];
    EXPECT_EQ(x.client, y.client);
    EXPECT_EQ(x.session_seq, y.session_seq);
    EXPECT_EQ(x.is_write, y.is_write);
    EXPECT_EQ(x.object, y.object);
    EXPECT_TRUE(x.tag == y.tag);
    EXPECT_TRUE(x.timestamp == y.timestamp);
    EXPECT_EQ(x.value_hash, y.value_hash);
    EXPECT_EQ(x.invoked_at, y.invoked_at);
    EXPECT_EQ(x.responded_at, y.responded_at);
  }
  EXPECT_EQ(a.net, b.net);
  EXPECT_EQ(a.history_hash, b.history_hash);
  EXPECT_EQ(a.ops_issued, b.ops_issued);
}

TEST(ChaosRunnerTest, GeneratedPlansRunClean) {
  GenerateLimits limits;
  limits.max_ops = 120;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const FaultPlan plan = FaultPlan::generate(seed, limits);
    const RunOutcome outcome = run_plan(plan);
    EXPECT_TRUE(outcome.ok)
        << "seed " << seed << ": " << outcome.violations.front();
    EXPECT_GT(outcome.ops_completed, 0u) << "seed " << seed;
  }
}

// A chaos smoke seed run with the plan caches in their default-enabled
// state. Crashes and partitions force degraded reads through many distinct
// recovery-set shapes, so a cached plan that differed from fresh
// elimination would surface as a consistency violation here.
TEST(ChaosRunnerTest, SmokeSeedRunsCleanWithPlanCache) {
  const FaultPlan plan = FaultPlan::generate(20260806);
  const RunOutcome outcome = run_plan(plan);
  EXPECT_TRUE(outcome.ok) << outcome.violations.front();
  EXPECT_GT(outcome.ops_completed, 0u);
}

// Satellite of the repair-plan change (DESIGN.md §5.2): the degraded-read
// scenario burns the full n - k crash budget early under nearest-fanout,
// so the surviving coordinators must serve reads through repair plans for
// the rest of the run. The causal / session / convergence checkers must
// hold exactly as in a fault-free run, and the aggregated counters must
// show the plans actually carried traffic.
TEST(ChaosRunnerTest, DegradedReadScenarioStaysConsistent) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const FaultPlan plan = FaultPlan::degraded_read_scenario(seed);
    ASSERT_TRUE(plan.nearest_fanout);
    ASSERT_EQ(plan.crashed_nodes().size(), plan.crash_budget());
    const RunOutcome outcome = run_plan(plan);
    EXPECT_TRUE(outcome.ok) << "seed " << seed << ": "
                            << outcome.violations.front();
    EXPECT_GT(outcome.ops_completed, 0u) << "seed " << seed;
    EXPECT_GT(outcome.degraded_reads, 0u) << "seed " << seed;
    EXPECT_GT(outcome.repair_plan_hits, 0u) << "seed " << seed;
    EXPECT_GT(outcome.repair_bytes, 0u) << "seed " << seed;
  }
}

// Turning repair-aware fan-out off must not cost consistency either -- the
// scenario then exercises the footnote-14 timeout fallback instead, and no
// degraded-read counters move.
TEST(ChaosRunnerTest, DegradedReadScenarioHoldsWithPlansDisabled) {
  FaultPlan plan = FaultPlan::degraded_read_scenario(11);
  ChaosOptions options;
  const RunOutcome baseline = run_plan(plan, options);
  ASSERT_TRUE(baseline.ok) << baseline.violations.front();

  // Same plan, broadcast fan-out: the degraded path never engages.
  plan.nearest_fanout = false;
  const RunOutcome broadcast = run_plan(plan, options);
  EXPECT_TRUE(broadcast.ok) << broadcast.violations.front();
  EXPECT_EQ(broadcast.degraded_reads, 0u);
}

TEST(ChaosRunnerTest, PartitionHealsAndRunStaysConsistent) {
  // Hand-written schedule: no crashes, one long partition that splits the
  // cluster across a recovery-set boundary, plus a delay burst. Everything
  // must heal and converge.
  FaultPlan plan;
  plan.seed = 7;
  plan.workload.num_servers = 6;
  plan.workload.num_objects = 3;
  plan.workload.sessions = 3;
  plan.workload.ops = 60;
  FaultEvent partition;
  partition.kind = FaultEvent::Kind::kPartition;
  partition.at = 100 * kMillisecond;
  partition.side_mask = 0b000111;
  partition.duration = 400 * kMillisecond;
  plan.events.push_back(partition);
  FaultEvent burst;
  burst.kind = FaultEvent::Kind::kDelayBurst;
  burst.at = 50 * kMillisecond;
  burst.from = 0;
  burst.to = 5;
  burst.extra = 20 * kMillisecond;
  burst.duration = 200 * kMillisecond;
  plan.events.push_back(burst);
  ASSERT_TRUE(plan.valid());

  const RunOutcome outcome = run_plan(plan);
  EXPECT_TRUE(outcome.ok) << outcome.violations.front();
  EXPECT_EQ(outcome.ops_completed, 60u);
}

// The harness self-test: run the servers with the apply-order causality
// check disabled (the hidden ServerConfig seam). The checker stack must
// catch the violation, the shrinker must reduce it to a handful of
// operations, and the replay bundle must reproduce the exact run.
TEST(ChaosSelfTest, InjectedBugIsCaughtShrunkAndReplayable) {
  ChaosOptions buggy;
  buggy.inject_bug = true;

  // Seed 33 is a known in-budget reproducer (the fuzz tool finds many; the
  // test pins one so the assertion on the shrunk size is stable).
  const FaultPlan plan = FaultPlan::generate(33);
  const RunOutcome outcome = run_plan(plan, buggy);
  ASSERT_FALSE(outcome.ok) << "the injected bug went undetected";

  const ShrinkResult shrunk = shrink(plan, buggy);
  EXPECT_FALSE(shrunk.outcome.ok);
  EXPECT_LE(shrunk.plan.workload.ops, 20u)
      << "shrinking stalled at " << shrunk.plan.workload.ops << " ops";

  // Bundle round-trip.
  ReplayBundle bundle;
  bundle.plan = shrunk.plan;
  bundle.inject_bug = true;
  bundle.history_hash = shrunk.outcome.history_hash;
  bundle.violations = shrunk.outcome.violations;
  const std::string json = bundle_to_json(bundle);
  const auto parsed = bundle_from_json(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  EXPECT_EQ(parsed->plan, bundle.plan);
  EXPECT_EQ(parsed->inject_bug, true);
  EXPECT_EQ(parsed->history_hash, bundle.history_hash);
  EXPECT_EQ(parsed->violations, bundle.violations);

  // Replaying the parsed bundle reproduces the recorded run byte-for-byte.
  ChaosOptions replay_options;
  replay_options.inject_bug = parsed->inject_bug;
  const RunOutcome replayed = run_plan(parsed->plan, replay_options);
  EXPECT_EQ(replayed.history_hash, parsed->history_hash);
  EXPECT_EQ(replayed.violations, parsed->violations);
}

TEST(ChaosSelfTest, CorrectBuildPassesTheBugSeeds) {
  // The same schedules that expose the injected bug run clean on the real
  // protocol -- the failures come from the seam, not the harness.
  for (std::uint64_t seed : {33ull, 36ull, 39ull}) {
    const RunOutcome outcome = run_plan(FaultPlan::generate(seed));
    EXPECT_TRUE(outcome.ok)
        << "seed " << seed << ": " << outcome.violations.front();
  }
}

// ---------------------------------------------------------------------------
// Crash-recover schedules (DESIGN.md §9): generation keeps the
// *simultaneous* downtime within the n - k budget while cumulative
// crash-recover cycles may exceed it; the runner restores recovered nodes
// from their journals and the full checker stack gates the rejoin.
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, CrashRecoverGenerationStaysWithinDowntimeBudget) {
  std::size_t seeds_with_cr = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const FaultPlan plan = FaultPlan::generate(seed);
    EXPECT_TRUE(plan.valid()) << "seed " << seed;
    EXPECT_LE(plan.max_simultaneous_down(), plan.crash_budget())
        << "seed " << seed;
    EXPECT_LT(plan.ever_down_nodes().size(), plan.workload.num_servers)
        << "seed " << seed << ": no server left for client homes";
    for (const FaultEvent& ev : plan.events) {
      if (ev.kind != FaultEvent::Kind::kCrashRecover) continue;
      ++seeds_with_cr;
      EXPECT_GT(ev.duration, 0) << "seed " << seed;
      EXPECT_LE(ev.at + ev.duration, plan.horizon) << "seed " << seed;
      break;
    }
  }
  EXPECT_GE(seeds_with_cr, 10u)
      << "crash_recover draws became too rare to matter";
}

TEST(FaultPlanTest, CrashRecoverJsonRoundTrip) {
  // Seed 20260806 (the smoke seed) carries a crash_recover event; the
  // round-trip must preserve its node and downtime window exactly.
  const FaultPlan plan = FaultPlan::generate(20260806);
  bool has_cr = false;
  for (const FaultEvent& ev : plan.events) {
    if (ev.kind == FaultEvent::Kind::kCrashRecover) has_cr = true;
  }
  ASSERT_TRUE(has_cr) << "smoke seed lost its crash_recover event";
  const auto parsed = FaultPlan::from_json(plan.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, plan);
}

TEST(FaultPlanTest, ValidRejectsBadCrashRecoverSchedules) {
  FaultPlan base;
  base.workload.num_servers = 5;
  base.workload.num_objects = 3;
  auto cr = [](NodeId node, SimTime at, SimTime duration) {
    FaultEvent ev;
    ev.kind = FaultEvent::Kind::kCrashRecover;
    ev.node = node;
    ev.at = at;
    ev.duration = duration;
    return ev;
  };

  {  // Recovering a permanently crashed node would resurrect a corpse.
    FaultPlan plan = base;
    FaultEvent crash;
    crash.kind = FaultEvent::Kind::kCrash;
    crash.node = 4;
    crash.at = 10 * kMillisecond;
    plan.events.push_back(crash);
    plan.events.push_back(cr(4, 100 * kMillisecond, 50 * kMillisecond));
    EXPECT_FALSE(plan.valid());
  }
  {  // Overlapping windows on the same node: the second recover would fire
     // on a running server.
    FaultPlan plan = base;
    plan.events.push_back(cr(4, 100 * kMillisecond, 200 * kMillisecond));
    plan.events.push_back(cr(4, 150 * kMillisecond, 50 * kMillisecond));
    EXPECT_FALSE(plan.valid());
  }
  {  // Three nodes down at once exceeds the n - k = 2 budget.
    FaultPlan plan = base;
    plan.events.push_back(cr(2, 100 * kMillisecond, 100 * kMillisecond));
    plan.events.push_back(cr(3, 100 * kMillisecond, 100 * kMillisecond));
    plan.events.push_back(cr(4, 100 * kMillisecond, 100 * kMillisecond));
    EXPECT_FALSE(plan.valid());
  }
  {  // Zero duration and horizon overrun.
    FaultPlan plan = base;
    plan.events.push_back(cr(4, 100 * kMillisecond, 0));
    EXPECT_FALSE(plan.valid());
    plan.events.back() = cr(4, plan.horizon - kMillisecond, 5 * kMillisecond);
    EXPECT_FALSE(plan.valid());
  }
  {  // The same shapes are fine when disjoint and within budget.
    FaultPlan plan = base;
    plan.events.push_back(cr(2, 100 * kMillisecond, 100 * kMillisecond));
    plan.events.push_back(cr(3, 250 * kMillisecond, 100 * kMillisecond));
    EXPECT_TRUE(plan.valid());
  }
}

// Acceptance scenario: cumulative crashes exceed n - k (three distinct
// nodes crash-recover over the run, budget is 2) while at most one server
// is ever down at a time. The erasure-coded state survives every cycle.
TEST(ChaosRunnerTest, CumulativeCrashRecoversBeyondBudgetRunClean) {
  FaultPlan plan;
  plan.seed = 77;
  plan.workload.num_servers = 5;
  plan.workload.num_objects = 3;
  plan.workload.sessions = 2;
  plan.workload.ops = 120;
  plan.workload.think_rate_hz = 300.0;  // stretch writes across the outages
  SimTime at = 20 * kMillisecond;
  for (NodeId node : {2u, 3u, 4u}) {
    FaultEvent ev;
    ev.kind = FaultEvent::Kind::kCrashRecover;
    ev.node = node;
    ev.at = at;
    ev.duration = 80 * kMillisecond;
    plan.events.push_back(ev);
    at += 120 * kMillisecond;  // strictly after the previous recovery
  }
  ASSERT_TRUE(plan.valid());
  ASSERT_GT(plan.ever_down_nodes().size(), plan.crash_budget())
      << "the scenario must exceed the budget cumulatively";
  ASSERT_EQ(plan.max_simultaneous_down(), 1u);

  const RunOutcome outcome = run_plan(plan);
  EXPECT_TRUE(outcome.ok) << outcome.violations.front();
  EXPECT_EQ(outcome.ops_completed, plan.workload.ops);
}

// The recovery self-test: skipping the rejoin catch-up (the hidden
// ServerConfig seam) must be caught by the checker stack -- a stale
// recovered server serves old reads or keeps a behind clock -- then shrink
// to a small reproducer and replay from its bundle byte-for-byte.
TEST(ChaosSelfTest, InjectedRecoveryBugIsCaughtShrunkAndReplayable) {
  ChaosOptions buggy;
  buggy.inject_recovery_bug = true;

  // Seed 33's schedule misses writes during its crash-recover window, so a
  // skipped catch-up is observable (pinned for a stable shrink assertion).
  const FaultPlan plan = FaultPlan::generate(33);
  const RunOutcome outcome = run_plan(plan, buggy);
  ASSERT_FALSE(outcome.ok) << "the stale rejoin went undetected";

  const ShrinkResult shrunk = shrink(plan, buggy);
  EXPECT_FALSE(shrunk.outcome.ok);
  EXPECT_LE(shrunk.plan.workload.ops, 40u)
      << "shrinking stalled at " << shrunk.plan.workload.ops << " ops";
  bool kept_cr = false;
  for (const FaultEvent& ev : shrunk.plan.events) {
    if (ev.kind == FaultEvent::Kind::kCrashRecover) kept_cr = true;
  }
  EXPECT_TRUE(kept_cr)
      << "the shrunk reproducer dropped the crash_recover event";

  ReplayBundle bundle;
  bundle.plan = shrunk.plan;
  bundle.inject_recovery_bug = true;
  bundle.history_hash = shrunk.outcome.history_hash;
  bundle.violations = shrunk.outcome.violations;
  const std::string json = bundle_to_json(bundle);
  const auto parsed = bundle_from_json(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  EXPECT_EQ(parsed->plan, bundle.plan);
  EXPECT_FALSE(parsed->inject_bug);
  EXPECT_TRUE(parsed->inject_recovery_bug);

  ChaosOptions replay_options;
  replay_options.inject_recovery_bug = parsed->inject_recovery_bug;
  const RunOutcome replayed = run_plan(parsed->plan, replay_options);
  EXPECT_EQ(replayed.history_hash, parsed->history_hash);
  EXPECT_EQ(replayed.violations, parsed->violations);
}

TEST(BundleTest, RecoveryBugFlagDefaultsToFalseForOldBundles) {
  // Bundles written before the flag existed parse with it off.
  ReplayBundle bundle;
  bundle.plan = FaultPlan::generate(3);
  bundle.history_hash = 99;
  std::string json = bundle_to_json(bundle);
  const std::string needle = "\"inject_recovery_bug\":false,";
  const auto pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos) << json;
  json.erase(pos, needle.size());
  const auto parsed = bundle_from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->inject_recovery_bug);
}

TEST(BundleTest, FromJsonRejectsMalformedInput) {
  EXPECT_FALSE(bundle_from_json("").has_value());
  EXPECT_FALSE(bundle_from_json("{\"format\":\"causalec-chaos-bundle-v1\"}")
                   .has_value());
  EXPECT_FALSE(bundle_from_json("[1,2,3]").has_value());
}

}  // namespace
}  // namespace causalec::chaos
