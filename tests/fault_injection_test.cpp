// Fault-injection integration tests: crashes and adversarial delays during
// live workloads. Safety oracles: the Error1/Error2 invariants (strict
// aborts), the causal-consistency checker over completed operations, and
// last-writer-wins convergence among surviving servers.
#include <gtest/gtest.h>

#include <memory>

#include "causalec/cluster.h"
#include "chaos/fault_plan.h"
#include "chaos/runner.h"
#include "common/random.h"
#include "consistency/causal_checker.h"
#include "consistency/recorder.h"
#include "erasure/codes.h"
#include "sim/latency.h"

namespace causalec {
namespace {

using consistency::History;
using consistency::SessionRecorder;
using erasure::Value;
using sim::kMillisecond;
using sim::kSecond;

struct FaultParams {
  std::uint64_t seed;
  std::size_t n, k;
  std::size_t crashes;  // <= n - k (the tolerated budget for RS codes)
};

class FaultInjectionTest : public ::testing::TestWithParam<FaultParams> {};

TEST_P(FaultInjectionTest, CrashesMidWorkloadPreserveSafetyAndLiveness) {
  const auto& p = GetParam();
  ClusterConfig config;
  config.gc_period = 20 * kMillisecond;
  config.seed = p.seed;
  Cluster cluster(erasure::make_systematic_rs(p.n, p.k, 8),
                  std::make_unique<sim::UniformJitterLatency>(
                      8 * kMillisecond, 7 * kMillisecond, p.seed * 3 + 1),
                  config);
  History history;
  auto now = [&cluster] { return cluster.sim().now(); };

  Rng rng(p.seed);
  // Crash set: the lowest-id servers; all sessions attach to survivors.
  std::vector<std::unique_ptr<SessionRecorder>> sessions;
  for (NodeId s = static_cast<NodeId>(p.crashes); s < p.n; ++s) {
    sessions.push_back(std::make_unique<SessionRecorder>(
        &cluster.make_client(s), &history, now));
  }

  // Phase 1: healthy traffic.
  for (int op = 0; op < 80; ++op) {
    auto& session = *sessions[rng.next_below(sessions.size())];
    if (!session.busy()) {
      const ObjectId x = static_cast<ObjectId>(rng.next_below(p.k));
      if (rng.next_bool(0.5)) {
        session.write(x, Value(8, static_cast<std::uint8_t>(op)));
      } else {
        session.read(x);
      }
    }
    cluster.run_for(rng.next_below(8) * kMillisecond);
  }

  // Crash mid-flight.
  for (NodeId c = 0; c < p.crashes; ++c) cluster.halt_server(c);

  // Phase 2: traffic continues against survivors.
  for (int op = 0; op < 80; ++op) {
    auto& session = *sessions[rng.next_below(sessions.size())];
    if (!session.busy()) {
      const ObjectId x = static_cast<ObjectId>(rng.next_below(p.k));
      if (rng.next_bool(0.5)) {
        session.write(x, Value(8, static_cast<std::uint8_t>(op + 100)));
      } else {
        session.read(x);
      }
    }
    cluster.run_for(rng.next_below(8) * kMillisecond);
  }
  cluster.run_for(5 * kSecond);  // drain in-flight reads

  // Liveness: every issued read completed (crashes <= N-K, so recovery
  // sets survive among the live servers).
  for (const auto& session : sessions) {
    EXPECT_FALSE(session->busy()) << "a read never completed";
  }

  // Safety: the completed history is causally consistent.
  const auto causal = consistency::check_causal_consistency(history);
  EXPECT_TRUE(causal.ok) << causal.violations.front();
  const auto guarantees = consistency::check_session_guarantees(history);
  EXPECT_TRUE(guarantees.ok) << guarantees.violations.front();

  // Convergence among survivors: every survivor reads the LWW winner.
  History final_history;
  cluster.run_for(10 * kSecond);
  std::vector<consistency::OpRecord> finals;
  for (NodeId s = static_cast<NodeId>(p.crashes); s < p.n; ++s) {
    SessionRecorder reader(&cluster.make_client(s), &final_history, now);
    for (ObjectId x = 0; x < p.k; ++x) {
      reader.read(x);
      cluster.run_for(3 * kSecond);
    }
  }
  for (const auto& op : final_history.ops()) finals.push_back(op);
  EXPECT_EQ(finals.size(), (p.n - p.crashes) * p.k)
      << "some final read did not complete";
  const auto convergence = consistency::check_convergence(history, finals);
  EXPECT_TRUE(convergence.ok) << convergence.violations.front();

  // Invariants stayed intact at the survivors.
  for (NodeId s = static_cast<NodeId>(p.crashes); s < p.n; ++s) {
    EXPECT_EQ(cluster.server(s).counters().error1_events, 0u);
    EXPECT_EQ(cluster.server(s).counters().error2_events, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Crashes, FaultInjectionTest,
    ::testing::Values(FaultParams{21, 5, 3, 1}, FaultParams{22, 5, 3, 2},
                      FaultParams{23, 6, 4, 2}, FaultParams{24, 7, 4, 3},
                      FaultParams{25, 6, 3, 3}, FaultParams{26, 8, 5, 2}),
    [](const auto& param_info) {
      return "seed" + std::to_string(param_info.param.seed) + "_n" +
             std::to_string(param_info.param.n) + "k" +
             std::to_string(param_info.param.k) + "c" +
             std::to_string(param_info.param.crashes);
    });

TEST(FaultInjectionTest, AdversarialDelaysNeverBreakCausality) {
  // Random large per-channel delays reorder everything that FIFO allows.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ClusterConfig config;
    config.gc_period = 25 * kMillisecond;
    config.seed = seed;
    Cluster cluster(erasure::make_paper_5_3_gf256(8),
                    std::make_unique<sim::ConstantLatency>(5 * kMillisecond),
                    config);
    Rng rng(seed * 7);
    for (NodeId i = 0; i < 5; ++i) {
      for (NodeId j = 0; j < 5; ++j) {
        if (i != j && rng.next_bool(0.4)) {
          cluster.sim().add_channel_delay(
              i, j, rng.next_below(400) * kMillisecond);
        }
      }
    }
    History history;
    auto now = [&cluster] { return cluster.sim().now(); };
    std::vector<std::unique_ptr<SessionRecorder>> sessions;
    for (NodeId s = 0; s < 5; ++s) {
      sessions.push_back(std::make_unique<SessionRecorder>(
          &cluster.make_client(s), &history, now));
    }
    for (int op = 0; op < 120; ++op) {
      auto& session = *sessions[rng.next_below(sessions.size())];
      if (!session.busy()) {
        const ObjectId x = static_cast<ObjectId>(rng.next_below(3));
        if (rng.next_bool(0.5)) {
          session.write(x, Value(8, static_cast<std::uint8_t>(op)));
        } else {
          session.read(x);
        }
      }
      cluster.run_for(rng.next_below(20) * kMillisecond);
    }
    cluster.settle();
    EXPECT_TRUE(cluster.storage_converged()) << "seed " << seed;
    const auto causal = consistency::check_causal_consistency(history);
    EXPECT_TRUE(causal.ok) << "seed " << seed << ": "
                           << causal.violations.front();
  }
}

TEST(FaultInjectionTest, CrashDuringGcWindowDoesNotLoseData) {
  // Crash a server right after it announced deletions but before others
  // acted on them: survivors must still serve every object.
  ClusterConfig config;
  config.gc_period = 10 * kMillisecond;
  Cluster cluster(erasure::make_systematic_rs(6, 4, 8),
                  std::make_unique<sim::ConstantLatency>(5 * kMillisecond),
                  config);
  auto& writer = cluster.make_client(0);
  const Tag t = writer.write(1, Value(8, 42));
  cluster.run_for(35 * kMillisecond);  // mid-GC: dels in flight
  cluster.halt_server(0);              // the writer's server dies
  cluster.halt_server(1);
  cluster.run_for(kSecond);

  bool done = false;
  cluster.make_client(5).read(
      1, [&](const Value& v, const Tag& tag, const VectorClock&) {
        done = true;
        EXPECT_EQ(v, Value(8, 42));
        EXPECT_EQ(tag, t);
      });
  cluster.run_for(5 * kSecond);
  EXPECT_TRUE(done);
}

// ---------------------------------------------------------------------------
// FaultPlan-driven crashes: the same scenarios as above, but scripted
// through the chaos harness's scheduling API and gated by its full checker
// stack (causal, session guarantees incl. writes-follow-reads, Error1/2,
// convergence among survivors).
// ---------------------------------------------------------------------------

struct PlanParams {
  std::uint64_t seed;
  std::uint32_t n, k;
  std::vector<NodeId> crash_nodes;  // |crash_nodes| <= n - k
  bool nearest_fanout;
};

class FaultPlanDrivenTest : public ::testing::TestWithParam<PlanParams> {};

TEST_P(FaultPlanDrivenTest, ScriptedCrashesPreserveEveryGuarantee) {
  const auto& p = GetParam();
  chaos::FaultPlan plan;
  plan.seed = p.seed;
  plan.workload.num_servers = p.n;
  plan.workload.num_objects = p.k;
  plan.workload.sessions = 3;
  plan.workload.ops = 90;
  plan.nearest_fanout = p.nearest_fanout;
  SimTime at = 30 * kMillisecond;
  for (NodeId node : p.crash_nodes) {
    chaos::FaultEvent ev;
    ev.kind = chaos::FaultEvent::Kind::kCrash;
    ev.at = at;
    ev.node = node;
    plan.events.push_back(ev);
    at += 40 * kMillisecond;  // staggered, mid-workload
  }
  ASSERT_TRUE(plan.valid());
  ASSERT_LE(plan.crashed_nodes().size(), plan.crash_budget());

  const chaos::RunOutcome outcome = chaos::run_plan(plan);
  EXPECT_TRUE(outcome.ok) << outcome.violations.front();
  EXPECT_EQ(outcome.ops_completed, plan.workload.ops);
}

INSTANTIATE_TEST_SUITE_P(
    ScriptedCrashes, FaultPlanDrivenTest,
    ::testing::Values(PlanParams{101, 5, 3, {0}, false},
                      PlanParams{102, 5, 3, {4, 2}, false},
                      PlanParams{103, 6, 3, {0, 1, 2}, false},
                      PlanParams{104, 7, 4, {6, 0}, true},
                      PlanParams{105, 6, 4, {3}, true}),
    [](const auto& test_info) {
      const PlanParams& p = test_info.param;
      return "seed" + std::to_string(p.seed) + "_n" + std::to_string(p.n) +
             "k" + std::to_string(p.k) + "c" +
             std::to_string(p.crash_nodes.size()) +
             (p.nearest_fanout ? "_nearest" : "_broadcast");
    });

TEST(FaultInjectionTest, CrashedRecoverySetMemberTriggersBroadcastFallback) {
  // Footnote 14: a read under ReadFanout::kNearestRecoverySet contacts the
  // closest recovery set first. Crash that set's serving member while the
  // inquiry is in flight: the read must NOT hang -- after fanout_timeout it
  // restarts as a broadcast and decodes from the remaining servers.
  ClusterConfig config;
  config.gc_period = 10 * kMillisecond;
  config.server.fanout = ReadFanout::kNearestRecoverySet;
  // Proximity row of server 5 makes server 1 (which stores X1 uncoded, so
  // the minimal recovery set {1} wins) the closest helper by a clear
  // margin; servers 3/4 are "far".
  config.proximity_matrix.assign(6, std::vector<double>(6, 0.0));
  for (NodeId i = 0; i < 6; ++i) {
    for (NodeId j = 0; j < 6; ++j) {
      config.proximity_matrix[i][j] = (i == j) ? 0.0 : 1.0 + j;
    }
  }
  config.proximity_matrix[5] = {1.0, 1.1, 1.2, 9.0, 9.5, 0.0};
  Cluster cluster(erasure::make_systematic_rs(6, 3, 8),
                  std::make_unique<sim::ConstantLatency>(5 * kMillisecond),
                  config);

  // Write X1, then settle: GC prunes every history list, so the follow-up
  // read at the parity server 5 must take the remote-inquiry path.
  auto& writer = cluster.make_client(1);
  const Tag written = writer.write(1, Value(8, 77));
  cluster.settle();
  ASSERT_TRUE(cluster.storage_converged());

  const SimTime started = cluster.sim().now();
  bool done = false;
  SimTime completed_at = 0;
  cluster.make_client(5).read(
      1, [&](const Value& v, const Tag& tag, const VectorClock&) {
        done = true;
        completed_at = cluster.sim().now();
        EXPECT_EQ(v, Value(8, 77));
        EXPECT_EQ(tag, written);
      });
  ASSERT_FALSE(done) << "read was served locally; the scenario needs the "
                        "remote path";
  // Crash the serving member while its val_inq is in flight.
  cluster.halt_server(1);
  cluster.run_for(2 * kSecond);

  EXPECT_TRUE(done) << "read hung after its recovery set crashed";
  // The completion had to ride the timeout fallback, not the first fanout.
  EXPECT_GE(completed_at - started,
            static_cast<SimTime>(config.server.fanout_timeout_ns));
  EXPECT_GE(cluster.server(5).counters().reads_registered_remote, 1u);
  EXPECT_EQ(cluster.server(5).counters().error1_events, 0u);
  EXPECT_EQ(cluster.server(5).counters().error2_events, 0u);
}

}  // namespace
}  // namespace causalec
