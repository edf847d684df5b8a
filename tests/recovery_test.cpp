// Crash-recovery integration tests (DESIGN.md §9): kill-restart-rejoin on
// the simulated cluster and on real threads. The oracles are the
// equivalence property (a crash+recover run converges to the same final
// store state as a fault-free run), correct reads at the recovered server
// after mid-operation restarts (read fan-out, GC, non-empty InQueue), and
// the recovery counters/metrics.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "causalec/cluster.h"
#include "erasure/codes.h"
#include "obs/metrics.h"
#include "persist/backend.h"
#include "runtime/threaded_cluster.h"
#include "sim/latency.h"

namespace causalec {
namespace {

using erasure::Value;
using sim::kMillisecond;
using sim::kSecond;

void fnv_bytes(std::uint64_t& h, const std::uint8_t* data, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
}

// Reads object `x` at `client` to completion; returns the value.
Value read_blocking(Cluster& cluster, Client& client, ObjectId x) {
  Value result;
  bool done = false;
  client.read(x, [&](const Value& v, const Tag&, const VectorClock&) {
    result = v;
    done = true;
  });
  for (int i = 0; i < 300 && !done; ++i) {
    cluster.run_for(10 * kMillisecond);
  }
  EXPECT_TRUE(done) << "read of X" << x << " never completed";
  return result;
}

// Satellite: the equivalence property. One scripted workload, run twice --
// once fault-free, once with a crash+recover of a non-home server in the
// middle -- must leave every server reading the identical final values.
// Sessions own disjoint objects, so the per-object LWW winner is fixed by
// the script and the two runs are comparable value-for-value.
//
// Returns the FNV-1a hash over (server, object, value bytes) of a full
// read-back at every server.
std::uint64_t run_equivalence_scenario(bool with_crash_recover) {
  constexpr std::size_t kN = 5, kK = 3;
  constexpr std::uint32_t kBytes = 8;
  persist::MemoryBackend backend;
  ClusterConfig config;
  config.seed = 11;
  config.gc_period = 20 * kMillisecond;
  config.persistence = &backend;
  config.snapshot_period = 60 * kMillisecond;
  Cluster cluster(erasure::make_systematic_rs(kN, kK, kBytes),
                  std::make_unique<sim::ConstantLatency>(5 * kMillisecond),
                  config);

  std::vector<Client*> owners;
  for (NodeId s = 0; s < kK; ++s) owners.push_back(&cluster.make_client(s));

  for (int round = 0; round < 20; ++round) {
    if (with_crash_recover && round == 8) cluster.halt_server(4);
    if (with_crash_recover && round == 14) cluster.recover_server(4);
    for (ObjectId x = 0; x < kK; ++x) {
      owners[x]->write(
          x, Value(kBytes, static_cast<std::uint8_t>(round * 8 + x)));
    }
    cluster.run_for(10 * kMillisecond);
  }
  cluster.settle();

  std::uint64_t h = 14695981039346656037ull;
  for (NodeId s = 0; s < kN; ++s) {
    Client& reader = cluster.make_client(s);
    for (ObjectId x = 0; x < kK; ++x) {
      const Value v = read_blocking(cluster, reader, x);
      fnv_bytes(h, reinterpret_cast<const std::uint8_t*>(&s), sizeof(s));
      fnv_bytes(h, reinterpret_cast<const std::uint8_t*>(&x), sizeof(x));
      fnv_bytes(h, v.data(), v.size());
    }
    EXPECT_EQ(cluster.server(s).counters().error1_events, 0u);
    EXPECT_EQ(cluster.server(s).counters().error2_events, 0u);
  }
  if (with_crash_recover) {
    EXPECT_EQ(cluster.server(4).counters().recoveries, 1u);
  }
  return h;
}

TEST(RecoveryEquivalenceTest, CrashRecoverRunMatchesFaultFreeFinalState) {
  const std::uint64_t fault_free = run_equivalence_scenario(false);
  const std::uint64_t crashed = run_equivalence_scenario(true);
  EXPECT_EQ(fault_free, crashed)
      << "a recovered server diverged from the fault-free final state";
}

// The basic kill-restart-rejoin round: writes before and during the
// outage; the recovered server must catch up via rejoin pushes (not by
// message replay -- those frames were dropped while it was down).
TEST(RecoveryTest, RecoveredServerCatchesUpOnMissedWrites) {
  persist::MemoryBackend backend;
  ClusterConfig config;
  config.gc_period = 20 * kMillisecond;
  config.persistence = &backend;
  config.snapshot_period = 50 * kMillisecond;
  Cluster cluster(erasure::make_systematic_rs(5, 3, 8),
                  std::make_unique<sim::ConstantLatency>(5 * kMillisecond),
                  config);
  auto& writer = cluster.make_client(0);
  writer.write(0, Value(8, 1));
  writer.write(1, Value(8, 2));
  cluster.run_for(300 * kMillisecond);  // past a snapshot checkpoint

  cluster.halt_server(4);
  writer.write(0, Value(8, 11));  // missed by server 4
  writer.write(2, Value(8, 12));
  cluster.run_for(100 * kMillisecond);

  cluster.recover_server(4);
  cluster.settle();

  const ServerCounters& counters = cluster.server(4).counters();
  EXPECT_EQ(counters.recoveries, 1u);
  EXPECT_GE(counters.rejoin_pushes_received, 1u);
  EXPECT_GT(counters.catchup_bytes, 0u);
  EXPECT_FALSE(cluster.server(4).recovering());

  Client& reader = cluster.make_client(4);
  EXPECT_EQ(read_blocking(cluster, reader, 0), Value(8, 11));
  EXPECT_EQ(read_blocking(cluster, reader, 1), Value(8, 2));
  EXPECT_EQ(read_blocking(cluster, reader, 2), Value(8, 12));
  EXPECT_EQ(counters.error1_events, 0u);
  EXPECT_EQ(counters.error2_events, 0u);
}

// Rejoin catch-up through repair plans (DESIGN.md §5.4): under
// RejoinCatchup::kRepairPlan the recovering node pulls only from the
// symbol-repair helper set instead of every peer. Runs one scripted
// crash+recover round and returns the recovered server's counters.
ServerCounters run_rejoin_catchup_scenario(RejoinCatchup mode) {
  persist::MemoryBackend backend;
  ClusterConfig config;
  config.gc_period = 20 * kMillisecond;
  config.persistence = &backend;
  config.snapshot_period = 50 * kMillisecond;
  config.server.rejoin_catchup = mode;
  // Azure-LRC(6,2,2): server 0's symbol repairs from its 3-member local
  // group, so the helper set is 3 of the 9 peers.
  Cluster cluster(erasure::make_azure_lrc_6_2_2(8),
                  std::make_unique<sim::ConstantLatency>(5 * kMillisecond),
                  config);
  auto& writer = cluster.make_client(1);
  for (ObjectId x = 0; x < 6; ++x) {
    writer.write(x, Value(8, static_cast<std::uint8_t>(1 + x)));
  }
  cluster.run_for(300 * kMillisecond);  // past a snapshot checkpoint

  cluster.halt_server(0);
  for (ObjectId x = 0; x < 6; ++x) {  // all missed by server 0
    writer.write(x, Value(8, static_cast<std::uint8_t>(101 + x)));
  }
  cluster.run_for(100 * kMillisecond);

  cluster.recover_server(0);
  cluster.settle();

  // The recovered server serves the missed writes in either mode.
  Client& reader = cluster.make_client(0);
  for (ObjectId x = 0; x < 6; ++x) {
    EXPECT_EQ(read_blocking(cluster, reader, x),
              Value(8, static_cast<std::uint8_t>(101 + x)))
        << "object " << x;
  }
  const ServerCounters& counters = cluster.server(0).counters();
  EXPECT_EQ(counters.recoveries, 1u);
  EXPECT_FALSE(cluster.server(0).recovering());
  EXPECT_EQ(counters.error1_events, 0u);
  EXPECT_EQ(counters.error2_events, 0u);
  return counters;
}

TEST(RecoveryTest, RepairPlanRejoinShrinksCatchupTraffic) {
  const ServerCounters pull_all =
      run_rejoin_catchup_scenario(RejoinCatchup::kPullAll);
  const ServerCounters repair_plan =
      run_rejoin_catchup_scenario(RejoinCatchup::kRepairPlan);

  // Pull-all pulls from every peer and never counts helper pulls.
  EXPECT_EQ(pull_all.rejoin_helper_pulls, 0u);
  EXPECT_GE(pull_all.rejoin_pushes_received, 1u);

  // Repair-plan mode pulls from the 3-member helper set only, and the
  // catch-up traffic shrinks accordingly.
  EXPECT_EQ(repair_plan.rejoin_helper_pulls, 3u);
  EXPECT_GE(repair_plan.rejoin_pushes_received, 1u);
  EXPECT_LT(repair_plan.rejoin_pushes_received,
            pull_all.rejoin_pushes_received);
  EXPECT_GT(repair_plan.catchup_bytes, 0u);
  EXPECT_LT(repair_plan.catchup_bytes, pull_all.catchup_bytes);
}

// Satellite: mid-operation restart during a read fan-out. The footnote-14
// scenario from fault_injection_test, extended with recovery: the nearest
// recovery set's serving member crashes with the val_inq in flight (the
// reader must fall back to broadcast), then the member comes back and must
// serve reads again itself.
TEST(RecoveryTest, CrashDuringReadFanoutThenRecover) {
  persist::MemoryBackend backend;
  ClusterConfig config;
  config.gc_period = 10 * kMillisecond;
  config.persistence = &backend;
  config.server.fanout = ReadFanout::kNearestRecoverySet;
  config.proximity_matrix.assign(6, std::vector<double>(6, 0.0));
  for (NodeId i = 0; i < 6; ++i) {
    for (NodeId j = 0; j < 6; ++j) {
      config.proximity_matrix[i][j] = (i == j) ? 0.0 : 1.0 + j;
    }
  }
  // Server 1 stores X1 uncoded, so {1} is server 5's closest recovery set.
  config.proximity_matrix[5] = {1.0, 1.1, 1.2, 9.0, 9.5, 0.0};
  Cluster cluster(erasure::make_systematic_rs(6, 3, 8),
                  std::make_unique<sim::ConstantLatency>(5 * kMillisecond),
                  config);

  auto& writer = cluster.make_client(1);
  const Tag written = writer.write(1, Value(8, 77));
  cluster.settle();
  ASSERT_TRUE(cluster.storage_converged());

  bool done = false;
  cluster.make_client(5).read(
      1, [&](const Value& v, const Tag& tag, const VectorClock&) {
        done = true;
        EXPECT_EQ(v, Value(8, 77));
        EXPECT_EQ(tag, written);
      });
  ASSERT_FALSE(done) << "read was served locally; the scenario needs the "
                        "remote path";
  cluster.halt_server(1);  // val_inq to server 1 is now in flight to a corpse
  cluster.run_for(2 * kSecond);
  EXPECT_TRUE(done) << "read hung after its recovery set crashed";

  // The crashed responder comes back and serves the same object again.
  cluster.recover_server(1);
  cluster.settle();
  EXPECT_EQ(cluster.server(1).counters().recoveries, 1u);
  Client& reader = cluster.make_client(1);
  EXPECT_EQ(read_blocking(cluster, reader, 1), Value(8, 77));
  EXPECT_EQ(cluster.server(1).counters().error1_events, 0u);
  EXPECT_EQ(cluster.server(1).counters().error2_events, 0u);
}

// Satellite: restart straight after a forced garbage-collection pass. The
// snapshot/WAL must capture the post-GC state (codeword re-encoded, history
// pruned, del lists advanced) such that the restart does not resurrect
// collected versions or lose the surviving ones.
TEST(RecoveryTest, CrashRightAfterForcedGcThenRecover) {
  persist::MemoryBackend backend;
  ClusterConfig config;
  config.gc_period = 15 * kMillisecond;
  config.persistence = &backend;
  config.snapshot_period = 40 * kMillisecond;
  Cluster cluster(erasure::make_systematic_rs(6, 4, 8),
                  std::make_unique<sim::ConstantLatency>(5 * kMillisecond),
                  config);
  auto& writer = cluster.make_client(0);
  writer.write(1, Value(8, 42));
  writer.write(3, Value(8, 43));
  cluster.run_for(200 * kMillisecond);

  cluster.server(2).run_garbage_collection();  // forced, then immediate crash
  cluster.halt_server(2);
  writer.write(1, Value(8, 52));  // missed
  cluster.run_for(100 * kMillisecond);

  cluster.recover_server(2);
  cluster.settle();
  EXPECT_TRUE(cluster.storage_converged());
  Client& reader = cluster.make_client(2);
  EXPECT_EQ(read_blocking(cluster, reader, 1), Value(8, 52));
  EXPECT_EQ(read_blocking(cluster, reader, 3), Value(8, 43));
  EXPECT_EQ(cluster.server(2).counters().error1_events, 0u);
  EXPECT_EQ(cluster.server(2).counters().error2_events, 0u);
}

// Satellite: restart with a non-empty InQueue. A slow channel (0 -> 3)
// keeps X0's app away from server 3, so the causally-dependent X1 write
// parks in its InQueue (snapshot must carry it). The crash then swallows
// the delayed X0 app -- only the rejoin push can supply the missing write,
// after which the parked entry applies and both objects read correctly.
TEST(RecoveryTest, CrashWithNonEmptyInQueueCatchesUpViaRejoinPush) {
  persist::MemoryBackend backend;
  ClusterConfig config;
  config.gc_period = 25 * kMillisecond;
  config.persistence = &backend;
  config.snapshot_period = 30 * kMillisecond;
  Cluster cluster(erasure::make_systematic_rs(5, 3, 8),
                  std::make_unique<sim::ConstantLatency>(5 * kMillisecond),
                  config);
  cluster.sim().add_channel_delay(0, 3, 800 * kMillisecond);

  auto& alice = cluster.make_client(0);
  alice.write(0, Value(8, 7));
  cluster.run_for(30 * kMillisecond);

  // Bob reads X0 (establishing the dependency), then writes X1: at server 3
  // the X1 app arrives before X0's and must wait in the InQueue.
  auto& bob = cluster.make_client(1);
  EXPECT_EQ(read_blocking(cluster, bob, 0), Value(8, 7));
  bob.write(1, Value(8, 9));
  cluster.run_for(60 * kMillisecond);
  ASSERT_GT(cluster.server(3).storage().inqueue_entries, 0u)
      << "scenario setup failed: server 3's InQueue should hold the X1 app";

  cluster.halt_server(3);
  cluster.run_for(kSecond);  // the delayed X0 app hits a halted node: dropped

  cluster.recover_server(3);
  cluster.settle();
  const ServerCounters& counters = cluster.server(3).counters();
  EXPECT_GE(counters.rejoin_pushes_received, 1u);
  EXPECT_GT(counters.catchup_bytes, 0u);
  Client& reader = cluster.make_client(3);
  EXPECT_EQ(read_blocking(cluster, reader, 0), Value(8, 7));
  EXPECT_EQ(read_blocking(cluster, reader, 1), Value(8, 9));
  EXPECT_EQ(counters.error1_events, 0u);
  EXPECT_EQ(counters.error2_events, 0u);
}

// Repeated crash-recover cycles of the same server: each restart replays
// from the latest checkpoint and the rejoin epoch advances.
TEST(RecoveryTest, RepeatedRecoveriesOfTheSameServer) {
  persist::MemoryBackend backend;
  ClusterConfig config;
  config.gc_period = 20 * kMillisecond;
  config.persistence = &backend;
  config.snapshot_period = 50 * kMillisecond;
  Cluster cluster(erasure::make_systematic_rs(5, 3, 8),
                  std::make_unique<sim::ConstantLatency>(5 * kMillisecond),
                  config);
  auto& writer = cluster.make_client(0);
  for (int cycle = 0; cycle < 3; ++cycle) {
    writer.write(0, Value(8, static_cast<std::uint8_t>(100 + cycle)));
    cluster.run_for(120 * kMillisecond);
    cluster.halt_server(4);
    writer.write(0, Value(8, static_cast<std::uint8_t>(200 + cycle)));
    cluster.run_for(60 * kMillisecond);
    cluster.recover_server(4);
    cluster.settle();
  }
  EXPECT_EQ(cluster.server(4).counters().recoveries, 3u);
  Client& reader = cluster.make_client(4);
  EXPECT_EQ(read_blocking(cluster, reader, 0), Value(8, 202));
  EXPECT_EQ(cluster.server(4).counters().error1_events, 0u);
  EXPECT_EQ(cluster.server(4).counters().error2_events, 0u);
}

// WAL replay must reproduce the pre-crash state exactly (DESIGN.md §9). A
// parity server that re-encoded past its last snapshot through an internal
// read must restore to the re-encoded tag: the replayed internal read gets
// its pre-crash opid, so the journaled val_resp_encoded replies complete
// it. Offsetting the opid counter before replay made those replies miss
// ReadL, left the older M.tag in place, and the next internal read raised
// Error2 because the peers had already collected that version.
TEST(RecoveryTest, ReplayReproducesReencodeThroughInternalRead) {
  persist::MemoryBackend backend;
  ClusterConfig config;
  config.gc_period = 20 * kMillisecond;
  config.persistence = &backend;
  config.snapshot_period = kSecond;
  Cluster cluster(erasure::make_systematic_rs(5, 3, 8),
                  std::make_unique<sim::ConstantLatency>(5 * kMillisecond),
                  config);
  auto& writer = cluster.make_client(0);
  writer.write(0, Value(8, 1));
  cluster.run_for(1100 * kMillisecond);  // converged; a snapshot at ~1 s
  ASSERT_TRUE(cluster.storage_converged());

  // Server 3 (parity) no longer holds the encoded X0 version in L[X0], so
  // re-encoding to the new write goes through an internal read.
  const Server& parity = cluster.server(3);
  const std::uint64_t internal_reads = parity.counters().internal_reads_started;
  const Tag written = writer.write(0, Value(8, 2));
  cluster.run_for(300 * kMillisecond);  // peers collect; no snapshot yet
  ASSERT_GT(parity.counters().internal_reads_started, internal_reads)
      << "scenario setup failed: server 3 re-encoded without an internal read";
  ASSERT_EQ(parity.codeword_tag(0), written);

  cluster.halt_server(3);
  cluster.recover_server(3);
  EXPECT_EQ(parity.codeword_tag(0), written)
      << "replay restored an older codeword version";
  cluster.settle();
  EXPECT_EQ(parity.counters().error2_events, 0u);
  EXPECT_EQ(parity.codeword_tag(0), written);
}

// Satellite: the obs wiring. server.recoveries / server.catchup_bytes /
// server.recovery_duration_ns must land in the shared registry.
TEST(RecoveryTest, RecoveryMetricsAreRecorded) {
  persist::MemoryBackend backend;
  obs::MetricsRegistry registry;
  ClusterConfig config;
  config.persistence = &backend;
  config.obs.metrics = &registry;
  Cluster cluster(erasure::make_systematic_rs(5, 3, 8),
                  std::make_unique<sim::ConstantLatency>(5 * kMillisecond),
                  config);
  auto& writer = cluster.make_client(0);
  writer.write(0, Value(8, 5));
  cluster.run_for(100 * kMillisecond);
  cluster.halt_server(4);
  writer.write(1, Value(8, 6));
  cluster.run_for(50 * kMillisecond);
  cluster.recover_server(4);
  cluster.settle();

  EXPECT_EQ(registry.counter("server.recoveries").value(), 1u);
  EXPECT_GT(registry.counter("server.catchup_bytes").value(), 0u);
  EXPECT_EQ(registry.histogram("server.recovery_duration_ns").count(), 1u);
}

// End-to-end durability through the filesystem backend: same rejoin round,
// but the snapshot + WAL actually live in files.
TEST(RecoveryTest, DirBackendEndToEnd) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cec_recovery_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    persist::DirBackend backend(dir.string());
    ClusterConfig config;
    config.persistence = &backend;
    config.snapshot_period = 50 * kMillisecond;
    Cluster cluster(erasure::make_systematic_rs(5, 3, 8),
                    std::make_unique<sim::ConstantLatency>(5 * kMillisecond),
                    config);
    auto& writer = cluster.make_client(0);
    writer.write(0, Value(8, 21));
    cluster.run_for(200 * kMillisecond);
    cluster.halt_server(3);
    writer.write(0, Value(8, 22));
    cluster.run_for(80 * kMillisecond);
    cluster.recover_server(3);
    cluster.settle();
    Client& reader = cluster.make_client(3);
    EXPECT_EQ(read_blocking(cluster, reader, 0), Value(8, 22));
    EXPECT_FALSE((*backend.get("s3.snap")).empty());
  }
  std::filesystem::remove_all(dir);
}

// The real-thread runtime: stop a node (thread dies, traffic dropped),
// write on, restart it from the journal, and require full convergence plus
// correct reads at the restarted node.
TEST(ThreadedRecoveryTest, StopStartNodeCatchesUpAndConverges) {
  persist::MemoryBackend backend;
  runtime::ThreadedClusterConfig config;
  config.gc_period = std::chrono::milliseconds(10);
  config.persistence = &backend;
  config.snapshot_period = std::chrono::milliseconds(30);
  runtime::ThreadedCluster cluster(erasure::make_systematic_rs(5, 3, 16),
                                   config);

  for (int round = 0; round < 4; ++round) {
    for (ObjectId x = 0; x < 3; ++x) {
      cluster.write(x % 3, 100 + x, x,
                    Value(16, static_cast<std::uint8_t>(round * 8 + x)));
    }
  }
  ASSERT_TRUE(cluster.await_convergence(std::chrono::seconds(20)));

  cluster.stop_node(4);
  EXPECT_FALSE(cluster.node_running(4));
  for (ObjectId x = 0; x < 3; ++x) {
    cluster.write(x % 3, 200 + x, x,
                  Value(16, static_cast<std::uint8_t>(0xA0 + x)));
  }

  cluster.start_node(4);
  EXPECT_TRUE(cluster.node_running(4));
  ASSERT_TRUE(cluster.await_convergence(std::chrono::seconds(20)));

  for (ObjectId x = 0; x < 3; ++x) {
    const auto [value, tag] = cluster.read(4, 900 + x, x);
    EXPECT_EQ(value, Value(16, static_cast<std::uint8_t>(0xA0 + x)))
        << "restarted node served a stale X" << x;
  }
  EXPECT_EQ(cluster.total_error_events(), 0u);
}

TEST(ThreadedRecoveryTest, StopStartTwiceOnDirBackend) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cec_threaded_recovery_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    persist::DirBackend backend(dir.string());
    runtime::ThreadedClusterConfig config;
    config.gc_period = std::chrono::milliseconds(10);
    config.persistence = &backend;
    config.snapshot_period = std::chrono::milliseconds(25);
    runtime::ThreadedCluster cluster(erasure::make_systematic_rs(5, 3, 8),
                                     config);
    for (int cycle = 0; cycle < 2; ++cycle) {
      cluster.write(0, 10 + cycle, 0,
                    Value(8, static_cast<std::uint8_t>(1 + cycle)));
      ASSERT_TRUE(cluster.await_convergence(std::chrono::seconds(20)));
      cluster.stop_node(3);
      cluster.write(1, 20 + cycle, 1,
                    Value(8, static_cast<std::uint8_t>(31 + cycle)));
      cluster.start_node(3);
      ASSERT_TRUE(cluster.await_convergence(std::chrono::seconds(20)));
    }
    const auto [v0, t0] = cluster.read(3, 90, 0);
    EXPECT_EQ(v0, Value(8, 2));
    const auto [v1, t1] = cluster.read(3, 91, 1);
    EXPECT_EQ(v1, Value(8, 32));
    EXPECT_EQ(cluster.total_error_events(), 0u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace causalec
