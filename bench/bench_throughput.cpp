// E2b -- The Sec. 1.1 Little's-law throughput argument, measured.
//
// The paper: "Due to Little's law, we use the average latency as a
// proportional estimate for the average throughput... the erasure coding
// based data store is likely to have a much lower throughput (66%) of the
// replication-based scheme" -- 88.25 / 132.5 = 0.666.
//
// We run identical closed-loop client populations (read-only, uniform over
// DCs and groups, zero think time) against all three designs on the Fig. 1
// network and report measured ops/s. With closed loops, throughput is
// sessions / avg-latency, so the measured ratios reproduce the claim
// directly from live executions.
#include <cstdio>
#include <functional>
#include <memory>

#include "baselines/intra_object_store.h"
#include "baselines/replicated_store.h"
#include "causalec/cluster.h"
#include "erasure/codes.h"
#include "obs/bench_report.h"
#include "placement/rtt_matrix.h"
#include "sim/latency.h"
#include "workload/driver.h"

using namespace causalec;
using erasure::Value;
using sim::kMillisecond;
using sim::kSecond;

namespace {

constexpr std::size_t kValueBytes = 1024;
constexpr std::size_t kGroups = 4;
constexpr std::size_t kDcs = 6;
constexpr SimTime kRunFor = 60 * kSecond;
constexpr int kSessionsPerDc = 4;

struct Throughput {
  double ops_per_s = 0;
  double avg_read_ms = 0;
};

Throughput drive(sim::Simulation& sim,
                 const std::function<void(NodeId, ObjectId,
                                          std::function<void()>)>& read) {
  workload::OpMix mix;
  mix.write_fraction = 0.0;  // read-only: the latency-vs-throughput claim
  auto picker = std::make_shared<workload::KeyPicker>(kGroups, 0.0, 11);
  // Near-zero think time: sessions are always busy.
  workload::ClosedLoopDriver driver(&sim, mix, picker, /*think_rate_hz=*/1e5,
                                    13);
  for (NodeId dc = 0; dc < kDcs; ++dc) {
    for (int c = 0; c < kSessionsPerDc; ++c) {
      workload::ClosedLoopDriver::Session session;
      session.issue_write = [](ObjectId, std::function<void()> done) {
        done();
      };
      session.issue_read = [&read, dc](ObjectId g,
                                       std::function<void()> done) {
        read(dc, g, std::move(done));
      };
      driver.add_session(std::move(session));
    }
  }
  const SimTime start = sim.now();
  driver.start(start + kRunFor);
  sim.run_until(start + kRunFor + 10 * kSecond);
  Throughput out;
  const auto& stats = driver.stats();
  out.ops_per_s = static_cast<double>(stats.read_latencies.size()) /
                  (static_cast<double>(kRunFor) / 1e9);
  out.avg_read_ms = workload::DriverStats::mean_ms(stats.read_latencies);
  return out;
}

Throughput run_partial() {
  sim::Simulation sim(
      sim::MatrixLatency::from_rtt_ms(placement::six_dc_rtt_ms()), 1);
  baselines::ReplicatedStoreConfig config;
  config.num_objects = kGroups;
  config.value_bytes = kValueBytes;
  config.placement = {{0}, {1}, {0}, {1}, {3}, {2}};
  config.rtt_ms = placement::six_dc_rtt_ms();
  baselines::ReplicatedStore store(&sim, std::move(config));
  for (ObjectId g = 0; g < kGroups; ++g) {
    store.write(g % kDcs, g, Value(kValueBytes, 1));
  }
  sim.run_until_idle();
  return drive(sim, [&](NodeId dc, ObjectId g, std::function<void()> done) {
    store.read(dc, g, [done](const Value&, const Tag&) { done(); });
  });
}

Throughput run_intra() {
  sim::Simulation sim(
      sim::MatrixLatency::from_rtt_ms(placement::six_dc_rtt_ms()), 1);
  baselines::IntraObjectStoreConfig config;
  config.num_servers = kDcs;
  config.num_objects = kGroups;
  config.value_bytes = kValueBytes;
  config.k = 4;
  config.rtt_ms = placement::six_dc_rtt_ms();
  baselines::IntraObjectStore store(&sim, std::move(config));
  for (ObjectId g = 0; g < kGroups; ++g) {
    store.write(g % kDcs, g, Value(kValueBytes, 1));
  }
  sim.run_until_idle();
  return drive(sim, [&](NodeId dc, ObjectId g, std::function<void()> done) {
    store.read(dc, g, [done](const Value&, const Tag&) { done(); });
  });
}

Throughput run_causalec() {
  ClusterConfig config;
  config.gc_period = 500 * kMillisecond;
  config.server.fanout = ReadFanout::kNearestRecoverySet;
  config.proximity_matrix = placement::six_dc_rtt_ms();
  auto cluster = std::make_unique<Cluster>(
      erasure::make_six_dc_cross_object(kValueBytes),
      sim::MatrixLatency::from_rtt_ms(placement::six_dc_rtt_ms()), config);
  for (ObjectId g = 0; g < kGroups; ++g) {
    cluster->make_client(g % kDcs).write(g, Value(kValueBytes, 1));
  }
  cluster->settle();
  auto result = drive(
      cluster->sim(),
      [c = cluster.get()](NodeId dc, ObjectId g, std::function<void()> done) {
        c->make_client(dc).read(
            g,
            [done](const Value&, const Tag&, const VectorClock&) { done(); });
      });
  (void)cluster.release();  // bench exits immediately after
  return result;
}

}  // namespace

int main() {
  std::printf("E2b: Little's-law throughput (Sec. 1.1) -- %d closed-loop "
              "read sessions per DC, 60 s\n\n", kSessionsPerDc);
  std::printf("%-24s %12s %12s %14s\n", "scheme", "ops/s", "avg ms",
              "vs partial");
  const Throughput partial = run_partial();
  const Throughput intra = run_intra();
  const Throughput cross = run_causalec();
  std::printf("%-24s %12.1f %12.2f %13.0f%%\n", "partial replication",
              partial.ops_per_s, partial.avg_read_ms, 100.0);
  std::printf("%-24s %12.1f %12.2f %13.0f%%\n", "intra-object RS(6,4)",
              intra.ops_per_s, intra.avg_read_ms,
              100.0 * intra.ops_per_s / partial.ops_per_s);
  std::printf("%-24s %12.1f %12.2f %13.0f%%\n", "cross-object CausalEC",
              cross.ops_per_s, cross.avg_read_ms,
              100.0 * cross.ops_per_s / partial.ops_per_s);

  obs::BenchReport report("throughput");
  report.set_config("value_bytes", kValueBytes);
  report.set_config("sessions_per_dc", kSessionsPerDc);
  report.set_config("run_for_s", static_cast<double>(kRunFor) / 1e9);
  const auto add = [&report, &partial](const char* name,
                                       const Throughput& t) {
    report.add_row(name)
        .metric("ops_per_s", t.ops_per_s)
        .metric("avg_read_ms", t.avg_read_ms)
        .metric("vs_partial", t.ops_per_s / partial.ops_per_s);
  };
  add("partial replication", partial);
  add("intra-object RS(6,4)", intra);
  add("cross-object CausalEC", cross);
  report.write_default();
  std::printf("\npaper: intra-object throughput ~66%% of replication "
              "(88.25/132.5); cross-object ~parity.\n");
  return 0;
}
