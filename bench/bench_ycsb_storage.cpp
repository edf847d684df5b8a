// E5 -- The Sec. 4.2 YCSB storage estimate, in two parts.
//
// Part 1 (paper scale, analytic): 120M objects, Zipf 0.99, 200k req/s,
// 50% writes, T_gc = 2 min. The paper claims (i) rho_w < 1/1000 per second
// for > 95% of objects, and (ii) average storage per erasure-coded object
// of (1/k + 0.05) B when the hottest 5% are replicated instead.
//
// Part 2 (scaled, simulated): the same pipeline run end-to-end on the real
// protocol -- a GroupedStore hosting many independently coded groups on
// shared server nodes (exactly the paper's deployment model), Zipfian
// writes, measuring actual history-list residency.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "causalec/grouped_store.h"
#include "common/random.h"
#include "erasure/codes.h"
#include "obs/bench_report.h"
#include "sim/latency.h"
#include "workload/zipf.h"

using namespace causalec;
using erasure::Value;
using sim::kMillisecond;
using sim::kSecond;

namespace {

void part1_analytic(obs::BenchReport& report) {
  const double n = 120e6;
  const double theta = 0.99;
  const double total_write_rate = 200'000 * 0.5;
  const double tgc = 120.0;  // seconds
  const double k = 4;

  std::printf("Part 1 -- paper-scale analytics (120M objects, Zipf 0.99, "
              "200k req/s, 50%% writes)\n");
  const double frac_cold =
      workload::zipf_fraction_below_rate(1e-3, total_write_rate, n, theta);
  std::printf("  objects with rho_w < 1/1000 per s: %.2f%%   (paper: "
              ">95%%)\n", frac_cold * 100);

  // Replicate the hottest 5% of objects (the paper's split), erasure-code
  // the rest; history overhead per coded object ~ min(1, 3 rho_w T_gc) B
  // in expectation (residency model, log-bucketed integration over ranks).
  const double hot_cut = n * 0.05;
  double overhead_mass = 0;
  const int kBuckets = 4000;
  double prev_rank = hot_cut;
  for (int b = 1; b <= kBuckets; ++b) {
    const double rank =
        hot_cut * std::pow(n / hot_cut, static_cast<double>(b) / kBuckets);
    const double mid = 0.5 * (prev_rank + rank);
    const double count = rank - prev_rank;
    const double rate =
        workload::zipf_rate_of_rank(mid, total_write_rate, n, theta);
    overhead_mass += count * std::min(1.0, 3.0 * rate * tgc);
    prev_rank = rank;
  }
  const double coded = n - hot_cut;
  const double avg_overhead_B = overhead_mass / coded;
  std::printf("  avg storage per coded object: (1/k + %.3f) B = %.3f B at "
              "k=%.0f   (paper: (1/k + 0.05) B)\n",
              avg_overhead_B, 1.0 / k + avg_overhead_B, k);
  report.add_row("part1_analytic")
      .metric("frac_cold", frac_cold)
      .metric("avg_overhead_B", avg_overhead_B)
      .metric("avg_storage_B", 1.0 / k + avg_overhead_B)
      .note("paper", "frac_cold > 0.95, storage (1/k + 0.05) B");
}

void part2_simulated(obs::BenchReport& report) {
  // Scaled instance inside the rho_w * T_gc << 1 regime the analysis
  // assumes ("mild assumptions" / Appendix H): 48 objects in 16 RS(5,3)
  // groups sharing 5 simulated nodes.
  constexpr std::size_t kGroups = 16;
  constexpr std::size_t kPerGroup = 3;
  constexpr std::size_t kObjects = kGroups * kPerGroup;
  constexpr std::size_t kValueBytes = 512;
  constexpr std::size_t kServers = 5;
  const double total_write_rate = 2.4;  // writes per second
  const double tgc_s = 0.5;
  const SimTime horizon = 120 * kSecond;

  std::printf("\nPart 2 -- scaled simulation: %zu objects in %zu RS(5,3) "
              "groups on %zu shared nodes,\n  Zipf 0.99, %.1f writes/s "
              "total, T_gc = %.1f s, 120 s simulated\n",
              kObjects, kGroups, kServers, total_write_rate, tgc_s);

  const SimTime link_latency = 10 * kMillisecond;
  sim::Simulation sim(std::make_unique<sim::ConstantLatency>(link_latency),
                      7);
  GroupedStoreConfig config;
  for (std::size_t g = 0; g < kGroups; ++g) {
    config.group_codes.push_back(
        erasure::make_systematic_rs(kServers, kPerGroup, kValueBytes));
  }
  config.gc_period = static_cast<SimTime>(tgc_s * 1e9);
  GroupedStore store(&sim, std::move(config));
  store.arm_gc_timers();

  // Per-object Poisson write processes with Zipfian rates (identity
  // ranking), writers spread across the nodes.
  std::vector<double> rate(kObjects);
  for (std::size_t i = 0; i < kObjects; ++i) {
    rate[i] = total_write_rate *
              workload::zipf_pmf(static_cast<double>(i + 1), kObjects, 0.99);
  }
  Rng rng(777);
  for (GlobalObjectId x = 0; x < kObjects; ++x) {
    const double r = rate[x];
    const NodeId home = static_cast<NodeId>(x % kServers);
    auto loop = std::make_shared<std::function<void()>>();
    *loop = [&sim, &store, &rng, r, x, home, loop, horizon] {
      if (sim.now() >= horizon) return;
      store.write(home, /*client=*/x + 1, x, Value(kValueBytes, 1));
      sim.schedule_after(
          static_cast<SimTime>(rng.next_exponential(r) * 1e9), *loop);
    };
    sim.schedule_after(static_cast<SimTime>(rng.next_exponential(r) * 1e9),
                       *loop);
  }

  // Sample aggregated history payload after warmup.
  double history_sum_B = 0;
  std::uint64_t samples = 0;
  sim.schedule_periodic(10 * kSecond, 100 * kMillisecond, [&] {
    for (NodeId s = 0; s < kServers; ++s) {
      history_sum_B +=
          static_cast<double>(store.storage(s).history_bytes) / kValueBytes;
      ++samples;
    }
  }, horizon);
  sim.run_until(horizon);

  // Average history payload per (server, tick), normalized per object,
  // against the per-object form of the residency model (DESIGN.md §2 note
  // 12; E4 prints the dense form). A write is encoded within 3d, announced
  // at the next tick, and the del floor passes it 2d after the last
  // announcement; the tick after that drops the encoded version. So each
  // write is held until about the second tick after it, at most
  // 2*T_gc + 5d: an object written less than once per T_gc keeps no
  // version between writes, and holds rho_w*(2*T_gc + 5d) copies. A
  // busier object keeps its newest version, and each superseded one
  // leaves within T_gc + 5d of the write after it: rho_w*(T_gc + 5d) + 1.
  const double per_server_avg_B =
      history_sum_B / static_cast<double>(samples);
  const double per_object = per_server_avg_B / kObjects;
  const double d_s = static_cast<double>(link_latency) / 1e9;
  double model = 0;
  for (std::size_t i = 0; i < kObjects; ++i) {
    model += std::min(rate[i] * (2 * tgc_s + 5 * d_s),
                      rate[i] * (tgc_s + 5 * d_s) + 1.0);
  }
  model /= kObjects;
  std::printf("  measured avg history overhead: %.3f B per object per "
              "server (codeword share is 1/k = %.3f B)\n",
              per_object, 1.0 / kPerGroup);
  std::printf("  residency model min(rho_w*(2*T_gc+5d), "
              "rho_w*(T_gc+5d)+1), d = %.0f ms:\n  %.3f B per object per "
              "server\n",
              d_s * 1e3, model);
  report.add_row("part2_simulated")
      .metric("measured_overhead_B", per_object)
      .metric("model_B", model)
      .metric("codeword_share_B", 1.0 / kPerGroup);
}

}  // namespace

int main() {
  std::printf("E5: Sec. 4.2 YCSB storage estimate\n\n");
  obs::BenchReport report("ycsb_storage");
  report.set_config("part1_objects", 120e6);
  report.set_config("zipf_theta", 0.99);
  part1_analytic(report);
  part2_simulated(report);
  report.write_default();
  return 0;
}
