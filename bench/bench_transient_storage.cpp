// E4 -- Sec. 4.2 transient storage: the history-list overhead under a
// Poisson write workload, as a function of the per-object write rate rho_w
// and the garbage-collection period T_gc.
//
// The residency model (DESIGN.md §2, note 12). A superseded version leaves
// a server in the step that lifts max(S) past it. Once the next write is
// made, every server holds it after one link latency d, a storing server
// has encoded it after at most an internal read (2d) more, announces it at
// its next tick (< T_gc), and a non-storing server answers with max(U) in
// the step that raises it, which reaches everyone after 2d more: a
// superseded version outlives the write that superseded it by at most
// T_gc + 5d. Only the newest version waits longer, for the tick that
// collects the encoded version. So the mean history payload per server is
// at most
//   overhead <= (rho_w * (T_gc + 5d) + 1) * B.
// The paper's full version bounds it by about 3 * B * rho_w * T_gc, the
// residency of a version collected only at ticks.
//
// We drive one object with Poisson writes, sample per-server history bytes,
// and print measured overhead (units of B) against the residency model.
// --check exits 1 when any cell's mean exceeds the model (the
// transient_storage_smoke CTest entry).
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "causalec/cluster.h"
#include "common/random.h"
#include "erasure/codes.h"
#include "obs/bench_report.h"
#include "sim/latency.h"

using namespace causalec;
using erasure::Value;
using sim::kMillisecond;
using sim::kSecond;

namespace {

struct Sampled {
  double avg_history_B = 0;  // mean history payload per server, units of B
  double peak_history_B = 0;
};

constexpr SimTime kLinkLatency = 10 * kMillisecond;

Sampled run(double rho_w_hz, SimTime gc_period, std::uint64_t seed,
            SimTime horizon, SimTime warmup) {
  constexpr std::size_t kValueBytes = 1024;
  ClusterConfig config;
  config.gc_period = gc_period;
  config.seed = seed;
  auto cluster = std::make_unique<Cluster>(
      erasure::make_systematic_rs(5, 3, kValueBytes),
      std::make_unique<sim::ConstantLatency>(kLinkLatency), config);

  // Poisson writes to object 0 from a client at server 0.
  Rng rng(seed);
  auto& sim = cluster->sim();
  Client& writer = cluster->make_client(0);
  std::function<void()> write_loop = [&] {
    if (sim.now() >= horizon) return;
    writer.write(0, Value(kValueBytes, static_cast<std::uint8_t>(
                                           rng.next_u64())));
    sim.schedule_after(
        static_cast<SimTime>(rng.next_exponential(rho_w_hz) * 1e9),
        write_loop);
  };
  sim.schedule_after(
      static_cast<SimTime>(rng.next_exponential(rho_w_hz) * 1e9), write_loop);

  // Sample history payload every 50 ms, discarding a warmup window.
  Sampled sampled;
  std::uint64_t samples = 0;
  double sum = 0, peak = 0;
  sim.schedule_periodic(warmup, 50 * kMillisecond, [&] {
    for (NodeId s = 0; s < cluster->num_servers(); ++s) {
      const double b = static_cast<double>(
                           cluster->server(s).storage().history_bytes) /
                       kValueBytes;
      sum += b;
      peak = std::max(peak, b);
      ++samples;
    }
  }, horizon);

  cluster->run_for(horizon);
  sampled.avg_history_B = sum / static_cast<double>(samples);
  sampled.peak_history_B = peak;
  return sampled;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: one tiny configuration on a short horizon, for the
  // bench_json_smoke CTest entry.
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const bool check = argc > 1 && std::strcmp(argv[1], "--check") == 0;
  const SimTime horizon = smoke ? 8 * kSecond : 60 * kSecond;
  const SimTime warmup = smoke ? 2 * kSecond : 10 * kSecond;
  const std::vector<double> rhos =
      smoke ? std::vector<double>{4.0} : std::vector<double>{1.0, 4.0, 16.0};
  const std::vector<SimTime> gcs =
      smoke ? std::vector<SimTime>{200 * kMillisecond}
            : std::vector<SimTime>{100 * kMillisecond, 500 * kMillisecond,
                                   2 * kSecond};

  std::printf("E4: Sec. 4.2 transient storage overhead of history lists\n");
  std::printf("RS(5,3), B = 1 KiB, Poisson writes to one object, %lld s "
              "simulated\n\n", static_cast<long long>(horizon / kSecond));
  std::printf("%10s %10s | %14s %14s | %18s\n", "rho_w /s", "T_gc s",
              "avg hist (B)", "peak hist (B)", "model rho(Tgc+5d)+1");

  obs::BenchReport report("transient_storage");
  report.set_config("code", "RS(5,3)");
  report.set_config("value_bytes", std::size_t{1024});
  report.set_config("horizon_s", static_cast<double>(horizon) / 1e9);
  report.set_config("smoke", smoke);

  std::uint64_t seed = 1000;
  int over_model = 0;
  for (double rho : rhos) {
    for (SimTime gc : gcs) {
      const Sampled s = run(rho, gc, seed++, horizon, warmup);
      const double model =
          rho * static_cast<double>(gc + 5 * kLinkLatency) / 1e9 + 1.0;
      if (s.avg_history_B > model) ++over_model;
      std::printf("%10.1f %10.1f | %14.2f %14.2f | %18.2f%s\n", rho,
                  static_cast<double>(gc) / 1e9, s.avg_history_B,
                  s.peak_history_B, model,
                  s.avg_history_B > model ? "  OVER" : "");
      char name[64];
      std::snprintf(name, sizeof(name), "rho=%.1f,tgc_ms=%lld", rho,
                    static_cast<long long>(gc / kMillisecond));
      report.add_row(name)
          .metric("rho_w_hz", rho)
          .metric("tgc_s", static_cast<double>(gc) / 1e9)
          .metric("avg_history_B", s.avg_history_B)
          .metric("peak_history_B", s.peak_history_B)
          .metric("model_B", model);
    }
  }
  report.write_default();
  std::printf("\nExpected shape: measured overhead grows ~linearly in both "
              "rho_w and T_gc and\nsits at or below the rho_w*(T_gc+5d)+1 "
              "residency model, d = %lld ms: a superseded\nversion leaves "
              "when the del floor passes it, so it waits for at most one "
              "tick\n(the paper's tick-only collection waits up to three, "
              "3*rho_w*T_gc).\n",
              static_cast<long long>(kLinkLatency / kMillisecond));
  if (check && over_model > 0) {
    std::printf("FAIL: %d cell(s) above the residency model\n", over_model);
    return 1;
  }
  return 0;
}
