// perfbench: the CausalEC benchmark program.
//
//   perfbench --workload NAME --seed S --seconds T --trace 0|1
//
// --trace 0 measures the end-to-end metrics of one workload: set-up (five
// times, median), a paced warm-up, a paced phase at the workload's fixed
// offered rate with latency timed from each op's due time, and a short
// closed-loop phase for capacity. Tails and capacity are printed but not
// part of the result: they do not repeat between runs on the reference
// host. Every op is recorded and checked.
// --trace 1 reports the per-layer ladder instead (ladder.h). The last line
// of standard output is the result object; the exit code is non-zero when
// a correctness check fails.
#include <signal.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "ladder.h"
#include "probes.h"
#include "workloads.h"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* what) {
  std::fprintf(stderr, "perfbench: %s\n", what);
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed S --seconds T "
               "--trace 0|1\nworkloads:");
  for (const auto& w : all_workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

int run_end_to_end(const WorkloadSpec& spec, std::uint64_t seed,
                   double seconds) {
  const ValueFactory values(spec.value_bytes, seed);
  const Phase warmup =
      make_phase(spec, seed, 0.2 * seconds, spec.offered_ops_per_s, true);
  const Phase paced =
      make_phase(spec, seed + 1, 0.65 * seconds, spec.offered_ops_per_s, true);
  const Phase closed = make_phase(spec, seed + 2, 0.15 * seconds, 0, false);

  // Five set-ups, each with a fresh work directory (daemons, data dirs);
  // setup_s is their median and the last one is measured.
  constexpr int kSetups = 5;
  std::vector<double> setups;
  std::unique_ptr<System> system;
  std::string work_dir;
  std::vector<OpRecord> ops;
  for (int i = 0; i < kSetups; ++i) {
    system.reset();
    if (!work_dir.empty()) remove_tree(work_dir);
    work_dir = make_work_dir(spec.name);
    ops.clear();
    const auto t0 = Clock::now();
    system = make_system(spec, values, work_dir, nullptr, &ops);
    if (system == nullptr) {
      remove_tree(work_dir);
      return 1;
    }
    setups.push_back(seconds_since(t0));
  }

  const PassResult warm = run_pass(*system, warmup, false);
  const PassResult run = run_pass(*system, paced, true);
  const PassResult cap = run_pass(*system, closed, false);
  for (const PassResult* r : {&warm, &run, &cap}) {
    ops.insert(ops.end(), r->ops.begin(), r->ops.end());
  }
  const bool correct = check_run(*system, spec, ops);
  system.reset();
  remove_tree(work_dir);

  const Summary w = summarize_chunks(run.write_us, run.write_at);
  const Summary r = summarize_chunks(run.read_us, run.read_at);
  const Summary late = summarize(run.lateness_us);
  const std::uint64_t attempted = warm.attempted + run.attempted + cap.attempted;
  const std::uint64_t failed = warm.failed + run.failed + cap.failed;
  const double completed = static_cast<double>(run.attempted - run.failed);
  const double write_rate = static_cast<double>(run.writes) / run.seconds;

  std::printf("paced phase: %.0f ops/s offered for %.2f s, %.0f%% writes, "
              "%zu-byte values; tails (not bounded) are medians of "
              "per-1000-op p99s\n",
              spec.offered_ops_per_s, run.seconds, 100 * spec.write_fraction,
              spec.value_bytes);
  std::printf("%s\n%s\n", describe("write", w, "us").c_str(),
              describe("read", r, "us").c_str());
  std::printf("whole phase: %s; %s\n",
              describe("write", summarize(run.write_us), "us").c_str(),
              describe("read", summarize(run.read_us), "us").c_str());
  std::printf("%s\n", describe("generator lateness", late, "us").c_str());
  std::printf("ops per server:");
  for (std::size_t s = 0; s < run.ops_per_server.size(); ++s) {
    std::printf(" s%zu=%llu", s,
                static_cast<unsigned long long>(run.ops_per_server[s]));
  }
  if (spec.system == SystemKind::kDaemons) {
    std::printf(" (clients rotate over servers by epoch; each server has no "
                "client for %zu of %zu epochs)",
                spec.servers - std::min<std::size_t>(spec.servers, kThreads),
                spec.servers);
  }
  std::printf("\nclosed loop: %.1f ops/s over %.2f s (%d threads)\n",
              cap.ops_per_s(), cap.seconds, kThreads);
  if (spec.durable) {
    std::printf("flush policy: write(2) without fsync; survives a process "
                "crash, not a power loss; snapshot every %d ms, GC every %d ms\n",
                kDaemonSnapshotMs, kDaemonGcMs);
  }
  std::printf("setup runs:");
  for (const double s : setups) std::printf(" %.4f s", s);
  std::printf("\n");

  const std::vector<Metric> metrics = {
      {"setup_s", "s", median(setups)},
      {"write_p50_us", "us", w.p50},
      {"read_p50_us", "us", r.p50},
      {"cpu_us_per_op", "us", completed > 0 ? run.cpu_s * 1e6 / completed : 0},
      {"completed_op_share", "ratio",
       attempted > 0 ? 1.0 - static_cast<double>(failed) /
                                 static_cast<double>(attempted)
                     : 0},
      {"history_residence_ms", "ms",
       write_rate > 0 ? mean(run.history_samples) / write_rate * 1e3 : 0},
      {"rss_mib", "MiB", run.rss_mib},
  };
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

int run_traced(const WorkloadSpec& spec, std::uint64_t seed, double seconds) {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  const bool correct = run_ladder(spec, seed, seconds, metrics, attempted,
                                  failed);
  std::sort(metrics.begin(), metrics.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(correct, std::max<std::uint64_t>(1, attempted), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing argument value");
    const char* value = argv[++i];
    if (std::strcmp(argv[i - 1], "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(argv[i - 1], "--seed") == 0) {
      seed = std::strtoll(value, nullptr, 10);
    } else if (std::strcmp(argv[i - 1], "--seconds") == 0) {
      seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(argv[i - 1], "--trace") == 0) {
      trace = std::atoi(value);
    } else {
      usage((std::string("unknown flag ") + argv[i - 1]).c_str());
    }
  }
  const WorkloadSpec* spec = find_workload(workload);
  if (spec == nullptr) usage("unknown or missing --workload");
  if (seed < 0) usage("--seed must be a non-negative integer");
  if (seconds < 1 || seconds > 120) usage("--seconds must be in [1, 120]");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  ::signal(SIGPIPE, SIG_IGN);

  std::printf("perfbench %s seed=%lld seconds=%.0f trace=%d\n",
              spec->name.c_str(), seed, seconds, trace);
  std::printf("why: %s\n", spec->why.c_str());
  std::printf("host: %s\n", host_fingerprint(kDaemonShards).c_str());
  const auto s = static_cast<std::uint64_t>(seed);
  return trace == 1 ? run_traced(*spec, s, seconds)
                    : run_end_to_end(*spec, s, seconds);
}
