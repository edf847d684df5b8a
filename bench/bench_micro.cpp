// E8 -- Microbenchmarks (google-benchmark): finite-field kernels, erasure
// encode/re-encode/decode, vector-clock and tag operations, and the
// CausalEC server fast paths.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "causalec/cluster.h"
#include "erasure/arena_pool.h"
#include "erasure/buffer.h"
#include "erasure/linear_code.h"
#include "gf/kernels.h"
#include "obs/bench_report.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "causalec/history_list.h"
#include "causalec/tag.h"
#include "common/random.h"
#include "erasure/codes.h"
#include "gf/gf256.h"
#include "gf/prime_field.h"
#include "gf/vector_ops.h"
#include "sim/latency.h"
#include "workload/zipf.h"

namespace {

using namespace causalec;
using erasure::Value;

// ---------------------------------------------------------------------------
// Field kernels.
// ---------------------------------------------------------------------------

void BM_GF256_Mul(benchmark::State& state) {
  Rng rng(1);
  std::uint8_t a = 3, b = 7;
  for (auto _ : state) {
    a = gf::GF256::mul(a, b);
    b ^= 0x5A;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_GF256_Mul);

void BM_GF256_Axpy(benchmark::State& state) {
  const std::size_t n = state.range(0);
  std::vector<std::uint8_t> dst(n, 1), src(n, 2);
  for (auto _ : state) {
    gf::axpy<gf::GF256>(std::span<std::uint8_t>(dst), 0x1D,
                        std::span<const std::uint8_t>(src));
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_GF256_Axpy)->Arg(256)->Arg(4096)->Arg(65536);

void BM_F257_Axpy(benchmark::State& state) {
  const std::size_t n = state.range(0);
  std::vector<std::uint32_t> dst(n, 1), src(n, 2);
  for (auto _ : state) {
    gf::axpy<gf::F257>(std::span<std::uint32_t>(dst), 29,
                       std::span<const std::uint32_t>(src));
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_F257_Axpy)->Arg(256)->Arg(4096);

// ---------------------------------------------------------------------------
// Erasure code operations (RS(6,4), 4 KiB values).
// ---------------------------------------------------------------------------

struct CodeFixture {
  erasure::CodePtr code = erasure::make_systematic_rs(6, 4, 4096);
  std::vector<Value> values;
  std::vector<erasure::Symbol> symbols;
  CodeFixture() {
    Rng rng(2);
    for (int i = 0; i < 4; ++i) {
      Value v(4096);
      for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
      values.push_back(std::move(v));
    }
    for (NodeId s = 0; s < 6; ++s) symbols.push_back(code->encode(s, values));
  }
};

void BM_RS_Encode(benchmark::State& state) {
  CodeFixture f;
  for (auto _ : state) {
    auto sym = f.code->encode(5, f.values);  // parity row: full work
    benchmark::DoNotOptimize(sym.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4 * 4096);
}
BENCHMARK(BM_RS_Encode);

void BM_RS_Reencode(benchmark::State& state) {
  CodeFixture f;
  auto sym = f.symbols[5];
  Value next(4096, 7);
  for (auto _ : state) {
    const erasure::Code::ReencodeEntry entry{2, f.values[2], next};
    f.code->reencode_batch(5, sym, {&entry, 1});
    std::swap(f.values[2], next);
    benchmark::DoNotOptimize(sym.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_RS_Reencode);

void BM_RS_Decode(benchmark::State& state) {
  CodeFixture f;
  const std::vector<NodeId> servers = {2, 3, 4, 5};
  std::vector<erasure::Symbol> subset;
  for (NodeId s : servers) subset.push_back(f.symbols[s]);
  for (auto _ : state) {
    auto v = f.code->decode(0, servers, subset);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_RS_Decode);

// ---------------------------------------------------------------------------
// Vector clocks / tags / history lists.
// ---------------------------------------------------------------------------

void BM_VectorClock_Compare(benchmark::State& state) {
  const std::size_t n = state.range(0);
  VectorClock a(n), b(n);
  Rng rng(3);
  for (std::size_t i = 0; i < n; ++i) {
    a.set(i, rng.next_below(100));
    b.set(i, rng.next_below(100));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.leq(b));
    benchmark::DoNotOptimize(b.leq(a));
  }
}
BENCHMARK(BM_VectorClock_Compare)->Arg(6)->Arg(16)->Arg(64);

void BM_Tag_TotalOrder(benchmark::State& state) {
  Rng rng(4);
  std::vector<Tag> tags;
  for (int i = 0; i < 64; ++i) {
    VectorClock vc(8);
    for (std::size_t j = 0; j < 8; ++j) vc.set(j, rng.next_below(16));
    tags.emplace_back(vc, i);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tags[i % 64] < tags[(i + 17) % 64]);
    ++i;
  }
}
BENCHMARK(BM_Tag_TotalOrder);

void BM_HistoryList_InsertLookup(benchmark::State& state) {
  HistoryList list(6, 64);
  Rng rng(5);
  std::vector<Tag> tags;
  for (int i = 0; i < 256; ++i) {
    VectorClock vc(6);
    vc.set(0, i + 1);
    tags.emplace_back(vc, 1);
    list.insert(tags.back(), Value(64, static_cast<std::uint8_t>(i)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.lookup(tags[i % 256]));
    ++i;
  }
}
BENCHMARK(BM_HistoryList_InsertLookup);

// ---------------------------------------------------------------------------
// Server fast paths (zero-latency network).
// ---------------------------------------------------------------------------

void BM_Server_LocalWrite(benchmark::State& state) {
  Cluster cluster(erasure::make_systematic_rs(5, 3, 1024),
                  std::make_unique<sim::ConstantLatency>(0));
  Client& client = cluster.make_client(0);
  Value v(1024, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.write(0, v));
    // Drain same-timestamp propagation (zero-latency links) so queues stay
    // bounded; GC timers sit in the future and are untouched.
    cluster.sim().run_until(cluster.sim().now());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_Server_LocalWrite);

void BM_Server_LocalRead(benchmark::State& state) {
  Cluster cluster(erasure::make_systematic_rs(5, 3, 1024),
                  std::make_unique<sim::ConstantLatency>(0));
  cluster.make_client(0).write(0, Value(1024, 1));
  cluster.settle();
  Client& reader = cluster.make_client(0);  // systematic server: local
  for (auto _ : state) {
    bool done = false;
    reader.read(0, [&done](const Value&, const Tag&, const VectorClock&) {
      done = true;
    });
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_Server_LocalRead);

void BM_Zipf_Next(benchmark::State& state) {
  workload::ZipfGenerator gen(1'000'000, 0.99, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next());
  }
}
BENCHMARK(BM_Zipf_Next);

// ---------------------------------------------------------------------------
// --kernels: the GF kernel-tier microbench. Measures MB/s of a one-term
// axpy (axpy_batch_gf256 with one term) per (block size, dispatch tier),
// the speedup of each tier over the scalar reference, the fused 8-term
// axpy_batch against the same terms applied one at a time, and the
// decoder-plan cache effect on RS(6,4) decode; emits BENCH_kernels.json
// (schema causalec-bench-v1). The committed baseline
// bench/baselines/BENCH_kernels.baseline.json pins conservative floors on
// the ratios, enforced by the kernel_bench_smoke ctest. Each ratio is the
// median of per-round ratios over interleaved rounds (as in --obs), so a
// timing loop that a loaded host preempts moves one round, not the verdict.
// ---------------------------------------------------------------------------

/// Wall-clock MB/s of `body` (called repeatedly), growing the iteration
/// count until the measurement window is at least `min_seconds`.
template <typename Body>
double measure_mb_per_s(Body&& body, std::size_t bytes_per_iter,
                        double min_seconds) {
  using clock = std::chrono::steady_clock;
  body();  // warm up tables and caches
  std::size_t iters = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < iters; ++i) body();
    const double secs =
        std::chrono::duration<double>(clock::now() - t0).count();
    if (secs >= min_seconds) {
      return static_cast<double>(bytes_per_iter) * static_cast<double>(iters) /
             secs / 1e6;
    }
    iters = secs <= 1e-9
                ? iters * 10
                : std::max(iters * 2,
                           static_cast<std::size_t>(
                               static_cast<double>(iters) * min_seconds /
                               secs * 1.2));
  }
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One timed body of a kernel comparison, run with `tier` pinned.
struct KernelSide {
  gf::kernels::Tier tier;
  std::function<void()> body;
};

/// measure_mb_per_s of every side over `rounds` rounds; result[side][round].
/// Each round times every side once, forwards on even rounds and backwards
/// on odd ones, so drift (frequency, a neighbour's load) hits both ends of
/// a comparison alike and neither side always runs first.
std::vector<std::vector<double>> interleaved_mb_per_s(
    const std::vector<KernelSide>& sides, std::size_t bytes_per_iter,
    double min_seconds, int rounds) {
  const std::size_t n = sides.size();
  std::vector<std::vector<double>> mb_per_s(n);
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t side = r % 2 == 0 ? i : n - 1 - i;
      gf::kernels::ScopedTierForTesting guard(sides[side].tier);
      mb_per_s[side].push_back(
          measure_mb_per_s(sides[side].body, bytes_per_iter, min_seconds));
    }
  }
  return mb_per_s;
}

/// Median over rounds of num[r] / den[r].
double median_ratio(const std::vector<double>& num,
                    const std::vector<double>& den) {
  std::vector<double> ratios;
  for (std::size_t r = 0; r < num.size(); ++r) {
    ratios.push_back(num[r] / den[r]);
  }
  return median(std::move(ratios));
}

int run_kernel_bench(bool smoke) {
  namespace kn = gf::kernels;
  const double min_seconds = smoke ? 0.005 : 0.05;
  const int rounds = smoke ? 15 : 7;
  const std::size_t sizes[] = {1024, 4096, 65536};

  obs::BenchReport report("kernels");
  report.set_config("smoke", smoke);
  report.set_config("active_tier", kn::tier_name(kn::active_tier()));
  report.set_config("cpu_avx2", kn::cpu_features().avx2);
  report.set_config("cpu_gfni_avx512", kn::cpu_features().gfni_avx512);
  report.set_config("gf256_table_threshold", kn::kGf256TableThreshold);

  std::vector<kn::Tier> tiers;
  for (int t = 0; t < kn::kNumTiers; ++t) {
    const auto tier = static_cast<kn::Tier>(t);
    if (kn::tier_available(tier)) tiers.push_back(tier);
  }
  // One-term axpy per tier; tiers[0] is the scalar reference.
  Rng rng(11);
  for (const std::size_t n : sizes) {
    std::vector<std::uint8_t> dst(n), src(n);
    for (auto& b : dst) b = static_cast<std::uint8_t>(rng.next_u64());
    for (auto& b : src) b = static_cast<std::uint8_t>(rng.next_u64());
    const kn::BatchTerm term{0x1D, src.data()};
    std::vector<KernelSide> sides;
    for (const kn::Tier tier : tiers) {
      sides.push_back({tier, [&] {
                         kn::axpy_batch_gf256(dst.data(), {&term, 1}, n);
                         benchmark::DoNotOptimize(dst.data());
                       }});
    }
    const auto mb_per_s = interleaved_mb_per_s(sides, n, min_seconds, rounds);
    double best_speedup = 0;
    std::size_t best = 0;
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      const double speedup = median_ratio(mb_per_s[i], mb_per_s[0]);
      auto& row = report.add_row("axpy/gf256/" + std::to_string(n) + "/" +
                                 kn::tier_name(tiers[i]));
      row.metric("mb_per_s", median(mb_per_s[i]));
      row.metric("speedup_vs_scalar", speedup);
      if (speedup > best_speedup) {
        best_speedup = speedup;
        best = i;
      }
    }
    auto& row = report.add_row("best/axpy/gf256/" + std::to_string(n));
    row.metric("mb_per_s", median(mb_per_s[best]));
    row.metric("speedup_vs_scalar", best_speedup);
    row.note("tier", kn::tier_name(tiers[best]));
  }

  // Fused multi-term axpy (the batched re-encode primitive): dst accumulates
  // kBatchTerms coefficient*src products in one pass, vs. the same terms
  // applied as kBatchTerms one-term calls at the *same* tier. The fused win
  // is pure dst-traffic savings (1 load+store per block instead of
  // kBatchTerms of each), so the ratio is machine-portable.
  {
    constexpr std::size_t kBatchTerms = 8;
    for (const std::size_t n : {4096ul, 65536ul}) {
      std::vector<std::uint8_t> dst(n);
      std::vector<std::vector<std::uint8_t>> srcs(
          kBatchTerms, std::vector<std::uint8_t>(n));
      std::vector<kn::BatchTerm> terms;
      for (auto& b : dst) b = static_cast<std::uint8_t>(rng.next_u64());
      for (auto& src : srcs) {
        for (auto& b : src) b = static_cast<std::uint8_t>(rng.next_u64());
        std::uint8_t coeff = 0;
        while (coeff == 0) coeff = static_cast<std::uint8_t>(rng.next_u64());
        terms.push_back({coeff, src.data()});
      }
      double best_mb_per_s = 0;
      double best_speedup = 0;
      kn::Tier best_tier = kn::Tier::kScalar;
      for (const kn::Tier tier : tiers) {
        const std::vector<KernelSide> sides = {
            {tier,
             [&] {
               for (const kn::BatchTerm& term : terms) {
                 kn::axpy_batch_gf256(dst.data(), {&term, 1}, n);
               }
               benchmark::DoNotOptimize(dst.data());
             }},
            {tier, [&] {
               kn::axpy_batch_gf256(dst.data(), terms, n);
               benchmark::DoNotOptimize(dst.data());
             }}};
        const auto mb_per_s = interleaved_mb_per_s(sides, kBatchTerms * n,
                                                   min_seconds, rounds);
        const double fused_mb_per_s = median(mb_per_s[1]);
        const double speedup = median_ratio(mb_per_s[1], mb_per_s[0]);
        auto& row = report.add_row("axpy_batch8/gf256/" + std::to_string(n) +
                                   "/" + kn::tier_name(tier));
        row.metric("mb_per_s", fused_mb_per_s);
        row.metric("sequential_mb_per_s", median(mb_per_s[0]));
        row.metric("speedup_vs_sequential", speedup);
        if (fused_mb_per_s > best_mb_per_s) {
          best_mb_per_s = fused_mb_per_s;
          best_speedup = speedup;
          best_tier = tier;
        }
      }
      auto& best =
          report.add_row("best/axpy_batch8/gf256/" + std::to_string(n));
      best.metric("mb_per_s", best_mb_per_s);
      best.metric("speedup_vs_sequential", best_speedup);
      best.note("tier", kn::tier_name(best_tier));
    }
  }

  // Arena recycling: payload-sized Buffer alloc/release cycles with a
  // shard-local BufferPool installed. After warm-up the single live buffer
  // ping-pongs through one free-list slot, so the recycle rate is ~1.0 and
  // any drop means the pool stopped serving the data path.
  {
    constexpr std::size_t kPayload = 4096;
    erasure::BufferPool pool;
    erasure::BufferPool::ScopedInstall installed(pool);
    for (int i = 0; i < 64; ++i) {
      auto b = erasure::Buffer::alloc(kPayload);
      benchmark::DoNotOptimize(b.data());
    }
    const auto before = pool.counters();
    const double mb_per_s = measure_mb_per_s(
        [&] {
          auto b = erasure::Buffer::alloc(kPayload);
          benchmark::DoNotOptimize(b.data());
        },
        kPayload, min_seconds);
    const auto after = pool.counters();
    const double fresh = static_cast<double>(after.fresh - before.fresh);
    const double recycled =
        static_cast<double>(after.recycled - before.recycled);
    auto& row = report.add_row("alloc/pool/" + std::to_string(kPayload));
    row.metric("mb_per_s", mb_per_s);
    row.metric("recycle_rate",
               recycled > 0 ? recycled / (recycled + fresh) : 0.0);
  }

  // F257 axpy for scale: the odd-characteristic path has no SIMD tier, so
  // one elementwise row per size keeps the field dimension in the artifact.
  for (const std::size_t n : {1024ul, 65536ul}) {
    const std::size_t elems = n / sizeof(std::uint32_t);
    std::vector<std::uint32_t> dst(elems), src(elems);
    for (auto& x : dst) x = gf::F257::from_int(rng.next_u64());
    for (auto& x : src) x = gf::F257::from_int(rng.next_u64());
    const double mb_per_s = measure_mb_per_s(
        [&] {
          gf::axpy<gf::F257>(std::span<std::uint32_t>(dst), 29,
                             std::span<const std::uint32_t>(src));
          benchmark::DoNotOptimize(dst.data());
        },
        n, min_seconds);
    auto& row =
        report.add_row("axpy/f257/" + std::to_string(n) + "/elementwise");
    row.metric("mb_per_s", mb_per_s);
  }

  // Decoder-plan cache: RS(6,4) decode of one 4 KiB object with all decode
  // shapes repeating -- the steady state of a store. `cached` reuses plans,
  // `fresh` runs Gaussian elimination per decode (cache disabled).
  {
    using Code256 = erasure::LinearCodeT<gf::GF256>;
    CodeFixture f;
    const std::vector<NodeId> servers = {2, 3, 4, 5};
    std::vector<erasure::Symbol> subset;
    for (const NodeId s : servers) subset.push_back(f.symbols[s]);
    const auto concrete =
        std::dynamic_pointer_cast<const Code256>(f.code);
    for (const bool cached : {true, false}) {
      concrete->set_plan_cache_enabled(cached);
      ObjectId obj = 0;
      const double mb_per_s = measure_mb_per_s(
          [&] {
            auto v = f.code->decode(obj, servers, subset);
            obj = (obj + 1) % 4;
            benchmark::DoNotOptimize(v.data());
          },
          4096, min_seconds);
      auto& row = report.add_row(cached ? "decode/rs_6_4/4096/plan_cache"
                                        : "decode/rs_6_4/4096/fresh_elim");
      row.metric("mb_per_s", mb_per_s);
    }
    concrete->set_plan_cache_enabled(true);
  }

  // Hit-rate row on a fresh code with a fixed decode count, so the value
  // is deterministic (the timed loops above run machine-dependent
  // iteration counts, which would make this a flaky regression gate).
  {
    CodeFixture f;
    const std::vector<NodeId> servers = {2, 3, 4, 5};
    std::vector<erasure::Symbol> subset;
    for (const NodeId s : servers) subset.push_back(f.symbols[s]);
    for (int rep = 0; rep < 50; ++rep) {
      for (ObjectId obj = 0; obj < 4; ++obj) {
        auto v = f.code->decode(obj, servers, subset);
        benchmark::DoNotOptimize(v.data());
      }
    }
    const auto stats = f.code->decode_plan_cache_stats();
    auto& row = report.add_row("plan_cache/rs_6_4");
    row.metric("hits", static_cast<double>(stats.hits));
    row.metric("misses", static_cast<double>(stats.misses));
    row.metric("entries", static_cast<double>(stats.entries));
    row.metric("hit_rate", stats.hit_rate());  // 196/200 = 0.98, exact
  }

  return report.write_default().empty() ? 1 : 0;
}

// ---------------------------------------------------------------------------
// --obs: observability overhead. Runs the same simulated workload under
// three configurations -- all observability off, flight recorder only
// (the always-on production default), and flight + tracer + metrics -- and
// emits BENCH_obs.json with ops per CPU second per configuration plus the
// ratios. Each of several short child processes takes the median over its
// alternating rounds, and the report takes the median over the processes.
// The committed baseline bench/baselines/BENCH_obs.baseline.json pins
// flight_vs_off at 0.95, so the obs_bench_smoke ctest fails when the
// flight recorder costs more than 5% of throughput.
// ---------------------------------------------------------------------------

struct ObsBenchMode {
  const char* name;
  bool flight;
  bool full;  // tracer + metrics on top
};

constexpr ObsBenchMode kObsModes[] = {
    {"tracing_off", false, false},
    {"flight_on", true, false},
    {"full_tracing", true, true},
};

/// CPU seconds this thread has run: unlike wall time, it does not grow
/// while another process (a parallel test, say) holds the CPU.
double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Ops per CPU second of one workload run under `mode` (the simulator is
/// single-threaded, so this thread does all of the run's work).
double obs_bench_run(const ObsBenchMode& mode, int ops) {
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  ClusterConfig config;
  config.seed = 7;
  config.server.flight_recorder = mode.flight;
  if (mode.full) {
    config.obs.metrics = &metrics;
    config.obs.tracer = &tracer;
  }
  Cluster cluster(erasure::make_paper_5_3(1024),
                  std::make_unique<sim::ConstantLatency>(sim::kMillisecond),
                  config);
  const std::size_t objects = cluster.code().num_objects();
  std::vector<Client*> clients;
  for (NodeId s = 0; s < cluster.num_servers(); ++s) {
    clients.push_back(&cluster.make_client(s));
  }
  Rng rng(13);
  const double t0 = thread_cpu_seconds();
  for (int i = 0; i < ops; ++i) {
    Client& client = *clients[rng.next_u64() % clients.size()];
    const ObjectId object = static_cast<ObjectId>(rng.next_u64() % objects);
    if (rng.next_u64() % 2 == 0) {
      client.write(object, Value(1024, static_cast<std::uint8_t>(i)));
    } else {
      client.read(object, [](const Value&, const Tag&,
                             const VectorClock&) {});
    }
    cluster.run_for(sim::kMillisecond / 2);
  }
  cluster.settle();
  return static_cast<double>(ops) / (thread_cpu_seconds() - t0);
}

constexpr int obs_ops(bool smoke) { return smoke ? 600 : 6000; }
constexpr int obs_rounds(bool smoke) { return smoke ? 7 : 9; }
constexpr int kObsProcesses = 9;

/// --obs-process: one child's share of the --obs bench. Prints the median
/// ops/s of each mode, then the median flight_vs_off and full_vs_off.
///
/// Each round runs every mode once, forwards on even rounds and backwards
/// on odd ones, so tracing_off and flight_on always run back to back and
/// drift (frequency, cache, a neighbour's load) hits both sides of a
/// round alike. The ratios are per round: one preempted run moves one
/// ratio, not the median. A warm-up run goes first and is not counted.
int run_obs_process(bool smoke) {
  const int ops = obs_ops(smoke);
  obs_bench_run(kObsModes[0], ops);
  std::vector<double> rates[3];
  std::vector<double> flight_vs_off;
  std::vector<double> full_vs_off;
  for (int r = 0; r < obs_rounds(smoke); ++r) {
    double rate[3] = {0, 0, 0};
    for (int i = 0; i < 3; ++i) {
      const int m = r % 2 == 0 ? i : 2 - i;
      rate[m] = obs_bench_run(kObsModes[m], ops);
      rates[m].push_back(rate[m]);
    }
    flight_vs_off.push_back(rate[1] / rate[0]);
    full_vs_off.push_back(rate[2] / rate[0]);
  }
  std::printf("%.6g %.6g %.6g %.6g %.6g\n", median(rates[0]),
              median(rates[1]), median(rates[2]), median(flight_vs_off),
              median(full_vs_off));
  return 0;
}

/// --obs: runs kObsProcesses children one after another and reports the
/// medians over them. Rounds in one process share a bias (code and heap
/// placement, the core it lands on) that more rounds do not average out;
/// separate processes do.
int run_obs_bench(bool smoke) {
  char self[4096];
  const ssize_t len = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len <= 0) return 1;
  self[len] = '\0';
  const std::string command = std::string("'") + self + "' --obs-process" +
                              (smoke ? " --smoke" : "");

  // One column per printed value: each mode's ops/s, flight_vs_off,
  // full_vs_off.
  std::vector<double> per_process[5];
  for (int p = 0; p < kObsProcesses; ++p) {
    FILE* child = ::popen(command.c_str(), "r");
    if (child == nullptr) return 1;
    double v[5];
    const int got = std::fscanf(child, "%lf %lf %lf %lf %lf", &v[0], &v[1],
                                &v[2], &v[3], &v[4]);
    if (::pclose(child) != 0 || got != 5) return 1;
    for (int i = 0; i < 5; ++i) per_process[i].push_back(v[i]);
  }

  obs::BenchReport report("obs");
  report.set_config("smoke", smoke);
  report.set_config("ops", obs_ops(smoke));
  report.set_config("rounds", obs_rounds(smoke));
  report.set_config("processes", kObsProcesses);
  for (int m = 0; m < 3; ++m) {
    report.add_row(kObsModes[m].name)
        .metric("ops_per_s", median(per_process[m]));
  }
  const auto [lo, hi] =
      std::minmax_element(per_process[3].begin(), per_process[3].end());
  auto& overhead = report.add_row("overhead");
  overhead.metric("flight_vs_off", median(per_process[3]));
  overhead.metric("full_vs_off", median(per_process[4]));
  overhead.metric("flight_vs_off_process_min", *lo);
  overhead.metric("flight_vs_off_process_max", *hi);

  return report.write_default().empty() ? 1 : 0;
}

// ---------------------------------------------------------------------------
// --repair: repair-plan traffic and degraded-read latency per code shape
// (DESIGN.md §5.2, EXPERIMENTS.md E13). For each of RS(6,4), Azure-
// LRC(6,2,2) and wide RS(14,10) the planner's single-data-failure summary
// is emitted (fetched rows/bytes vs the full-decode baseline -- exact,
// machine-independent integers), plus wall-clock MB/s of executing the
// minimal and full-decode symbol repairs and of a degraded object read
// through the plan's helper set. BENCH_repair.json's committed baseline
// (bench/baselines/BENCH_repair.baseline.json, MAX_REGRESSION=0.0) pins
// the traffic ratios: LRC local-group repair must stay at half the rows of
// its full decode and strictly under RS(6,4)'s full-decode bytes, and the
// MDS wide stripe must keep degenerating to full decode exactly.
// ---------------------------------------------------------------------------

int run_repair_bench(bool smoke) {
  using Code256 = erasure::LinearCodeT<gf::GF256>;
  const double min_seconds = smoke ? 0.005 : 0.05;
  constexpr std::size_t kB = 4096;

  obs::BenchReport report("repair");
  report.set_config("smoke", smoke);
  report.set_config("value_bytes", static_cast<std::uint64_t>(kB));
  report.set_config("active_tier",
                    gf::kernels::tier_name(gf::kernels::active_tier()));

  struct Shape {
    const char* name;
    erasure::CodePtr code;
  };
  const Shape shapes[] = {
      {"rs_6_4", erasure::make_systematic_rs(6, 4, kB)},
      {"azure_lrc_6_2_2", erasure::make_azure_lrc_6_2_2(kB)},
      {"rs_14_10", erasure::make_wide_rs_14_10(kB)},
  };

  double lrc_repair_bytes = 0;
  double rs64_full_decode_bytes = 0;
  for (const Shape& shape : shapes) {
    const auto code = std::dynamic_pointer_cast<const Code256>(shape.code);
    const std::size_t n = code->num_servers();
    const std::size_t k = code->num_objects();
    const NodeId failed = 0;  // systematic data server in every shape

    Rng rng(13);
    std::vector<Value> values;
    for (std::size_t i = 0; i < k; ++i) {
      Value v(kB);
      for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
      values.push_back(std::move(v));
    }
    std::vector<erasure::Symbol> symbols;
    for (NodeId s = 0; s < n; ++s) symbols.push_back(code->encode(s, values));

    // Planner traffic summary: exact integers, the regression gate.
    const auto summary = code->plan_symbol_repair(failed, 1u << failed);
    auto& traffic =
        report.add_row(std::string("repair/") + shape.name +
                       "/single_data_failure");
    traffic.metric("repair_rows", static_cast<double>(summary->fetch_rows));
    traffic.metric("repair_bytes", static_cast<double>(summary->fetch_bytes));
    traffic.metric("full_decode_rows",
                   static_cast<double>(summary->full_decode_rows));
    traffic.metric("full_decode_bytes",
                   static_cast<double>(summary->full_decode_bytes));
    traffic.metric("fetch_savings",
                   static_cast<double>(summary->full_decode_rows) /
                       static_cast<double>(summary->fetch_rows));
    if (std::string_view(shape.name) == "azure_lrc_6_2_2") {
      lrc_repair_bytes = static_cast<double>(summary->fetch_bytes);
    }
    if (std::string_view(shape.name) == "rs_6_4") {
      rs64_full_decode_bytes =
          static_cast<double>(summary->full_decode_bytes);
    }

    // Execute the symbol repair through both strategies: wall-clock MB/s
    // of rebuilding the failed server's symbol from helper symbols.
    for (const auto strategy : {erasure::RepairStrategy::kMinimalFetch,
                                erasure::RepairStrategy::kFullDecode}) {
      const auto plan =
          code->symbol_repair_plan(failed, 1u << failed, strategy);
      std::vector<NodeId> helpers;
      std::vector<erasure::Symbol> helper_symbols;
      for (NodeId s = 0; s < n; ++s) {
        if (plan->helper_mask >> s & 1) {
          helpers.push_back(s);
          helper_symbols.push_back(symbols[s]);
        }
      }
      const double mb_per_s = measure_mb_per_s(
          [&] {
            auto out = code->apply_plan(*plan, helpers, helper_symbols);
            benchmark::DoNotOptimize(out.data());
          },
          kB, min_seconds);
      auto& row = report.add_row(
          std::string("repair_exec/") + shape.name + "/" +
          (strategy == erasure::RepairStrategy::kMinimalFetch
               ? "minimal"
               : "full_decode"));
      row.metric("mb_per_s", mb_per_s);
      row.metric("fetch_rows", static_cast<double>(plan->fetches.size()));
    }

    // Degraded read: object 0 served at the last server while `failed` is
    // down -- the plan names the helper fetches, decode() does the math.
    {
      const NodeId local = static_cast<NodeId>(n - 1);
      const auto plan = code->plan_object_repair(0, 1u << failed, local);
      std::vector<NodeId> helpers;
      std::vector<erasure::Symbol> helper_symbols;
      for (NodeId s = 0; s < n; ++s) {
        if (plan->helper_mask >> s & 1) {
          helpers.push_back(s);
          helper_symbols.push_back(symbols[s]);
        }
      }
      const double mb_per_s = measure_mb_per_s(
          [&] {
            auto v = code->decode(0, helpers, helper_symbols);
            benchmark::DoNotOptimize(v.data());
          },
          kB, min_seconds);
      auto& row =
          report.add_row(std::string("degraded_read/") + shape.name);
      row.metric("fetch_rows", static_cast<double>(plan->fetch_rows));
      row.metric("fetch_bytes", static_cast<double>(plan->fetch_bytes));
      row.metric("mb_per_s", mb_per_s);
    }
  }

  // The acceptance ratio: an LRC single-failure repair moves strictly
  // fewer bytes than an RS(6,4) full decode (4 rows vs 3 at equal B).
  auto& summary_row = report.add_row("summary/lrc_vs_rs64");
  summary_row.metric("lrc_repair_bytes", lrc_repair_bytes);
  summary_row.metric("rs64_full_decode_bytes", rs64_full_decode_bytes);
  summary_row.metric("rs64_full_over_lrc_repair",
                     rs64_full_decode_bytes / lrc_repair_bytes);

  return report.write_default().empty() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool kernels = false;
  bool obs_bench = false;
  bool obs_process = false;
  bool repair_bench = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--kernels") kernels = true;
    if (std::string_view(argv[i]) == "--obs") obs_bench = true;
    if (std::string_view(argv[i]) == "--obs-process") obs_process = true;
    if (std::string_view(argv[i]) == "--repair") repair_bench = true;
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }
  if (kernels) return run_kernel_bench(smoke);
  if (obs_bench) return run_obs_bench(smoke);
  if (obs_process) return run_obs_process(smoke);
  if (repair_bench) return run_repair_bench(smoke);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
