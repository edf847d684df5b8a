#include "ladder.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <random>
#include <set>

#include "causalec/codec.h"
#include "causalec/server.h"
#include "erasure/buffer.h"
#include "frontdoor/edge_cache.h"
#include "frontdoor/hash_ring.h"
#include "gf/kernels.h"
#include "net/net_client.h"
#include "persist/backend.h"
#include "persist/image.h"
#include "persist/journal.h"

namespace perfbench {

namespace {

using causalec::erasure::Value;
namespace erasure = causalec::erasure;

double elapsed_us(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Runs `body` repeatedly for about `seconds`; returns the mean microseconds
/// per call.
double time_loop(double seconds, const std::function<void()>& body) {
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  do {
    for (int i = 0; i < 16; ++i) body();
    calls += 16;
  } while (seconds_since(t0) < seconds);
  return elapsed_us(t0) / static_cast<double>(calls);
}

std::vector<Value> random_values(std::size_t count, std::size_t bytes,
                                 std::mt19937_64& rng) {
  std::vector<Value> out;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::uint8_t> v(bytes);
    for (auto& b : v) b = static_cast<std::uint8_t>(rng());
    out.emplace_back(std::move(v));
  }
  return out;
}

// ---------------------------------------------------------------------------
// gf and erasure rungs
// ---------------------------------------------------------------------------

void gf_rung(const WorkloadSpec& spec, std::mt19937_64& rng,
             std::vector<Metric>& out) {
  namespace k = causalec::gf::kernels;
  constexpr std::size_t kTerms = 8;
  const auto srcs = random_values(kTerms, spec.value_bytes, rng);
  std::vector<std::uint8_t> dst(spec.value_bytes, 0);
  std::vector<k::BatchTerm> terms;
  for (std::size_t t = 0; t < kTerms; ++t) {
    terms.push_back({static_cast<std::uint8_t>(rng() | 1), srcs[t].data()});
  }
  const double us = time_loop(0.2, [&] {
    k::axpy_batch_gf256(dst.data(), terms, dst.size());
  });
  out.push_back({"gf.axpy_batch_gbps", "GB/s",
                 static_cast<double>(kTerms * spec.value_bytes) / (us * 1e3)});
}

void erasure_rung(const WorkloadSpec& spec, std::mt19937_64& rng,
                  std::vector<Metric>& out) {
  const erasure::CodePtr code = make_code(spec);
  const auto values = random_values(code->num_objects(), spec.value_bytes, rng);
  std::vector<erasure::Symbol> symbols;
  for (NodeId s = 0; s < code->num_servers(); ++s) {
    symbols.push_back(code->encode(s, values));
  }
  // Re-encode: a batch of 8 updates on the server whose symbol depends on
  // the most objects (a drained mailbox batch's one fused pass).
  NodeId widest = 0;
  for (NodeId s = 0; s < code->num_servers(); ++s) {
    if (code->support(s).size() > code->support(widest).size()) widest = s;
  }
  const auto fresh = random_values(8, spec.value_bytes, rng);
  std::vector<erasure::Code::ReencodeEntry> batch;
  const auto& support = code->support(widest);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const ObjectId g = support[i % support.size()];
    batch.push_back({g, values[g].span(), fresh[i].span()});
  }
  erasure::Symbol symbol = symbols[widest];
  out.push_back({"erasure.reencode_batch_us", "us", time_loop(0.2, [&] {
                   code->reencode_batch(widest, symbol, batch);
                 })});
  // Decode: object 0 from its smallest recovery set that is not one local
  // server.
  std::vector<NodeId> set = code->recovery_sets(0).front();
  for (const auto& candidate : code->recovery_sets(0)) {
    if (candidate.size() > 1) {
      set = candidate;
      break;
    }
  }
  std::vector<erasure::Symbol> set_symbols;
  for (const NodeId s : set) set_symbols.push_back(symbols[s]);
  out.push_back({"erasure.decode_us", "us", time_loop(0.2, [&] {
                   const Value v = code->decode(0, set, set_symbols);
                   if (v.size() != spec.value_bytes) std::abort();
                 })});
}

// ---------------------------------------------------------------------------
// causalec rung: Servers driven directly through a benchmark-side Transport
// ---------------------------------------------------------------------------

struct Wire {
  NodeId from = 0;
  NodeId to = 0;
  erasure::Buffer frame;
};

struct LoopStats {
  double serialize_us = 0;
  std::uint64_t frames = 0;  // serialized frames (multicasts share one)
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Serializes every outbound message (once per multicast, as
/// ThreadedCluster does) into a shared queue delivered by the rung loop.
class LoopTransport final : public causalec::Transport {
 public:
  LoopTransport(NodeId self, std::deque<Wire>* queue, LoopStats* stats)
      : self_(self), queue_(queue), stats_(stats) {}

  void send(NodeId to, causalec::sim::MessagePtr message) override {
    const erasure::Buffer frame = serialize(*message);
    push(to, frame);
  }
  void multicast(std::span<const NodeId> targets,
                 const std::function<causalec::sim::MessagePtr()>& make)
      override {
    if (targets.empty()) return;
    const erasure::Buffer frame = serialize(*make());
    for (const NodeId to : targets) push(to, frame);
  }
  void schedule_after(causalec::SimTime delta,
                      std::function<void()> fn) override {
    // Fan-out timeouts and rejoin deadlines never fire in this rung: the
    // loop delivers every message before the next op.
    (void)delta;
    (void)fn;
  }
  causalec::SimTime now() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  erasure::Buffer serialize(const causalec::sim::Message& message) {
    const auto t0 = Clock::now();
    erasure::Buffer frame = causalec::serialize_message_frame(message);
    stats_->serialize_us += elapsed_us(t0);
    ++stats_->frames;
    return frame;
  }
  void push(NodeId to, const erasure::Buffer& frame) {
    ++stats_->messages;
    stats_->bytes += frame.size();
    queue_->push_back({self_, to, frame});
  }

  NodeId self_;
  std::deque<Wire>* queue_;
  LoopStats* stats_;
};

/// Also returns server 0's image for the persist rung.
bool causalec_rung(const WorkloadSpec& spec, const Phase& phase,
                   const ValueFactory& values, std::vector<Metric>& out,
                   causalec::persist::ServerImage& image) {
  const erasure::CodePtr code = make_code(spec);
  std::deque<Wire> queue;
  LoopStats stats;
  std::vector<std::unique_ptr<LoopTransport>> transports;
  std::vector<std::unique_ptr<causalec::Server>> servers;
  for (NodeId s = 0; s < code->num_servers(); ++s) {
    transports.push_back(std::make_unique<LoopTransport>(s, &queue, &stats));
    servers.push_back(std::make_unique<causalec::Server>(
        s, code, causalec::ServerConfig{}, transports.back().get()));
  }
  double dispatch_us = 0, deserialize_us = 0, fixpoint_us = 0, gc_us = 0;
  std::uint64_t dispatched = 0, batches = 0, gc_runs = 0;
  auto drain = [&] {
    while (!queue.empty()) {
      std::deque<Wire> batch;
      batch.swap(queue);
      std::set<NodeId> touched;
      for (Wire& w : batch) {
        auto t0 = Clock::now();
        auto message = causalec::deserialize_message(std::move(w.frame));
        deserialize_us += elapsed_us(t0);
        t0 = Clock::now();
        servers[w.to]->dispatch_message(w.from, std::move(message));
        dispatch_us += elapsed_us(t0);
        ++dispatched;
        touched.insert(w.to);
      }
      for (const NodeId s : touched) {
        const auto t0 = Clock::now();
        servers[s]->run_internal_actions();
        fixpoint_us += elapsed_us(t0);
        ++batches;
      }
    }
  };
  auto collect = [&] {
    for (auto& server : servers) {
      const auto t0 = Clock::now();
      server->run_garbage_collection();
      gc_us += elapsed_us(t0);
      ++gc_runs;
    }
    drain();
  };

  const erasure::PlanCacheStats plans0 = code->decode_plan_cache_stats();
  std::vector<double> write_us, read_us;
  std::uint64_t write_bytes = 0, read_bytes = 0, remote = 0, ops = 0;
  const ClientId client = 77;
  causalec::OpId opid = 1;
  const auto t_start = Clock::now();
  for (std::size_t i = 0; seconds_since(t_start) < 0.5; ++i) {
    const Op& op = phase.per_thread[i % kThreads][(i / kThreads) %
                                                  phase.per_thread[0].size()];
    const NodeId at = static_cast<NodeId>(op.server % servers.size());
    const std::uint64_t bytes0 = stats.bytes;
    if (op.write) {
      Value value = values.make(client, opid);
      const auto t0 = Clock::now();
      servers[at]->client_write(client, opid++, op.object, std::move(value));
      write_us.push_back(elapsed_us(t0));
      drain();
      write_bytes += stats.bytes - bytes0;
    } else {
      bool done = false;
      const auto t0 = Clock::now();
      servers[at]->client_read(
          client, opid++, op.object,
          [&done](const Value&, const causalec::Tag&,
                  const causalec::VectorClock&) { done = true; });
      if (!done) ++remote;
      drain();
      read_us.push_back(elapsed_us(t0));
      read_bytes += stats.bytes - bytes0;
      if (!done) {
        std::fprintf(stderr, "perfbench: causalec rung read never completed\n");
        return false;
      }
    }
    ++ops;
    if (ops % 64 == 0) collect();
  }
  collect();
  std::uint64_t errors = 0;
  for (auto& server : servers) {
    errors += server->counters().error1_events + server->counters().error2_events;
  }
  const erasure::PlanCacheStats plans1 = code->decode_plan_cache_stats();
  const double plan_hits = static_cast<double>(plans1.hits - plans0.hits);
  const double plan_total =
      plan_hits + static_cast<double>(plans1.misses - plans0.misses);
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  const double n_writes = std::max<double>(1, static_cast<double>(write_us.size()));
  const double n_reads = std::max<double>(1, static_cast<double>(read_us.size()));
  out.push_back({"erasure.decode_plan_hit_rate", "ratio",
                 plan_total > 0 ? plan_hits / plan_total : 0});
  out.push_back({"causalec.client_write_us", "us", median(write_us)});
  out.push_back({"causalec.client_read_us", "us", median(read_us)});
  out.push_back({"causalec.dispatch_us_per_msg", "us",
                 dispatch_us / std::max<double>(1, static_cast<double>(dispatched))});
  out.push_back({"causalec.fixpoint_us_per_batch", "us",
                 fixpoint_us / std::max<double>(1, static_cast<double>(batches))});
  out.push_back({"causalec.gc_us", "us",
                 gc_us / std::max<double>(1, static_cast<double>(gc_runs))});
  out.push_back({"causalec.read_remote_share", "ratio",
                 static_cast<double>(remote) / n_reads});
  out.push_back({"causalec.msgs_per_op", "count",
                 static_cast<double>(stats.messages) /
                     std::max<double>(1, static_cast<double>(ops))});
  out.push_back({"causalec.wire_bytes_per_write", "B",
                 static_cast<double>(write_bytes) / n_writes});
  out.push_back({"causalec.wire_bytes_per_read", "B",
                 static_cast<double>(read_bytes) / n_reads});
  out.push_back({"causalec.serialize_us_per_msg", "us",
                 stats.serialize_us /
                     std::max<double>(1, static_cast<double>(stats.frames))});
  out.push_back({"causalec.deserialize_us_per_msg", "us",
                 deserialize_us /
                     std::max<double>(1, static_cast<double>(dispatched))});
  std::printf("causalec rung: %llu ops (mean write %.2f us, mean read %.2f us), "
              "%llu messages, %llu GC rounds\n",
              static_cast<unsigned long long>(ops), mean(write_us),
              mean(read_us), static_cast<unsigned long long>(stats.messages),
              static_cast<unsigned long long>(gc_runs / servers.size()));
  image = servers.front()->capture_image();
  if (errors != 0) {
    std::fprintf(stderr, "perfbench: causalec rung saw %llu error events\n",
                 static_cast<unsigned long long>(errors));
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// persist rung: Journal on a DirBackend inside the work directory
// ---------------------------------------------------------------------------

void persist_rung(const WorkloadSpec& spec,
                  const causalec::persist::ServerImage& image,
                  const ValueFactory& values, const std::string& dir,
                  bool report_dir_ratio, std::vector<Metric>& out) {
  causalec::persist::DirBackend backend(dir);
  causalec::persist::Journal journal(&backend, "n0");
  const Value value = values.make(78, 1);
  std::uint64_t appended = 0;
  const double wal_us = time_loop(0.2, [&] {
    journal.record_client_write(78, ++appended, 0, value.span());
  });
  std::vector<double> snapshot_us;
  const auto t_start = Clock::now();
  while (snapshot_us.size() < 5 ||
         (snapshot_us.size() < 50 && seconds_since(t_start) < 0.5)) {
    const auto t0 = Clock::now();
    journal.save_snapshot(image);
    snapshot_us.push_back(elapsed_us(t0));
  }
  // The journal directory (snapshot plus 64 WAL records after it) per byte
  // of live user data.
  for (int i = 0; i < 64; ++i) {
    journal.record_client_write(78, ++appended, 0, value.span());
  }
  out.push_back({"persist.wal_append_us", "us", wal_us});
  out.push_back({"persist.snapshot_us", "us", median(snapshot_us)});
  out.push_back({"persist.snapshot_bytes", "B",
                 static_cast<double>(
                     causalec::persist::encode_snapshot(image).size())});
  if (report_dir_ratio) {
    out.push_back({"persist.data_dir_bytes_per_user_byte", "ratio",
                   static_cast<double>(dir_bytes(dir)) /
                       static_cast<double>(spec.objects * spec.value_bytes)});
  }
}

// ---------------------------------------------------------------------------
// frontdoor micro rung
// ---------------------------------------------------------------------------

void frontdoor_micro(const WorkloadSpec& spec, std::vector<Metric>& out) {
  causalec::frontdoor::EdgeCache cache(4096, std::chrono::milliseconds(0));
  causalec::VectorClock clock(spec.servers);
  clock.set(0, 5);
  for (ObjectId g = 0; g < spec.objects; ++g) {
    cache.put(g, Value(spec.value_bytes, 1), causalec::Tag(clock, 1), clock);
  }
  const causalec::VectorClock frontier(spec.servers);
  causalec::frontdoor::EdgeCache::Entry entry;
  ObjectId next = 0;
  const double lookup_us = time_loop(0.1, [&] {
    if (cache.lookup(next++ % spec.objects, frontier, &entry) !=
        causalec::frontdoor::EdgeCache::Outcome::kHit) {
      std::abort();
    }
  });
  const causalec::frontdoor::HashRing ring(spec.servers, 64);
  std::uint64_t key = 0, sink = 0;
  const double owner_us = time_loop(0.1, [&] { sink += ring.owner(key++); });
  if (sink == 0 && key == 0) std::abort();
  out.push_back({"frontdoor.cache_lookup_ns", "ns", lookup_us * 1e3});
  out.push_back({"frontdoor.ring_owner_ns", "ns", owner_us * 1e3});
}

// ---------------------------------------------------------------------------
// Pass-level rungs
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> shard_ops(DaemonCluster& daemons) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < daemons.size(); ++i) {
    const auto s = daemons.stats(i);
    if (!s.has_value()) return {};
    out.insert(out.end(), s->shard_ops.begin(), s->shard_ops.end());
  }
  return out;
}

/// Max over mean of the per-shard op deltas across every daemon.
double shard_imbalance(const std::vector<std::uint64_t>& before,
                       const std::vector<std::uint64_t>& after) {
  if (before.size() != after.size() || after.empty()) return 0;
  double total = 0, peak = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    const double d = static_cast<double>(after[i] - before[i]);
    total += d;
    peak = std::max(peak, d);
  }
  return total > 0 ? peak / (total / static_cast<double>(after.size())) : 0;
}

/// Median round trip of `count` pings and stats requests on one connection
/// per server.
bool probe_rtts(DaemonCluster& daemons, double& ping_us, double& stats_us) {
  std::vector<double> pings, stats;
  for (std::size_t i = 0; i < daemons.size(); ++i) {
    causalec::net::NetClient client(0);
    if (!client.connect(daemons.endpoints()[i], 2000)) return false;
    client.set_io_timeout_ms(5000);
    for (int k = 0; k < 40; ++k) {
      auto t0 = Clock::now();
      if (!client.ping(static_cast<std::uint64_t>(k) + 1).has_value()) return false;
      pings.push_back(elapsed_us(t0));
      t0 = Clock::now();
      if (!client.stats().has_value()) return false;
      stats.push_back(elapsed_us(t0));
    }
  }
  ping_us = median(pings);
  stats_us = median(stats);
  return true;
}

WorkloadSpec rung_spec(const WorkloadSpec& base, SystemKind system) {
  WorkloadSpec spec = base;
  spec.system = system;
  spec.durable = false;
  spec.offered_ops_per_s = 10000;
  if (system == SystemKind::kRouter) {
    spec.write_fraction = 0.1;
    spec.zipf_theta = 0.99;
  }
  return spec;
}

}  // namespace

bool run_ladder(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
                std::vector<Metric>& out, std::uint64_t& attempted,
                std::uint64_t& failed) {
  std::mt19937_64 rng(seed);
  const ValueFactory values(spec.value_bytes, seed);
  const std::string work_dir = make_work_dir(spec.name + "-trace");
  bool ok = true;
  const double pass_s = std::max(1.0, 0.15 * seconds);
  auto tally = [&](const PassResult& r) {
    attempted += r.attempted;
    failed += r.failed;
  };

  // The workload's own system: untraced capacity, then a traced paced pass
  // and traced capacity. Only ThreadedCluster has in-process tracing to
  // switch on (a metrics registry); daemon workloads measure the same
  // recording both times.
  causalec::obs::MetricsRegistry registry;
  double untraced_capacity = 0;
  std::vector<OpRecord> recorded;
  if (spec.system == SystemKind::kInproc) {
    auto plain = make_system(spec, values, work_dir, nullptr, nullptr);
    if (plain == nullptr) return false;
    const PassResult r = run_pass(*plain, make_phase(spec, seed + 2, pass_s, 0, false), false);
    tally(r);
    untraced_capacity = r.ops_per_s();
  }
  auto system = make_system(
      spec, values, work_dir,
      spec.system == SystemKind::kInproc ? &registry : nullptr, &recorded);
  if (system == nullptr) return false;
  if (spec.system != SystemKind::kInproc) {
    const PassResult r = run_pass(*system, make_phase(spec, seed + 2, pass_s, 0, false), false);
    tally(r);
    untraced_capacity = r.ops_per_s();
    recorded.insert(recorded.end(), r.ops.begin(), r.ops.end());
  }
  DaemonCluster* daemons = system->daemons();
  const auto shards0 = daemons != nullptr ? shard_ops(*daemons) : std::vector<std::uint64_t>{};
  const auto router0 = system->router_stats();
  const auto alloc0 = erasure::Buffer::alloc_stats();
  const PassResult traced = run_pass(
      *system, make_phase(spec, seed + 1, 0.4 * seconds, spec.offered_ops_per_s, true),
      true, spec.system == SystemKind::kInproc ? &registry : nullptr);
  const auto alloc1 = erasure::Buffer::alloc_stats();
  const auto shards1 = daemons != nullptr ? shard_ops(*daemons) : std::vector<std::uint64_t>{};
  const auto router1 = system->router_stats();
  tally(traced);
  recorded.insert(recorded.end(), traced.ops.begin(), traced.ops.end());
  const PassResult traced_cap =
      run_pass(*system, make_phase(spec, seed + 3, pass_s, 0, false), false,
               spec.system == SystemKind::kInproc ? &registry : nullptr);
  tally(traced_cap);
  recorded.insert(recorded.end(), traced_cap.ops.begin(), traced_cap.ops.end());
  out.push_back({"obs.trace_overhead", "ratio",
                 untraced_capacity > 0 ? traced_cap.ops_per_s() / untraced_capacity : 0});
  std::printf("workload pass (traced): %s; %s\n",
              describe("write", summarize(traced.write_us), "us").c_str(),
              describe("read", summarize(traced.read_us), "us").c_str());

  // gf -> erasure -> causalec -> persist: direct calls, this thread.
  gf_rung(spec, rng, out);
  erasure_rung(spec, rng, out);
  causalec::persist::ServerImage image;
  ok &= causalec_rung(spec, make_phase(spec, seed + 4, 1.0, 1000, true), values,
                      out, image);
  const double client_write_us =
      std::find_if(out.begin(), out.end(), [](const Metric& m) {
        return m.name == "causalec.client_write_us";
      })->value;
  const std::string journal_dir = work_dir + "/journal";
  std::filesystem::create_directories(journal_dir);
  persist_rung(spec, image, values, journal_dir, !spec.durable, out);
  frontdoor_micro(spec, out);

  // runtime: ThreadedCluster with a metrics registry. The in-process
  // workload's traced pass is this rung; the others run it at 10k ops/s
  // with their own code and mix.
  {
    causalec::obs::MetricsRegistry rung_registry;
    PassResult rung;
    std::uint64_t allocs = alloc1.allocations - alloc0.allocations;
    std::uint64_t recycled = alloc1.recycled - alloc0.recycled;
    causalec::obs::MetricsRegistry* reg = &registry;
    if (spec.system == SystemKind::kInproc) {
      rung = traced;
    } else {
      WorkloadSpec inproc = rung_spec(spec, SystemKind::kInproc);
      auto cluster = make_system(inproc, values, work_dir, &rung_registry, nullptr);
      if (cluster == nullptr) return false;
      const auto a0 = erasure::Buffer::alloc_stats();
      rung = run_pass(*cluster, make_phase(inproc, seed + 5, pass_s, inproc.offered_ops_per_s, true),
                      true, &rung_registry);
      const auto a1 = erasure::Buffer::alloc_stats();
      allocs = a1.allocations - a0.allocations;
      recycled = a1.recycled - a0.recycled;
      tally(rung);
      reg = &rung_registry;
    }
    const double ops = std::max<double>(1, static_cast<double>(rung.attempted - rung.failed));
    const auto snap = reg->snapshot();
    const auto wait = snap.histograms.find("phase.queue_wait_ns");
    const Summary writes = summarize(rung.write_us);
    out.push_back({"erasure.payload_allocs_per_op", "count", static_cast<double>(allocs) / ops});
    out.push_back({"erasure.recycle_rate", "ratio",
                   allocs + recycled > 0
                       ? static_cast<double>(recycled) / static_cast<double>(allocs + recycled)
                       : 0});
    out.push_back({"runtime.handoff_us", "us", writes.p50 - client_write_us});
    out.push_back({"runtime.queue_wait_p50_us", "us",
                   wait != snap.histograms.end() ? wait->second.percentile(0.5) / 1e3 : 0});
    out.push_back({"runtime.mailbox_depth_max", "count",
                   static_cast<double>(rung.mailbox_depth_max)});
    std::printf("runtime rung: %s\n", describe("write", writes, "us").c_str());

    // net: the workload's daemons when it has them, else a fresh
    // non-durable cluster. Socket writes come from the workload's traced
    // pass on net-*, else from a 10k ops/s pass straight at the daemons.
    std::unique_ptr<System> ladder_net;
    std::vector<OpRecord> ladder_ops;
    if (daemons == nullptr || daemons->durable()) {
      const std::string dir = work_dir + "/ladder";
      std::filesystem::create_directories(dir);
      ladder_net = make_system(rung_spec(spec, SystemKind::kDaemons), values,
                               dir, nullptr, &ladder_ops);
      if (ladder_net == nullptr) return false;
    }
    DaemonCluster* plain = ladder_net != nullptr ? ladder_net->daemons() : daemons;
    // Every op on a daemon cluster joins that cluster's checked history.
    std::vector<OpRecord>& history = ladder_net != nullptr ? ladder_ops : recorded;
    auto record = [&history](const std::vector<OpRecord>& ops) {
      history.insert(history.end(), ops.begin(), ops.end());
    };
    DaemonCluster* net_daemons = daemons;
    Summary net_writes = summarize(traced.write_us);
    double imbalance = shard_imbalance(shards0, shards1);
    if (spec.system != SystemKind::kDaemons) {
      const WorkloadSpec net_spec = rung_spec(spec, SystemKind::kDaemons);
      auto direct = make_daemon_system(plain, values);
      const auto s0 = shard_ops(*plain);
      const PassResult r = run_pass(
          *direct, make_phase(net_spec, seed + 6, pass_s, net_spec.offered_ops_per_s, true),
          false);
      imbalance = shard_imbalance(s0, shard_ops(*plain));
      tally(r);
      record(r.ops);
      net_writes = summarize(r.write_us);
      net_daemons = plain;
    }
    double ping_us = 0, stats_us = 0;
    if (!probe_rtts(*net_daemons, ping_us, stats_us)) ok = false;
    out.push_back({"net.ping_rtt_us", "us", ping_us});
    out.push_back({"net.automaton_wait_us", "us", stats_us - ping_us});
    out.push_back({"net.frame_roundtrip_us", "us", net_writes.p50 - client_write_us});
    out.push_back({"net.shard_imbalance", "ratio", imbalance});
    out.push_back({"net.over_inproc_write_p50", "ratio",
                   writes.p50 > 0 ? net_writes.p50 / writes.p50 : 0});

    // frontdoor: the workload's router pass, else a Zipf router rung over
    // non-durable daemons.
    PassResult front;
    auto r0 = router0, r1 = router1;
    if (spec.system == SystemKind::kRouter) {
      front = traced;
    } else {
      const WorkloadSpec router_spec = rung_spec(spec, SystemKind::kRouter);
      std::vector<OpRecord> seeds;
      auto routed = make_router_system(plain, router_spec, values, &seeds);
      if (routed == nullptr) return false;
      r0 = routed->router_stats();
      front = run_pass(*routed, make_phase(router_spec, seed + 7, pass_s,
                                           router_spec.offered_ops_per_s, true),
                       false);
      r1 = routed->router_stats();
      tally(front);
      record(seeds);
      record(front.ops);
    }
    const double reads = r0 && r1 ? static_cast<double>(r1->routed_reads - r0->routed_reads) : 0;
    auto share = [&](std::uint64_t a, std::uint64_t b) {
      return reads > 0 ? static_cast<double>(b - a) / reads : 0;
    };
    out.push_back({"frontdoor.hit_rate", "ratio", r0 && r1 ? share(r0->cache_hits, r1->cache_hits) : 0});
    out.push_back({"frontdoor.stale_share", "ratio", r0 && r1 ? share(r0->cache_stale, r1->cache_stale) : 0});
    out.push_back({"frontdoor.hit_p50_us", "us", summarize(front.hit_us).p50});
    out.push_back({"frontdoor.origin_p50_us", "us", summarize(front.origin_us).p50});
    out.push_back({"frontdoor.reroutes", "count",
                   r0 && r1 ? static_cast<double>(r1->reroutes - r0->reroutes) : 0});
    if (ladder_net != nullptr) {
      ok &= check_run(*ladder_net, rung_spec(spec, SystemKind::kDaemons), ladder_ops);
    }
  }

  if (spec.durable) {
    // Every daemon's data directory per byte of live user data.
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < daemons->size(); ++i) bytes += dir_bytes(daemons->data_dir(i));
    out.push_back({"persist.data_dir_bytes_per_user_byte", "ratio",
                   static_cast<double>(bytes) /
                       static_cast<double>(spec.objects * spec.value_bytes)});
  }
  ok &= check_run(*system, spec, recorded);
  system.reset();
  remove_tree(work_dir);
  return ok;
}

}  // namespace perfbench
