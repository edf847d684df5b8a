// causalec_inspect -- pretty-print a CausalEC server's internals.
//
//   causalec_inspect --demo [--servers N] [--ops N] [--seed S]
//       Run a short simulated workload and dump every server live:
//       vector clock, InQueue depth, DelL entries, pending reads,
//       plan-cache and Buffer-arena counters, and the flight-recorder
//       tail (obs/flight_recorder.h).
//
//   causalec_inspect --snapshot DIR --node N
//       Load server N's durable state (snapshot + WAL) from a DirBackend
//       directory written by a persisted Cluster/ThreadedCluster run and
//       dump it offline -- what a crashed node knew, without starting it.
//
//   causalec_inspect --flight FILE
//       Pretty-print a flight-recorder JSON dump (e.g. one element of a
//       chaos replay bundle's "flight" array).
//
//   causalec_inspect --gf-tiers
//       Print the GF kernel tiers available on this CPU/build, one per
//       line (scalar/ssse3/avx2/gfni). Scripts use this to loop
//       CAUSALEC_GF_KERNEL over exactly the runnable tiers -- see
//       tools/run_sanitized_tests.sh.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "causalec/cluster.h"
#include "common/random.h"
#include "erasure/buffer.h"
#include "erasure/codes.h"
#include "gf/kernels.h"
#include "obs/flight_recorder.h"
#include "persist/backend.h"
#include "persist/journal.h"
#include "sim/latency.h"

using namespace causalec;

namespace {

struct Options {
  bool demo = false;
  std::string snapshot_dir;
  std::string flight_file;
  NodeId node = 0;
  std::size_t servers = 5;
  int ops = 40;
  std::uint64_t seed = 1;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --demo [--servers N] [--ops N] [--seed S]\n"
               "       %s --snapshot DIR --node N\n"
               "       %s --flight FILE\n"
               "       %s --gf-tiers\n",
               argv0, argv0, argv0, argv0);
  std::exit(2);
}

/// One available tier name per line, machine-consumable (no header); the
/// order is ascending Tier, so the last line is the auto-dispatch choice.
int run_gf_tiers() {
  namespace k = gf::kernels;
  for (int t = 0; t < k::kNumTiers; ++t) {
    const auto tier = static_cast<k::Tier>(t);
    if (k::tier_available(tier)) std::printf("%s\n", k::tier_name(tier));
  }
  return 0;
}

std::string tag_str(const Tag& tag) {
  std::ostringstream out;
  out << tag;
  return out.str();
}

void print_flight_tail(const std::vector<obs::FlightEvent>& events,
                       std::size_t max_events = 16) {
  const std::size_t begin =
      events.size() > max_events ? events.size() - max_events : 0;
  std::printf("  flight tail (%zu of %zu):\n", events.size() - begin,
              events.size());
  for (std::size_t i = begin; i < events.size(); ++i) {
    std::printf("    %s\n",
                obs::flight_event_to_string(events[i]).c_str());
  }
}

void print_server(const Server& server, NodeId id) {
  const std::size_t objects = server.code().num_objects();
  std::ostringstream vc;
  vc << server.clock();
  std::printf("server s%u\n", static_cast<unsigned>(id));
  std::printf("  vector clock: %s\n", vc.str().c_str());

  const StorageStats stats = server.storage();
  std::printf("  storage: codeword %zu B, history %zu entries (%zu B), "
              "InQueue %zu, ReadL %zu, DelL %zu\n",
              stats.codeword_bytes, stats.history_entries,
              stats.history_bytes, stats.inqueue_entries,
              stats.readl_entries, stats.dell_entries);

  std::printf("  InQueue depth %zu:\n", server.inqueue().size());
  for (const auto& entry : server.inqueue().entries()) {
    std::printf("    app from s%u obj %u tag %s\n",
                static_cast<unsigned>(entry.origin),
                static_cast<unsigned>(entry.object),
                tag_str(entry.tag).c_str());
  }

  for (ObjectId x = 0; x < objects; ++x) {
    const DelList& dels = server.del_list(x);
    if (dels.total_entries() == 0) continue;
    std::printf("  DelL[%u] (%zu entries):\n", static_cast<unsigned>(x),
                dels.total_entries());
    for (NodeId s = 0; s < server.code().num_servers(); ++s) {
      for (const Tag& tag : dels.entries_from(s)) {
        std::printf("    from s%u tag %s\n", static_cast<unsigned>(s),
                    tag_str(tag).c_str());
      }
    }
  }

  if (!server.read_list().empty()) {
    std::printf("  pending reads (%zu):\n", server.read_list().size());
    for (const auto& read : server.read_list().all()) {
      std::printf("    opid %llu obj %u client %u%s\n",
                  static_cast<unsigned long long>(read.opid),
                  static_cast<unsigned>(read.object),
                  static_cast<unsigned>(read.client),
                  read.is_internal() ? " (internal)" : "");
    }
  }

  const ServerCounters& c = server.counters();
  std::printf("  counters: %llu writes, %llu reads (%llu history / %llu "
              "local / %llu remote), %llu re-encodes, %llu GC runs\n",
              static_cast<unsigned long long>(c.writes),
              static_cast<unsigned long long>(c.reads),
              static_cast<unsigned long long>(c.reads_served_from_history),
              static_cast<unsigned long long>(c.reads_served_local_decode),
              static_cast<unsigned long long>(c.reads_registered_remote),
              static_cast<unsigned long long>(c.reencodes),
              static_cast<unsigned long long>(c.gc_runs));

  const erasure::PlanCacheStats plans = server.code().decode_plan_cache_stats();
  std::printf("  plan cache: %llu hits / %llu misses (%.0f%% hit rate), "
              "%llu entries\n",
              static_cast<unsigned long long>(plans.hits),
              static_cast<unsigned long long>(plans.misses),
              plans.hit_rate() * 100.0,
              static_cast<unsigned long long>(plans.entries));

  print_flight_tail(server.flight_recorder().snapshot());
}

int run_demo(const Options& opt) {
  ClusterConfig config;
  config.seed = opt.seed;
  Cluster cluster(erasure::make_paper_5_3(256),
                  std::make_unique<sim::ConstantLatency>(
                      5 * sim::kMillisecond),
                  config);
  const std::size_t objects = cluster.code().num_objects();
  Rng rng(opt.seed);

  std::vector<Client*> clients;
  for (NodeId s = 0; s < cluster.num_servers(); ++s) {
    clients.push_back(&cluster.make_client(s));
  }
  for (int i = 0; i < opt.ops; ++i) {
    Client& client = *clients[rng.next_u64() % clients.size()];
    const ObjectId object =
        static_cast<ObjectId>(rng.next_u64() % objects);
    if (rng.next_u64() % 2 == 0) {
      client.write(object,
                   erasure::Value(256, static_cast<std::uint8_t>(i)));
    } else {
      client.read(object, [](const erasure::Value&, const Tag&,
                             const VectorClock&) {});
    }
    cluster.run_for(2 * sim::kMillisecond);
  }
  cluster.settle();

  const erasure::Buffer::AllocStats arenas = erasure::Buffer::alloc_stats();
  std::printf("cluster: %zu servers, %zu objects; payload arenas %llu "
              "(%llu B)\n\n",
              cluster.num_servers(), objects,
              static_cast<unsigned long long>(arenas.allocations),
              static_cast<unsigned long long>(arenas.bytes));
  for (NodeId s = 0; s < cluster.num_servers(); ++s) {
    print_server(cluster.server(s), s);
  }
  return 0;
}

int run_snapshot(const Options& opt) {
  persist::DirBackend backend(opt.snapshot_dir);
  std::string key = "s";
  key += std::to_string(opt.node);
  persist::Journal journal(&backend, std::move(key));
  const persist::RecoveredState recovered = journal.load();
  if (!recovered.error.empty()) {
    std::fprintf(stderr, "snapshot decode failed: %s\n",
                 recovered.error.c_str());
    return 1;
  }
  if (!recovered.image && recovered.wal.empty()) {
    std::fprintf(stderr, "no durable state for s%u in %s\n",
                 static_cast<unsigned>(opt.node), opt.snapshot_dir.c_str());
    return 1;
  }

  std::printf("durable state of s%u in %s\n",
              static_cast<unsigned>(opt.node), opt.snapshot_dir.c_str());
  if (recovered.image) {
    const persist::ServerImage& img = *recovered.image;
    std::ostringstream vc;
    vc << img.vc;
    std::printf("  snapshot: n=%u objects=%u value_bytes=%u\n",
                img.num_servers, img.num_objects, img.value_bytes);
    std::printf("  vector clock: %s\n", vc.str().c_str());
    for (ObjectId x = 0; x < img.num_objects; ++x) {
      std::printf("  M.tag[%u] = %s  tmax = %s\n",
                  static_cast<unsigned>(x),
                  tag_str(img.m_tags[x]).c_str(),
                  tag_str(img.tmax[x]).c_str());
    }
    std::printf("  history entries: %zu\n", img.history.size());
    for (const auto& h : img.history) {
      std::printf("    obj %u tag %s (%zu B)\n",
                  static_cast<unsigned>(h.object), tag_str(h.tag).c_str(),
                  h.value.size());
    }
    std::printf("  DelL entries: %zu\n", img.dels.size());
    for (const auto& d : img.dels) {
      std::printf("    obj %u from s%u tag %s\n",
                  static_cast<unsigned>(d.object),
                  static_cast<unsigned>(d.server), tag_str(d.tag).c_str());
    }
    std::printf("  InQueue entries: %zu\n", img.inqueue.size());
    for (const auto& q : img.inqueue) {
      std::printf("    from s%u obj %u tag %s\n",
                  static_cast<unsigned>(q.origin),
                  static_cast<unsigned>(q.object), tag_str(q.tag).c_str());
    }
  } else {
    std::printf("  no snapshot (WAL only)\n");
  }
  std::printf("  WAL: %zu records%s\n", recovered.wal.size(),
              recovered.wal_torn ? " (torn tail discarded)" : "");
  std::size_t messages = 0, writes = 0;
  for (const auto& rec : recovered.wal) {
    (rec.kind == persist::WalRecord::Kind::kMessage ? messages : writes)++;
  }
  std::printf("    %zu replayed frames, %zu client writes\n", messages,
              writes);
  return 0;
}

int run_flight(const Options& opt) {
  std::ifstream in(opt.flight_file);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", opt.flight_file.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto events = obs::flight_events_from_json(buf.str());
  if (events.empty()) {
    std::fprintf(stderr, "%s: no flight events (empty or malformed)\n",
                 opt.flight_file.c_str());
    return 1;
  }
  print_flight_tail(events, events.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--demo") {
      opt.demo = true;
    } else if (arg == "--gf-tiers") {
      return run_gf_tiers();
    } else if (arg == "--snapshot") {
      opt.snapshot_dir = next();
    } else if (arg == "--flight") {
      opt.flight_file = next();
    } else if (arg == "--node") {
      opt.node = static_cast<NodeId>(std::strtoul(next().c_str(), nullptr, 10));
    } else if (arg == "--servers") {
      opt.servers = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--ops") {
      opt.ops = std::atoi(next().c_str());
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else {
      usage(argv[0]);
    }
  }
  if (opt.demo) return run_demo(opt);
  if (!opt.snapshot_dir.empty()) return run_snapshot(opt);
  if (!opt.flight_file.empty()) return run_flight(opt);
  usage(argv[0]);
}
