// Tests for the threaded runtime: the same server automaton on real OS
// threads with real serialized bytes crossing node boundaries.
//
// These tests use wall-clock time; horizons are kept small and generous so
// they are robust on loaded machines.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "erasure/buffer.h"
#include "erasure/codes.h"
#include "obs/trace.h"
#include "runtime/threaded_cluster.h"

namespace causalec::runtime {
namespace {

using erasure::Value;
using namespace std::chrono_literals;

constexpr std::size_t kValueBytes = 64;

Value val(std::uint8_t fill) { return Value(kValueBytes, fill); }

TEST(ThreadedRuntimeTest, WriteThenReadEverywhere) {
  ThreadedClusterConfig config;
  config.gc_period = 10ms;
  ThreadedCluster cluster(erasure::make_systematic_rs(5, 3, kValueBytes),
                          config);
  const Tag t = cluster.write(0, /*client=*/1, /*object=*/2, val(42));
  EXPECT_EQ(t.ts[0], 1u);
  ASSERT_TRUE(cluster.await_convergence(5000ms));
  for (NodeId s = 0; s < 5; ++s) {
    const auto [value, tag] = cluster.read(s, /*client=*/10 + s, 2);
    EXPECT_EQ(value, val(42)) << "server " << s;
    EXPECT_EQ(tag, t) << "server " << s;
  }
  EXPECT_EQ(cluster.total_error_events(), 0u);
}

TEST(ThreadedRuntimeTest, StorageConvergesToCodePrescription) {
  ThreadedClusterConfig config;
  config.gc_period = 5ms;
  ThreadedCluster cluster(erasure::make_paper_5_3(kValueBytes), config);
  for (int i = 0; i < 10; ++i) {
    // F257 values: even bytes only.
    Value v(kValueBytes, 0);
    for (std::size_t b = 0; b < v.size(); b += 2) {
      v[b] = static_cast<std::uint8_t>(i + 1);
    }
    cluster.write(static_cast<NodeId>(i % 5), 1 + i % 3,
                  static_cast<ObjectId>(i % 3), std::move(v));
  }
  ASSERT_TRUE(cluster.await_convergence(5000ms));
  for (NodeId s = 0; s < 5; ++s) {
    const auto stats = cluster.storage(s);
    EXPECT_EQ(stats.history_entries, 0u) << "server " << s;
    EXPECT_EQ(stats.codeword_bytes, kValueBytes);
  }
  EXPECT_EQ(cluster.total_error_events(), 0u);
}

TEST(ThreadedRuntimeTest, ConcurrentWritersConvergeToOneWinner) {
  ThreadedClusterConfig config;
  config.gc_period = 5ms;
  ThreadedCluster cluster(erasure::make_systematic_rs(6, 4, kValueBytes),
                          config);
  // Four external threads hammer different servers concurrently.
  std::vector<std::thread> writers;
  std::atomic<int> sequence{0};
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&cluster, &sequence, w] {
      for (int i = 0; i < 25; ++i) {
        const int n = sequence.fetch_add(1);
        cluster.write(static_cast<NodeId>(w), /*client=*/100 + w,
                      /*object=*/1,
                      Value(kValueBytes, static_cast<std::uint8_t>(n)));
      }
    });
  }
  for (auto& t : writers) t.join();
  ASSERT_TRUE(cluster.await_convergence(10000ms));

  // Every server returns the same (LWW) winner.
  const auto [value0, tag0] = cluster.read(0, 200, 1);
  for (NodeId s = 1; s < 6; ++s) {
    const auto [value, tag] = cluster.read(s, 200 + s, 1);
    EXPECT_EQ(tag, tag0) << "server " << s;
    EXPECT_EQ(value, value0) << "server " << s;
  }
  EXPECT_EQ(cluster.total_error_events(), 0u);
}

TEST(ThreadedRuntimeTest, ConcurrentReadersDuringWrites) {
  ThreadedClusterConfig config;
  config.gc_period = 5ms;
  ThreadedCluster cluster(erasure::make_systematic_rs(5, 3, kValueBytes),
                          config);
  std::atomic<bool> stop{false};
  std::atomic<int> reads_done{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load()) {
        const auto [value, tag] =
            cluster.read(static_cast<NodeId>(r + 2), 300 + r,
                         static_cast<ObjectId>(r % 3));
        (void)value;
        (void)tag;
        reads_done.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 30; ++i) {
    cluster.write(static_cast<NodeId>(i % 5), 50, static_cast<ObjectId>(i % 3),
                  Value(kValueBytes, static_cast<std::uint8_t>(i)));
    std::this_thread::sleep_for(1ms);
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(reads_done.load(), 10);
  ASSERT_TRUE(cluster.await_convergence(10000ms));
  EXPECT_EQ(cluster.total_error_events(), 0u);
}

TEST(ThreadedRuntimeTest, ConcurrentReadsSharePlanCache) {
  // Many reader threads decoding through one shared Code instance: the
  // decode-plan cache is hit concurrently from the server threads (TSan
  // covers the shared_mutex + shared_ptr handoff via the sanitizer suite).
  // Keeping our own CodePtr lets us inspect cache counters afterwards.
  const erasure::CodePtr code =
      erasure::make_six_dc_cross_object(kValueBytes);
  ThreadedClusterConfig config;
  config.gc_period = 5ms;
  ThreadedCluster cluster(code, config);
  for (ObjectId obj = 0; obj < 4; ++obj) {
    cluster.write(0, /*client=*/1, obj,
                  Value(kValueBytes, static_cast<std::uint8_t>(obj + 1)));
  }
  ASSERT_TRUE(cluster.await_convergence(10000ms));

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      int i = 0;
      while (!stop.load()) {
        const auto [value, tag] =
            cluster.read(static_cast<NodeId>((r + i) % 6), 400 + r,
                         static_cast<ObjectId>(i % 4));
        EXPECT_EQ(value.size(), kValueBytes);
        ++i;
      }
    });
  }
  std::this_thread::sleep_for(50ms);
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(cluster.total_error_events(), 0u);

  // Each (object, server-set) shape is eliminated at most once; repeats hit.
  const auto stats = code->decode_plan_cache_stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_LE(stats.entries, stats.misses);
}

TEST(ThreadedRuntimeTest, WarmDataPathRecyclesPayloadArenas) {
  // The arena-pool property counted (DESIGN.md §5.4): once every node's
  // BufferPool is warm, 4 KiB writes and reads on the serialized data path
  // take far fewer than one fresh payload arena per operation: 0.003-0.33
  // under ctest -j4 load. With no pool on the automaton thread it takes
  // ~1.5 per op, and serializing a multicast once per target ~2.
  constexpr std::size_t kBytes = 4096;
  constexpr int kThreads = 4;
  constexpr int kWarmupOps = 500;
  constexpr int kOps = 2000;
  constexpr double kMaxFreshArenasPerOp = 0.6;
  ThreadedClusterConfig config;
  config.gc_period = 10ms;
  ThreadedCluster cluster(erasure::make_six_dc_cross_object(kBytes), config);
  const std::size_t n = cluster.num_servers();
  constexpr ObjectId kObjects = 4;
  for (ObjectId g = 0; g < kObjects; ++g) {
    cluster.write(static_cast<NodeId>(g % n), /*client=*/1, g,
                  Value(kBytes, static_cast<std::uint8_t>(g + 1)));
  }
  ASSERT_TRUE(cluster.await_convergence(10000ms));

  // Each thread alternates writes and reads of its own object at its own
  // server, like the closed loop of perfbench's inproc-mixed.
  const auto run = [&](int ops) {
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        const auto at = static_cast<NodeId>(t % n);
        const auto object = static_cast<ObjectId>(t % kObjects);
        const Value payload(kBytes, static_cast<std::uint8_t>(t + 10));
        for (int i = 0; i < ops; ++i) {
          if (i % 2 == 0) {
            cluster.write(at, 100 + t, object, payload);
          } else {
            (void)cluster.read(at, 100 + t, object);
          }
        }
      });
    }
    for (auto& c : clients) c.join();
  };
  run(kWarmupOps);
  const auto before = erasure::Buffer::alloc_stats();
  run(kOps);
  const auto after = erasure::Buffer::alloc_stats();
  const double fresh_per_op =
      static_cast<double>(after.allocations - before.allocations) /
      (kThreads * kOps);
  EXPECT_LT(fresh_per_op, kMaxFreshArenasPerOp)
      << (after.recycled - before.recycled) << " arenas recycled";
  ASSERT_TRUE(cluster.await_convergence(10000ms));
  EXPECT_EQ(cluster.total_error_events(), 0u);
}

TEST(ThreadedRuntimeTest, WriteIsAnsweredBeforeItsAppsLeave) {
  // A write's app messages wait in its round's outbox, so on the writer's
  // lane every send of them comes after the end of the write's span (the
  // server answers at the span's end). A runtime that sent them from
  // inside the write would record them within the span.
  obs::Tracer tracer;
  ThreadedClusterConfig config;
  config.obs.tracer = &tracer;
  ThreadedCluster cluster(erasure::make_systematic_rs(5, 3, kValueBytes),
                          config);
  constexpr int kWrites = 20;
  for (int i = 0; i < kWrites; ++i) {
    cluster.write(static_cast<NodeId>(i % 5), /*client=*/1 + i % 5,
                  static_cast<ObjectId>(i % 3),
                  val(static_cast<std::uint8_t>(i)));
  }
  ASSERT_TRUE(cluster.await_convergence(5000ms));

  const auto trace_of = [](const obs::TraceEvent& e) {
    for (const obs::TraceArg& arg : e.args) {
      if (arg.key == "trace") return arg.value;
    }
    return std::string();
  };
  const std::vector<obs::TraceEvent> events = tracer.events();
  std::map<std::string, const obs::TraceEvent*> writes;  // by trace id
  for (const obs::TraceEvent& e : events) {
    if (e.name == "write" && e.phase == 'X') writes[trace_of(e)] = &e;
  }
  ASSERT_EQ(writes.size(), static_cast<std::size_t>(kWrites));
  std::map<std::string, int> sends;
  for (const obs::TraceEvent& e : events) {
    if (e.name != "flow.app" || e.phase != 's') continue;
    const auto write = writes.find(trace_of(e));
    ASSERT_NE(write, writes.end());
    const obs::TraceEvent& span = *write->second;
    EXPECT_EQ(e.node, span.node);
    EXPECT_GE(e.ts_ns, span.ts_ns + span.dur_ns)
        << "an app left inside its write's span";
    ++sends[write->first];
  }
  for (const auto& [trace, write] : writes) {
    EXPECT_EQ(sends[trace], 4) << "write " << trace;
  }
}

TEST(ThreadedRuntimeTest, DirectMessagePassingModeWorksToo) {
  ThreadedClusterConfig config;
  config.gc_period = 5ms;
  config.serialize_messages = false;  // skip the codec
  ThreadedCluster cluster(erasure::make_systematic_rs(4, 2, kValueBytes),
                          config);
  const Tag t = cluster.write(0, 1, 0, val(7));
  ASSERT_TRUE(cluster.await_convergence(5000ms));
  const auto [value, tag] = cluster.read(3, 2, 0);
  EXPECT_EQ(value, val(7));
  EXPECT_EQ(tag, t);
}

TEST(ThreadedRuntimeTest, ReadYourWritesAcrossOperations) {
  ThreadedClusterConfig config;
  ThreadedCluster cluster(erasure::make_systematic_rs(5, 3, kValueBytes),
                          config);
  for (int i = 1; i <= 5; ++i) {
    const Tag wt = cluster.write(2, 7, 1,
                                 Value(kValueBytes,
                                       static_cast<std::uint8_t>(i)));
    const auto [value, tag] = cluster.read(2, 7, 1);
    EXPECT_GE(tag, wt) << "iteration " << i;  // read-your-writes
    EXPECT_EQ(value[0], static_cast<std::uint8_t>(i));
  }
}

}  // namespace
}  // namespace causalec::runtime
