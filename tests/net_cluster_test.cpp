// Multi-process battery: real causalec_server processes on loopback TCP,
// driven through ProcessCluster. Convergence is gated by the
// src/consistency checkers, and a SIGKILL + exec-restart cycle mid-writes
// must rejoin and converge (vc-equality oracle) -- the crash-recovery path
// exercised across true process boundaries, where no in-process test can
// cheat. With the daemons out of process, this process's arena counters
// also count a client alone.
//
// The server binary path arrives via the CAUSALEC_SERVER_BIN compile
// definition (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "consistency/causal_checker.h"
#include "consistency/history.h"
#include "erasure/buffer.h"
#include "net/net_client.h"
#include "net/process_cluster.h"

namespace causalec::net {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kObjects = 3;
constexpr std::size_t kValueBytes = 64;

SimTime next_tick() {
  static std::atomic<SimTime> tick{0};
  return tick.fetch_add(1, std::memory_order_relaxed) + 1;
}

erasure::Value value_for(ClientId client, std::uint64_t seq) {
  erasure::Value v(kValueBytes);
  std::uint8_t* bytes = v.begin();
  for (std::size_t i = 0; i < kValueBytes; ++i) {
    bytes[i] = static_cast<std::uint8_t>(client * 131 + seq * 11 + i);
  }
  return v;
}

/// A recording client session pinned to one server process.
struct Session {
  Session(ClientId id_in, NodeId server_in, const std::string& endpoint)
      : id(id_in), server(server_in), client(id_in) {
    connected = client.connect(endpoint, 2000);
    client.set_io_timeout_ms(8000);
  }

  bool write_op(ObjectId object) {
    const std::uint64_t seq = seq_++;
    const erasure::Value value = value_for(id, seq);
    consistency::OpRecord record;
    record.client = id;
    record.session_seq = seq;
    record.is_write = true;
    record.object = object;
    record.server = server;
    record.value_hash =
        consistency::hash_value_bytes({value.data(), value.size()});
    record.invoked_at = next_tick();
    const auto resp = client.write(seq, object, value);
    if (!resp.has_value()) return false;
    record.tag = resp->tag;
    record.timestamp = resp->vc;
    record.responded_at = next_tick();
    ops.push_back(std::move(record));
    return true;
  }

  bool read_op(ObjectId object) {
    const std::uint64_t seq = seq_++;
    consistency::OpRecord record;
    record.client = id;
    record.session_seq = seq;
    record.is_write = false;
    record.object = object;
    record.server = server;
    record.invoked_at = next_tick();
    const auto resp = client.read(seq, object);
    if (!resp.has_value()) return false;
    record.tag = resp->tag;
    record.timestamp = resp->vc;
    record.value_hash = consistency::hash_value_bytes(
        {resp->value.data(), resp->value.size()});
    record.responded_at = next_tick();
    ops.push_back(std::move(record));
    return true;
  }

  ClientId id;
  NodeId server;
  NetClient client;
  bool connected = false;
  std::vector<consistency::OpRecord> ops;

 private:
  std::uint64_t seq_ = 0;
};

ProcessClusterConfig cluster_config(bool persistence) {
  ProcessClusterConfig config;
  config.server_bin = CAUSALEC_SERVER_BIN;
  config.num_servers = 5;
  config.num_objects = kObjects;
  config.value_bytes = kValueBytes;
  config.persistence = persistence;
  config.shards = 2;
  return config;
}

void run_checkers(const consistency::History& history,
                  const std::vector<consistency::OpRecord>& finals) {
  const auto causal = consistency::check_causal_consistency(history);
  EXPECT_TRUE(causal.ok) << (causal.violations.empty()
                                 ? std::string("?")
                                 : causal.violations.front());
  const auto session = consistency::check_session_guarantees(history);
  EXPECT_TRUE(session.ok) << (session.violations.empty()
                                  ? std::string("?")
                                  : session.violations.front());
  const auto conv = consistency::check_convergence(history, finals);
  EXPECT_TRUE(conv.ok) << (conv.violations.empty()
                               ? std::string("?")
                               : conv.violations.front());
}

std::vector<consistency::OpRecord> final_reads(ProcessCluster& cluster) {
  std::vector<consistency::OpRecord> reads;
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    if (!cluster.running(i)) continue;
    Session session(700 + static_cast<ClientId>(i), static_cast<NodeId>(i),
                    cluster.endpoint(i));
    EXPECT_TRUE(session.connected) << "final reads: server " << i;
    for (ObjectId g = 0; g < kObjects; ++g) {
      EXPECT_TRUE(session.read_op(g)) << "final read s" << i << " g" << g;
    }
    for (auto& r : session.ops) reads.push_back(std::move(r));
  }
  return reads;
}

TEST(NetCluster, ConvergesUnderConcurrentLoadAcrossProcesses) {
  ProcessCluster cluster(cluster_config(/*persistence=*/false));
  ASSERT_TRUE(cluster.start());
  ASSERT_TRUE(cluster.await_ready(15s));

  constexpr std::size_t kThreads = 5;
  std::vector<std::unique_ptr<Session>> sessions;
  for (std::size_t t = 0; t < kThreads; ++t) {
    sessions.push_back(std::make_unique<Session>(
        300 + static_cast<ClientId>(t), static_cast<NodeId>(t),
        cluster.endpoint(t)));
    ASSERT_TRUE(sessions[t]->connected);
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Session& s = *sessions[t];
      for (int op = 0; op < 40; ++op) {
        const auto object = static_cast<ObjectId>((op + t) % kObjects);
        const bool ok = ((op + t) % 2 == 0) ? s.write_op(object)
                                            : s.read_op(object);
        if (!ok) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_FALSE(failed.load()) << "a client operation failed";
  ASSERT_TRUE(cluster.await_convergence(20s));

  consistency::History history;
  for (auto& s : sessions) {
    for (auto& op : s->ops) history.record(std::move(op));
  }
  EXPECT_EQ(history.size(), kThreads * 40);
  run_checkers(history, final_reads(cluster));
  EXPECT_EQ(cluster.total_error_events(), 0u);
}

TEST(NetCluster, SurvivesSigkillMidWritesAndRejoins) {
  constexpr std::size_t kVictim = 2;
  ProcessCluster cluster(cluster_config(/*persistence=*/true));
  ASSERT_TRUE(cluster.start());
  ASSERT_TRUE(cluster.await_ready(15s));

  // Seed traffic through the victim so its journal has durable state to
  // restore (the WAL logs every applied message, so one acked write is
  // enough for the restarted process to take the rejoin path). The seed
  // ops are recorded: its writes belong in the checked history.
  Session seed(400, kVictim, cluster.endpoint(kVictim));
  ASSERT_TRUE(seed.connected);
  for (ObjectId g = 0; g < kObjects; ++g) ASSERT_TRUE(seed.write_op(g));

  // Recording writers pinned to the survivors keep writing while the
  // victim is killed and restarted underneath them. Each is paced at one
  // operation per kPace, so the history, and the checkers' pairwise work
  // over it, stays the same size however fast the system runs.
  constexpr auto kPace = 1ms;
  const std::vector<std::size_t> survivors = {0, 1, 3, 4};
  std::vector<std::unique_ptr<Session>> sessions;
  for (std::size_t t = 0; t < survivors.size(); ++t) {
    sessions.push_back(std::make_unique<Session>(
        410 + static_cast<ClientId>(t),
        static_cast<NodeId>(survivors[t]),
        cluster.endpoint(survivors[t])));
    ASSERT_TRUE(sessions[t]->connected);
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < sessions.size(); ++t) {
    threads.emplace_back([&, t] {
      Session& s = *sessions[t];
      std::uint64_t op = 0;
      auto next = std::chrono::steady_clock::now();
      while (!stop.load()) {
        const auto object = static_cast<ObjectId>((op + t) % kObjects);
        const bool ok = (op % 3 == 2) ? s.read_op(object)
                                      : s.write_op(object);
        if (!ok) {
          failed.store(true);
          return;
        }
        ++op;
        next += kPace;
        std::this_thread::sleep_until(next);
      }
    });
  }

  std::this_thread::sleep_for(200ms);
  cluster.kill_server(kVictim);
  EXPECT_FALSE(cluster.running(kVictim));
  std::this_thread::sleep_for(200ms);  // writes continue while it is down
  ASSERT_TRUE(cluster.restart(kVictim));
  std::this_thread::sleep_for(200ms);  // and while it rejoins
  stop.store(true);
  for (auto& th : threads) th.join();
  ASSERT_FALSE(failed.load()) << "a survivor-pinned operation failed";

  ASSERT_TRUE(cluster.await_ready(15s));
  // The vc-equality oracle: the restarted process must catch up to the
  // exact vector clock of the survivors, transient state drained.
  ASSERT_TRUE(cluster.await_convergence(30s));

  const auto victim_stats = cluster.stats(kVictim);
  ASSERT_TRUE(victim_stats.has_value());
  EXPECT_GE(victim_stats->recoveries, 1u)
      << "restarted server did not run the recovery path";

  consistency::History history;
  for (auto& op : seed.ops) history.record(std::move(op));
  for (auto& s : sessions) {
    for (auto& op : s->ops) history.record(std::move(op));
  }
  EXPECT_GT(history.size(), kObjects);
  // Final reads include the restarted victim: after rejoin it must serve
  // the globally largest write tags like everyone else.
  run_checkers(history, final_reads(cluster));
  EXPECT_EQ(cluster.total_error_events(), 0u);
}

TEST(NetCluster, ClientRecyclesItsArenasAcrossCalls) {
  // The daemons run in their own processes, so this process's arena
  // counters (Buffer::alloc_stats) count the client alone. A NetClient
  // installs its own BufferPool for every call, so once warm, each
  // request's Writer arena and each response's read arena come from its
  // free lists. Without the pool a client takes two fresh arenas per
  // operation, and with one of the two pooled it still takes one.
  constexpr int kWarmup = 200;
  constexpr int kRoundTrips = 1000;
  constexpr double kMaxFreshArenasPerOp = 0.01;
  ProcessCluster cluster(cluster_config(/*persistence=*/false));
  ASSERT_TRUE(cluster.start());
  ASSERT_TRUE(cluster.await_ready(15s));
  NetClient client(900);
  ASSERT_TRUE(client.connect(cluster.endpoint(0), 2000));
  client.set_io_timeout_ms(8000);
  const erasure::Value value = value_for(900, 0);
  OpId opid = 0;
  const auto round_trip = [&] {
    ASSERT_TRUE(client.write(++opid, 0, value).has_value());
    ASSERT_TRUE(client.read(++opid, 0).has_value());
  };
  for (int i = 0; i < kWarmup; ++i) round_trip();
  const auto before = erasure::Buffer::alloc_stats();
  for (int i = 0; i < kRoundTrips; ++i) round_trip();
  const auto after = erasure::Buffer::alloc_stats();
  const double fresh_per_op =
      static_cast<double>(after.allocations - before.allocations) /
      (2.0 * kRoundTrips);
  EXPECT_LT(fresh_per_op, kMaxFreshArenasPerOp)
      << (after.recycled - before.recycled) << " arenas recycled";
  ASSERT_TRUE(cluster.await_convergence(20s));
  EXPECT_EQ(cluster.total_error_events(), 0u);
}

}  // namespace
}  // namespace causalec::net
