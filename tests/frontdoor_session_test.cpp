// Front-door session-guarantee battery (DESIGN.md §12): in-process
// NodeDaemons behind an in-process Router, with every routed operation
// recorded and gated by the src/consistency checkers. Running everything
// in one process keeps the router's shard threads, the daemons, and the
// client sessions visible to TSan (tools/run_sanitized_tests.sh runs this
// under all three sanitizers).
//
// The centerpiece is the stale-rejection scenario: a cache entry that is
// deliberately staled by a write the router never saw must NOT be served
// to a session whose frontier already covers that write.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "consistency/causal_checker.h"
#include "consistency/history.h"
#include "erasure/codes.h"
#include "frontdoor/router.h"
#include "frontdoor/router_client.h"
#include "net/cluster_config.h"
#include "net/net_client.h"
#include "net/node_daemon.h"
#include "net/process_cluster.h"

namespace causalec::frontdoor {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kServers = 5;
constexpr std::size_t kObjects = 3;
constexpr std::size_t kValueBytes = 64;

/// Monotonic per-process tick for OpRecord invoked_at/responded_at.
SimTime next_tick() {
  static std::atomic<SimTime> tick{0};
  return tick.fetch_add(1, std::memory_order_relaxed) + 1;
}

erasure::Value value_for(ClientId client, std::uint64_t seq) {
  erasure::Value v(kValueBytes);
  std::uint8_t* bytes = v.begin();
  for (std::size_t i = 0; i < kValueBytes; ++i) {
    bytes[i] = static_cast<std::uint8_t>(client * 151 + seq * 7 + i);
  }
  return v;
}

/// One client session through the router, recording every completed
/// operation with the Definition 6 metadata the checkers consume. The
/// OpRecord server field is diagnostics-only; routed ops use the router's
/// pseudo-id 0 because the client cannot know which backend served it.
struct RouterSession {
  RouterSession(ClientId id_in, const std::string& endpoint) : id(id_in),
                                                               client(id_in) {
    connected = client.connect(endpoint, 2000);
    client.set_io_timeout_ms(10'000);
  }

  bool write_op(ObjectId object) {
    const std::uint64_t seq = seq_++;
    const erasure::Value value = value_for(id, seq);
    consistency::OpRecord record;
    record.client = id;
    record.session_seq = seq;
    record.is_write = true;
    record.object = object;
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
    record.invoked_at = next_tick();
    const auto resp = client.read(seq, object);
    if (!resp.has_value()) return false;
    record.tag = resp->tag;
    record.timestamp = resp->vc;
    record.value_hash = consistency::hash_value_bytes(
        {resp->value.data(), resp->value.size()});
    record.responded_at = next_tick();
    last_cached = resp->cached;
    last_value = resp->value;
    last_tag = resp->tag;
    ops.push_back(std::move(record));
    return true;
  }

  ClientId id;
  RouterClient client;
  bool connected = false;
  std::vector<consistency::OpRecord> ops;
  bool last_cached = false;
  erasure::Value last_value;
  Tag last_tag;

 private:
  std::uint64_t seq_ = 0;
};

class FrontdoorSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::vector<std::uint16_t> ports =
        net::reserve_loopback_ports(kServers);
    ASSERT_EQ(ports.size(), kServers);
    for (const std::uint16_t port : ports) {
      endpoints_.push_back("127.0.0.1:" + std::to_string(port));
    }
    for (std::size_t i = 0; i < kServers; ++i) {
      net::NodeDaemonConfig config;
      config.node = static_cast<NodeId>(i);
      config.listen_port = ports[i];
      config.peers = endpoints_;
      config.shards = 2;
      daemons_.push_back(std::make_unique<net::NodeDaemon>(
          erasure::make_systematic_rs(kServers, kObjects, kValueBytes),
          std::move(config)));
    }
    for (auto& d : daemons_) d->start();
    ASSERT_TRUE(net::await_ready(endpoints_, 10s)) << "daemons never ready";

    net::ClusterConfig cluster;
    cluster.num_servers = kServers;
    cluster.num_objects = kObjects;
    cluster.value_bytes = kValueBytes;
    cluster.code = "rs";
    cluster.endpoints = endpoints_;
    cluster.groups = {{0, 1}, {2, 3, 4}};
    RouterConfig rc;
    rc.cluster = std::move(cluster);
    rc.shards = 2;
    rc.cache_capacity = 64;
    rc.cache_ttl = 0ms;  // no expiry: cache outcomes stay deterministic
    router_ = std::make_unique<Router>(std::move(rc));
    router_->start();
    ASSERT_TRUE(router_->await_backends(10s)) << "backend links never up";
    router_endpoint_ =
        "127.0.0.1:" + std::to_string(router_->listen_port());
  }

  void TearDown() override {
    if (router_ != nullptr) router_->stop();
    for (auto& d : daemons_) d->stop();
  }

  /// Reads every object directly at every server after convergence; these
  /// are the `final_reads` of check_convergence (they bypass the router on
  /// purpose -- the cache must agree with ground truth, not define it).
  std::vector<consistency::OpRecord> final_reads() {
    std::vector<consistency::OpRecord> reads;
    for (std::size_t i = 0; i < kServers; ++i) {
      net::NetClient probe(500 + static_cast<ClientId>(i));
      EXPECT_TRUE(probe.connect(endpoints_[i], 2000));
      probe.set_io_timeout_ms(5000);
      for (ObjectId g = 0; g < kObjects; ++g) {
        consistency::OpRecord record;
        record.client = 500 + static_cast<ClientId>(i);
        record.session_seq = g;
        record.is_write = false;
        record.object = g;
        record.server = static_cast<NodeId>(i);
        record.invoked_at = next_tick();
        const auto resp = probe.read(g, g);
        EXPECT_TRUE(resp.has_value()) << "final read failed at server " << i;
        if (!resp.has_value()) continue;
        record.tag = resp->tag;
        record.timestamp = resp->vc;
        record.value_hash = consistency::hash_value_bytes(
            {resp->value.data(), resp->value.size()});
        record.responded_at = next_tick();
        reads.push_back(std::move(record));
      }
    }
    return reads;
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

  std::vector<std::string> endpoints_;
  std::vector<std::unique_ptr<net::NodeDaemon>> daemons_;
  std::unique_ptr<Router> router_;
  std::string router_endpoint_;
};

TEST_F(FrontdoorSessionTest, RoutedSequentialSessionsSatisfyTheCheckers) {
  // Five sessions interleaved on one thread, every op through the router:
  // the cache serves some reads, backends the rest, and the checkers must
  // not be able to tell the difference.
  std::vector<std::unique_ptr<RouterSession>> sessions;
  for (std::size_t i = 0; i < kServers; ++i) {
    sessions.push_back(std::make_unique<RouterSession>(
        100 + static_cast<ClientId>(i), router_endpoint_));
    ASSERT_TRUE(sessions.back()->connected);
  }
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  for (int round = 0; round < 12; ++round) {
    for (auto& s : sessions) {
      const auto object = static_cast<ObjectId>(round % kObjects);
      if ((round + s->id) % 3 == 0) {
        ASSERT_TRUE(s->read_op(object));
        ++reads;
      } else {
        ASSERT_TRUE(s->write_op(object));
        ++writes;
      }
    }
  }
  ASSERT_TRUE(net::await_convergence(endpoints_, 15s));

  consistency::History history;
  for (auto& s : sessions) {
    for (auto& op : s->ops) history.record(std::move(op));
  }
  run_checkers(history, final_reads());
  EXPECT_EQ(net::total_error_events(endpoints_), 0u);

  // The router's counters must partition its traffic exactly.
  const net::RouterStatsResp s = router_->stats();
  EXPECT_EQ(s.routed_writes, writes);
  EXPECT_EQ(s.routed_reads, reads);
  EXPECT_EQ(s.routed_reads,
            s.cache_hits + s.cache_misses + s.cache_stale + s.cache_expired);
  EXPECT_EQ(s.fallthroughs,
            s.cache_misses + s.cache_stale + s.cache_expired);
  EXPECT_EQ(s.reroutes, 0u) << "no backend died; nothing may reroute";
  std::uint64_t forwarded = 0;
  for (const std::uint64_t n : s.backend_ops) forwarded += n;
  EXPECT_EQ(forwarded, writes + s.fallthroughs);

  // The wire's router_stats_resp carries the same block.
  RouterClient probe(199);
  ASSERT_TRUE(probe.connect(router_endpoint_, 2000));
  EXPECT_EQ(probe.router_stats(), s);
}

TEST_F(FrontdoorSessionTest, ConcurrentRoutedClientsSatisfyTheCheckers) {
  // Eight concurrent sessions hammering mixed reads/writes from their own
  // threads: the TSan-visible version of the front-door deployment.
  constexpr std::size_t kThreads = 8;
  std::vector<std::unique_ptr<RouterSession>> sessions;
  for (std::size_t t = 0; t < kThreads; ++t) {
    sessions.push_back(std::make_unique<RouterSession>(
        200 + static_cast<ClientId>(t), router_endpoint_));
    ASSERT_TRUE(sessions[t]->connected);
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RouterSession& s = *sessions[t];
      for (int op = 0; op < 30; ++op) {
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
  ASSERT_FALSE(failed.load()) << "a routed operation failed";
  ASSERT_TRUE(net::await_convergence(endpoints_, 15s));

  consistency::History history;
  for (auto& s : sessions) {
    for (auto& op : s->ops) history.record(std::move(op));
  }
  EXPECT_EQ(history.size(), kThreads * 30);
  run_checkers(history, final_reads());
  EXPECT_EQ(net::total_error_events(endpoints_), 0u);
}

TEST_F(FrontdoorSessionTest, ReadAfterWriteIsServedFromTheCache) {
  // A routed write installs its own witness at the write's tag timestamp,
  // and that is exactly the session's frontier after the write: the backend
  // parks the write until its clock covers the frontier, and answers with
  // the clock the write's tag carries. With no other traffic, every read of
  // the object just written is therefore a cache hit, and the cache
  // counters are exact.
  constexpr int kRounds = 10;
  constexpr int kReadsPerWrite = 10;
  constexpr std::uint64_t kReads = kRounds * kObjects * kReadsPerWrite;
  RouterSession s(300, router_endpoint_);
  ASSERT_TRUE(s.connected);
  const net::RouterStatsResp before = router_->stats();
  std::uint64_t served_cached = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (ObjectId g = 0; g < kObjects; ++g) {
      ASSERT_TRUE(s.write_op(g));
      const std::uint64_t written = s.ops.back().value_hash;
      for (int r = 0; r < kReadsPerWrite; ++r) {
        ASSERT_TRUE(s.read_op(g));
        if (s.last_cached) ++served_cached;
        EXPECT_EQ(s.ops.back().value_hash, written)
            << "round " << round << " object " << g;
      }
    }
  }
  const net::RouterStatsResp after = router_->stats();
  EXPECT_EQ(served_cached, kReads);
  EXPECT_EQ(after.cache_hits - before.cache_hits, kReads);
  EXPECT_EQ(after.cache_misses - before.cache_misses, 0u);
  EXPECT_EQ(after.cache_stale - before.cache_stale, 0u);
  EXPECT_EQ(after.cache_expired - before.cache_expired, 0u);

  ASSERT_TRUE(net::await_convergence(endpoints_, 15s));
  consistency::History history;
  for (auto& op : s.ops) history.record(std::move(op));
  run_checkers(history, final_reads());
  EXPECT_EQ(net::total_error_events(endpoints_), 0u);
}

TEST_F(FrontdoorSessionTest, StaleCacheEntryIsRejectedWhenFrontierIsAhead) {
  // 1. A routed write installs a cache witness for object 0.
  RouterSession a(310, router_endpoint_);
  ASSERT_TRUE(a.connected);
  ASSERT_TRUE(a.write_op(0));
  const Tag tag_v1 = a.ops.back().tag;

  // 2. A direct client writes object 0 *behind the router's back* at
  //    server 2, after server 2 has provably seen v1 (so the new tag
  //    strictly dominates v1's and the LWW winner is unambiguous).
  net::NetClient direct(311);
  ASSERT_TRUE(direct.connect(endpoints_[2], 2000));
  direct.set_io_timeout_ms(5000);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  bool v1_visible = false;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto peek = direct.read(900, 0);
    ASSERT_TRUE(peek.has_value());
    if (peek->tag == tag_v1) {
      v1_visible = true;
      break;
    }
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(v1_visible) << "v1 never propagated to server 2";

  const erasure::Value v2 = value_for(311, 0);
  consistency::OpRecord direct_record;
  direct_record.client = 311;
  direct_record.session_seq = 0;
  direct_record.is_write = true;
  direct_record.object = 0;
  direct_record.server = 2;
  direct_record.value_hash =
      consistency::hash_value_bytes({v2.data(), v2.size()});
  direct_record.invoked_at = next_tick();
  const auto wresp = direct.write(901, 0, v2);
  ASSERT_TRUE(wresp.has_value());
  direct_record.tag = wresp->tag;
  direct_record.timestamp = wresp->vc;
  direct_record.responded_at = next_tick();
  const Tag tag_v2 = wresp->tag;

  // 3. A session whose frontier already covers v2 reads through the
  //    router. The cached v1 witness is STALE for this frontier: serving
  //    it would violate monotonic reads. The router must fall through.
  const std::uint64_t stale_before = router_->stats().cache_stale;
  RouterSession b(312, router_endpoint_);
  ASSERT_TRUE(b.connected);
  b.client.set_frontier(wresp->vc);
  ASSERT_TRUE(b.read_op(0));
  EXPECT_FALSE(b.last_cached)
      << "a stale witness must never be served from the cache";
  EXPECT_EQ(b.last_tag, tag_v2);
  EXPECT_EQ(consistency::hash_value_bytes(
                {b.last_value.data(), b.last_value.size()}),
            consistency::hash_value_bytes({v2.data(), v2.size()}));
  EXPECT_GE(router_->stats().cache_stale, stale_before + 1);

  // 4. The full interleaving still satisfies every checker.
  ASSERT_TRUE(net::await_convergence(endpoints_, 15s));
  consistency::History history;
  for (auto& op : a.ops) history.record(std::move(op));
  history.record(std::move(direct_record));
  for (auto& op : b.ops) history.record(std::move(op));
  run_checkers(history, final_reads());
  EXPECT_EQ(net::total_error_events(endpoints_), 0u);
}

}  // namespace
}  // namespace causalec::frontdoor
