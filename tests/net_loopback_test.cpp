// In-process NodeDaemons over real loopback TCP, gated by the
// src/consistency checkers. Running the daemons inside one process keeps
// every thread visible to TSan (tools/run_sanitized_tests.sh runs this
// under all three sanitizers); tests/net_cluster_test.cpp is the separate
// multi-process battery.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "causalec/codec.h"
#include "consistency/causal_checker.h"
#include "consistency/history.h"
#include "erasure/codes.h"
#include "net/frame.h"
#include "net/net_client.h"
#include "net/node_daemon.h"
#include "net/process_cluster.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace causalec::net {
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

/// One client session pinned to one server, recording every completed
/// operation with the Definition 6 metadata the checkers consume.
struct Session {
  Session(ClientId id_in, NodeId server_in, const std::string& endpoint)
      : id(id_in), server(server_in), client(id_in) {
    connected = client.connect(endpoint, 2000);
    client.set_io_timeout_ms(5000);
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

class NetLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::vector<std::uint16_t> ports = reserve_loopback_ports(kServers);
    ASSERT_EQ(ports.size(), kServers);
    std::vector<std::string> peers;
    for (const std::uint16_t port : ports) {
      peers.push_back("127.0.0.1:" + std::to_string(port));
    }
    endpoints_ = peers;
    for (std::size_t i = 0; i < kServers; ++i) {
      NodeDaemonConfig config;
      config.node = static_cast<NodeId>(i);
      config.listen_port = ports[i];
      config.peers = peers;
      config.shards = 2;
      config.server.obs.metrics = &metrics_;
      daemons_.push_back(std::make_unique<NodeDaemon>(
          erasure::make_systematic_rs(kServers, kObjects, kValueBytes),
          std::move(config)));
    }
    for (auto& d : daemons_) d->start();
    for (std::size_t i = 0; i < kServers; ++i) {
      ASSERT_TRUE(await_server_ready(i)) << "server " << i << " never ready";
    }
  }

  void TearDown() override {
    for (auto& d : daemons_) d->stop();
  }

  bool await_server_ready(std::size_t i) {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (std::chrono::steady_clock::now() < deadline) {
      NetClient probe(9000 + static_cast<ClientId>(i));
      if (probe.connect(endpoints_[i], 250)) {
        probe.set_io_timeout_ms(1000);
        const auto pong = probe.ping(42);
        if (pong.has_value() && pong->ready) return true;
      }
      std::this_thread::sleep_for(20ms);
    }
    return false;
  }

  /// VC equality + drained transient state across all servers, stable for
  /// two polls -- the same oracle as ProcessCluster::await_convergence.
  bool await_convergence(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    int stable = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      bool converged = true;
      std::optional<VectorClock> reference;
      for (std::size_t i = 0; i < kServers && converged; ++i) {
        NetClient probe(9100 + static_cast<ClientId>(i));
        if (!probe.connect(endpoints_[i], 500)) {
          converged = false;
          break;
        }
        probe.set_io_timeout_ms(2000);
        const auto s = probe.stats();
        if (!s.has_value() || s->history_entries != 0 ||
            s->inqueue_entries != 0 || s->readl_entries != 0) {
          converged = false;
          break;
        }
        if (!reference.has_value()) {
          reference = s->vc;
        } else if (!(*reference == s->vc)) {
          converged = false;
        }
      }
      if (converged && ++stable >= 2) return true;
      if (!converged) stable = 0;
      std::this_thread::sleep_for(20ms);
    }
    return false;
  }

  std::uint64_t total_error_events() {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kServers; ++i) {
      NetClient probe(9200 + static_cast<ClientId>(i));
      if (!probe.connect(endpoints_[i], 500)) continue;
      const auto s = probe.stats();
      if (s.has_value()) total += s->error_events;
    }
    return total;
  }

  /// Reads every object through every server after convergence; these are
  /// the `final_reads` of check_convergence.
  std::vector<consistency::OpRecord> final_reads() {
    std::vector<consistency::OpRecord> reads;
    for (std::size_t i = 0; i < kServers; ++i) {
      Session session(500 + static_cast<ClientId>(i),
                      static_cast<NodeId>(i), endpoints_[i]);
      EXPECT_TRUE(session.connected);
      for (ObjectId g = 0; g < kObjects; ++g) {
        EXPECT_TRUE(session.read_op(g));
      }
      for (auto& r : session.ops) reads.push_back(std::move(r));
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
  /// Shared by every daemon (the registry is thread-safe).
  obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<NodeDaemon>> daemons_;
};

TEST_F(NetLoopbackTest, SequentialSessionsSatisfyTheCheckers) {
  // One session per server, single test thread interleaving them: every
  // write propagates over real TCP multicast before some later read on
  // another server observes (or legitimately misses) it.
  std::vector<std::unique_ptr<Session>> sessions;
  for (std::size_t i = 0; i < kServers; ++i) {
    sessions.push_back(std::make_unique<Session>(
        100 + static_cast<ClientId>(i), static_cast<NodeId>(i),
        endpoints_[i]));
    ASSERT_TRUE(sessions.back()->connected);
  }
  for (int round = 0; round < 12; ++round) {
    for (auto& s : sessions) {
      const auto object = static_cast<ObjectId>(round % kObjects);
      if ((round + s->id) % 3 == 0) {
        ASSERT_TRUE(s->read_op(object));
      } else {
        ASSERT_TRUE(s->write_op(object));
      }
    }
  }
  ASSERT_TRUE(await_convergence(15s));

  consistency::History history;
  for (auto& s : sessions) {
    for (auto& op : s->ops) history.record(std::move(op));
  }
  run_checkers(history, final_reads());
  EXPECT_EQ(total_error_events(), 0u);
}

TEST_F(NetLoopbackTest, ConcurrentClientsSatisfyTheCheckers) {
  // Two concurrent sessions per server hammering mixed reads/writes from
  // their own threads: the TSan-visible version of the real deployment.
  constexpr std::size_t kThreads = 2 * kServers;
  std::vector<std::unique_ptr<Session>> sessions;
  for (std::size_t t = 0; t < kThreads; ++t) {
    sessions.push_back(std::make_unique<Session>(
        200 + static_cast<ClientId>(t),
        static_cast<NodeId>(t % kServers), endpoints_[t % kServers]));
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
  ASSERT_TRUE(await_convergence(15s));

  consistency::History history;
  for (auto& s : sessions) {
    for (auto& op : s->ops) history.record(std::move(op));
  }
  EXPECT_EQ(history.size(), kThreads * 40);
  run_checkers(history, final_reads());
  EXPECT_EQ(total_error_events(), 0u);
}

TEST_F(NetLoopbackTest, DaemonsRecordTheRuntimePhases) {
  // The daemons drive their servers through the same AutomatonLoop as
  // ThreadedCluster, so they fill the same runtime metrics that
  // ObsFlowTest.ThreadedClusterFlowsPhasesAndMailboxGauge checks there.
  Session writer(300, 0, endpoints_[0]);
  ASSERT_TRUE(writer.connected);
  for (ObjectId x = 0; x < kObjects; ++x) ASSERT_TRUE(writer.write_op(x));
  ASSERT_TRUE(await_convergence(15s));

  const obs::MetricsSnapshot snap = metrics_.snapshot();
  EXPECT_GT(snap.histograms.at("phase.queue_wait_ns").count, 0u);
  EXPECT_GT(snap.histograms.at("phase.deserialize_ns").count, 0u);
  EXPECT_GT(snap.histograms.at("phase.serialize_ns").count, 0u);
  // Every server drained at least one peer frame (apps or dels).
  for (std::size_t s = 0; s < kServers; ++s) {
    const auto gauge =
        snap.gauges.find("runtime.mailbox_depth.s" + std::to_string(s));
    ASSERT_NE(gauge, snap.gauges.end()) << "server " << s;
    EXPECT_GT(gauge->second, 0) << "server " << s;
  }
}

TEST_F(NetLoopbackTest, MalformedPeerFrameIsDroppedNotFatal) {
  // A connection that said Hello as server 1 sends a protocol frame (type
  // < 64) cut short: server 0 must log and drop it, then keep serving.
  const auto addr = parse_host_port(endpoints_[0]);
  ASSERT_TRUE(addr.has_value());
  ScopedFd fd = connect_tcp_blocking(addr->first, addr->second, 2000);
  ASSERT_TRUE(fd.valid());
  Hello hello;
  hello.role = PeerRole::kServer;
  hello.node = 1;
  const std::vector<std::uint8_t> app = serialize_message(
      AppMessage(0, erasure::Value(kValueBytes, 7),
                 Tag(VectorClock(kServers), 1), WireModel{}));
  const std::vector<std::uint8_t> truncated(app.begin(),
                                            app.begin() + app.size() / 2);
  ASSERT_LT(truncated.front(), kClientProtoBase);
  for (const erasure::Buffer& frame :
       {encode_frame(encode_hello(hello)), encode_frame(truncated)}) {
    ASSERT_EQ(::send(fd.get(), frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
  }

  Session session(400, 0, endpoints_[0]);
  ASSERT_TRUE(session.connected);
  ASSERT_TRUE(session.write_op(1));
  ASSERT_TRUE(session.read_op(1));
  ASSERT_TRUE(await_convergence(15s));
  EXPECT_EQ(total_error_events(), 0u);
}

TEST_F(NetLoopbackTest, FanOutDoesNotDependOnTheAck) {
  // Raw clients send Hello and one WriteReq each, then close without
  // reading the reply, so the daemon's ack meets a closing socket or a
  // closed connection. The write's peer frames, held back until the ack is
  // sent, must go out all the same.
  for (NodeId s = 0; s < kObjects; ++s) {
    const auto addr = parse_host_port(endpoints_[s]);
    ASSERT_TRUE(addr.has_value());
    ScopedFd fd = connect_tcp_blocking(addr->first, addr->second, 2000);
    ASSERT_TRUE(fd.valid());
    Hello hello;
    hello.role = PeerRole::kClient;
    WriteReq req;
    req.opid = 1;
    req.client = 600 + s;
    req.object = s;  // server s writes object s
    req.value = value_for(req.client, 0);
    for (const erasure::Buffer& frame :
         {encode_frame(encode_hello(hello)),
          encode_frame(encode_write_req(req))}) {
      ASSERT_EQ(::send(fd.get(), frame.data(), frame.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(frame.size()));
    }
  }
  ASSERT_TRUE(await_convergence(15s));

  for (std::size_t i = 0; i < kServers; ++i) {
    Session reader(700 + static_cast<ClientId>(i), static_cast<NodeId>(i),
                   endpoints_[i]);
    ASSERT_TRUE(reader.connected);
    for (ObjectId g = 0; g < kObjects; ++g) {
      ASSERT_TRUE(reader.read_op(g));
      const erasure::Value want = value_for(600 + g, 0);
      EXPECT_EQ(reader.ops.back().value_hash,
                consistency::hash_value_bytes({want.data(), want.size()}))
          << "server " << i << " object " << g;
    }
  }
  EXPECT_EQ(total_error_events(), 0u);
}

}  // namespace
}  // namespace causalec::net
