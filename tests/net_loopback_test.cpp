// In-process NodeDaemons over real loopback TCP, gated by the
// src/consistency checkers. Running the daemons inside one process keeps
// every thread visible to TSan (tools/run_sanitized_tests.sh runs this
// under all three sanitizers); tests/net_cluster_test.cpp is the separate
// multi-process battery.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
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

/// The voluntary context switches of this process's threads whose names
/// contain `tag`, summed, and how many such threads there are.
struct ThreadSwitches {
  std::size_t threads = 0;
  std::uint64_t voluntary = 0;
};

ThreadSwitches voluntary_switches(const std::string& tag) {
  ThreadSwitches out;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    if (!std::getline(comm, name) || name.find(tag) == std::string::npos) {
      continue;
    }
    std::ifstream status(task.path() / "status");
    const std::string key = "voluntary_ctxt_switches:";
    for (std::string line; std::getline(status, line);) {
      if (line.compare(0, key.size(), key) == 0) {
        out.voluntary += std::stoull(line.substr(key.size()));
        ++out.threads;
        break;
      }
    }
  }
  return out;
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
  /// Per-fixture daemon knobs, applied before the daemons are built.
  virtual void configure(NodeDaemonConfig& config) { (void)config; }

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
      configure(config);
      daemons_.push_back(std::make_unique<NodeDaemon>(
          erasure::make_systematic_rs(kServers, kObjects, kValueBytes),
          std::move(config)));
    }
    for (auto& d : daemons_) d->start();
    ASSERT_TRUE(await_ready(endpoints_, 10s)) << "daemons never ready";
  }

  void TearDown() override {
    for (auto& d : daemons_) d->stop();
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
  ASSERT_TRUE(await_convergence(endpoints_, 15s));

  consistency::History history;
  for (auto& s : sessions) {
    for (auto& op : s->ops) history.record(std::move(op));
  }
  run_checkers(history, final_reads());
  EXPECT_EQ(total_error_events(endpoints_), 0u);
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
  ASSERT_TRUE(await_convergence(endpoints_, 15s));

  consistency::History history;
  for (auto& s : sessions) {
    for (auto& op : s->ops) history.record(std::move(op));
  }
  EXPECT_EQ(history.size(), kThreads * 40);
  run_checkers(history, final_reads());
  EXPECT_EQ(total_error_events(endpoints_), 0u);
}

TEST_F(NetLoopbackTest, ShardThreadsSleepWhileRequestsFlow) {
  // A daemon serves every connection on its automaton's loop; its shard
  // threads (s<node>-shard<i>) only accept. So once the sessions are
  // connected, client operations do not wake the shards at all: a shard
  // that read each request and handed it on would sleep and wake about
  // once per operation.
  constexpr std::size_t kOps = 4000;
  std::vector<std::unique_ptr<Session>> sessions;
  for (std::size_t i = 0; i < kServers; ++i) {
    sessions.push_back(std::make_unique<Session>(
        250 + static_cast<ClientId>(i), static_cast<NodeId>(i),
        endpoints_[i]));
    ASSERT_TRUE(sessions.back()->connected);
    ASSERT_TRUE(sessions.back()->write_op(0));  // accepted and served
  }
  const ThreadSwitches before = voluntary_switches("-shard");
  ASSERT_EQ(before.threads, 2 * kServers);
  for (std::size_t op = 0; op < kOps; ++op) {
    Session& s = *sessions[op % kServers];
    const auto object = static_cast<ObjectId>(op % kObjects);
    ASSERT_TRUE(op % 2 == 0 ? s.write_op(object) : s.read_op(object));
  }
  const ThreadSwitches after = voluntary_switches("-shard");
  EXPECT_EQ(after.threads, before.threads);
  EXPECT_LT(after.voluntary - before.voluntary, kOps / 20)
      << "shard threads woke for client operations";
}

TEST_F(NetLoopbackTest, DaemonsRecordTheRuntimePhases) {
  // The daemons drive their servers through the same AutomatonLoop as
  // ThreadedCluster, so they fill the same runtime metrics that
  // ObsFlowTest.ThreadedClusterFlowsPhasesAndMailboxGauge checks there.
  // Here the automaton thread reads its peers' connections itself: a
  // frame's queue wait runs from the wake of the loop round that read it
  // to its dispatch, and the mailbox gauge counts a round's peer frames.
  Session writer(300, 0, endpoints_[0]);
  ASSERT_TRUE(writer.connected);
  for (ObjectId x = 0; x < kObjects; ++x) ASSERT_TRUE(writer.write_op(x));
  ASSERT_TRUE(await_convergence(endpoints_, 15s));

  const obs::MetricsSnapshot snap = metrics_.snapshot();
  EXPECT_GT(snap.histograms.at("phase.queue_wait_ns").count, 0u);
  const std::uint64_t deserialized =
      snap.histograms.at("phase.deserialize_ns").count;
  const std::uint64_t serialized =
      snap.histograms.at("phase.serialize_ns").count;
  EXPECT_GT(serialized, 0u);
  // One serialization per multicast, decoded by each of the n-1 targets
  // (Sec. 4.2: one value-sized multicast per write). The unicast val_inq /
  // val_resp frames keep the ratio under n-1; a transport that serialized
  // once per target would bring it down to 1.
  EXPECT_GE(deserialized, 2 * serialized)
      << deserialized << " frames decoded for " << serialized << " encoded";
  // Every server's automaton read at least one peer frame (apps or dels).
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
  const erasure::Buffer app = serialize_message_frame(
      AppMessage(0, erasure::Value(kValueBytes, 7),
                 Tag(VectorClock(kServers), 1), WireModel{}));
  const erasure::Buffer truncated = app.slice(0, app.size() / 2);
  ASSERT_LT(truncated.data()[0], kClientProtoBase);
  for (const erasure::Buffer& frame :
       {framed(encode_hello(hello)), framed(truncated)}) {
    ASSERT_EQ(::send(fd.get(), frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
  }

  Session session(400, 0, endpoints_[0]);
  ASSERT_TRUE(session.connected);
  ASSERT_TRUE(session.write_op(1));
  ASSERT_TRUE(session.read_op(1));
  ASSERT_TRUE(await_convergence(endpoints_, 15s));
  EXPECT_EQ(total_error_events(endpoints_), 0u);
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
         {framed(encode_hello(hello)), framed(encode_write_req(req))}) {
      ASSERT_EQ(::send(fd.get(), frame.data(), frame.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(frame.size()));
    }
  }
  ASSERT_TRUE(await_convergence(endpoints_, 15s));

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
  EXPECT_EQ(total_error_events(endpoints_), 0u);
}

TEST_F(NetLoopbackTest, HelloDecidesWhatAConnectionMaySend) {
  // The front end answers a client's Ping after its Hello. A peer Hello
  // naming this node or no node of the cluster closes the connection, and
  // so does a client frame on a peer connection.
  struct Case {
    Hello hello;
    bool ping;
    bool answered;
  };
  const Case cases[] = {
      {{PeerRole::kClient, 99}, true, true},
      {{PeerRole::kServer, 0}, false, false},
      {{PeerRole::kServer, kServers}, false, false},
      {{PeerRole::kServer, 1}, true, false},
  };
  const auto addr = parse_host_port(endpoints_[0]);
  ASSERT_TRUE(addr.has_value());
  for (const Case& c : cases) {
    SCOPED_TRACE("role " + std::to_string(static_cast<int>(c.hello.role)) +
                 " node " + std::to_string(c.hello.node));
    ScopedFd fd = connect_tcp_blocking(addr->first, addr->second, 2000);
    ASSERT_TRUE(fd.valid());
    std::vector<std::uint8_t> bytes;
    for (const auto& payload :
         {encode_hello(c.hello), encode_ping(Ping{77})}) {
      const erasure::Buffer frame = framed(payload);
      bytes.insert(bytes.end(), frame.data(), frame.data() + frame.size());
      if (!c.ping) break;
    }
    ASSERT_EQ(::send(fd.get(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    // The first frame back, or nullopt once the daemon closes.
    FrameReader reader;
    std::optional<erasure::Buffer> reply;
    while (!reply.has_value()) {
      pollfd pfd{fd.get(), POLLIN, 0};
      ASSERT_EQ(::poll(&pfd, 1, 5000), 1) << "neither answered nor closed";
      if (recv_into(fd.get(), reader) <= 0) break;
      reply = reader.next();
    }
    if (c.answered) {
      ASSERT_TRUE(reply.has_value()) << "closed instead of answering";
      const std::optional<Pong> pong = decode_pong(std::move(*reply));
      ASSERT_TRUE(pong.has_value());
      EXPECT_EQ(pong->token, 77u);
      EXPECT_TRUE(pong->ready);
    } else {
      EXPECT_FALSE(reply.has_value()) << "answered instead of closing";
    }
  }
  Session session(401, 0, endpoints_[0]);
  ASSERT_TRUE(session.connected);
  ASSERT_TRUE(session.write_op(0));
  ASSERT_TRUE(await_convergence(endpoints_, 15s));
  EXPECT_EQ(total_error_events(endpoints_), 0u);
}

// A PeerLink flushes its start-up queue right behind its Hello, so the
// Hello and a peer's first protocol frames often arrive in one read. The
// automaton's loop reads them: it must take the Hello and still apply
// every protocol frame that came with it, in order. A raw socket plays
// server 1, which never comes up, and sends its Hello and kWrites writes
// in one send(2).
TEST(NetPeerHandoffTest, FramesThatArriveWithTheHelloAreAllApplied) {
  constexpr std::uint64_t kWrites = 64;
  const std::vector<std::uint16_t> ports = reserve_loopback_ports(kServers);
  ASSERT_EQ(ports.size(), kServers);
  std::vector<std::string> peers;
  for (const std::uint16_t port : ports) {
    peers.push_back("127.0.0.1:" + std::to_string(port));
  }
  NodeDaemonConfig config;
  config.node = 0;
  config.listen_port = ports[0];
  config.peers = peers;
  NodeDaemon daemon(
      erasure::make_systematic_rs(kServers, kObjects, kValueBytes), config);
  daemon.start();
  ASSERT_TRUE(await_ready({peers[0]}, 10s));

  std::vector<std::uint8_t> bytes;
  const auto append = [&bytes](const erasure::Buffer& payload) {
    const erasure::Buffer frame = framed(payload);
    bytes.insert(bytes.end(), frame.data(), frame.data() + frame.size());
  };
  append(encode_hello(Hello{PeerRole::kServer, 1}));
  for (std::uint64_t seq = 1; seq <= kWrites; ++seq) {
    VectorClock ts(kServers);
    ts.set(1, seq);
    append(serialize_message_frame(
        AppMessage(static_cast<ObjectId>(seq % kObjects), value_for(900, seq),
                   Tag(std::move(ts), 900), WireModel{})));
  }
  const auto addr = parse_host_port(peers[0]);
  ASSERT_TRUE(addr.has_value());
  ScopedFd fd = connect_tcp_blocking(addr->first, addr->second, 2000);
  ASSERT_TRUE(fd.valid());
  ASSERT_EQ(::send(fd.get(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));

  NetClient client(901);
  ASSERT_TRUE(client.connect(peers[0], 2000));
  client.set_io_timeout_ms(5000);
  std::optional<StatsResp> stats;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (true) {
    stats = client.stats();
    ASSERT_TRUE(stats.has_value());
    if (stats->vc[1] >= kWrites ||
        std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(stats->vc[1], kWrites);
  EXPECT_EQ(stats->error_events, 0u);
  daemon.stop();
}

constexpr std::size_t kMaxParked = 4;
constexpr auto kParkTimeout = 1000ms;

/// Daemons with a small parking lot: at most four parked requests each,
/// held one second.
class NetParkingTest : public NetLoopbackTest {
 protected:
  void configure(NodeDaemonConfig& config) override {
    config.max_parked = kMaxParked;
    config.park_timeout = kParkTimeout;
  }
};

TEST_F(NetParkingTest, ParkedRequestsAreBoundedInCountAndTime) {
  using Clock = std::chrono::steady_clock;
  // A frontier no server clock will ever dominate.
  VectorClock ahead(kServers);
  for (std::size_t i = 0; i < kServers; ++i) ahead.set(i, 1'000'000);

  // A session whose frontier is ahead has its read parked at server 0;
  // the daemon fails it by closing the connection at the deadline -- not
  // before, and well before the client's own 5 s timeout would.
  NetClient stuck(800);
  ASSERT_TRUE(stuck.connect(endpoints_[0], 2000));
  stuck.set_io_timeout_ms(5000);
  stuck.set_frontier(ahead);
  const auto parked_at = Clock::now();
  Clock::duration parked_for{};
  bool answered = true;
  std::thread parked([&] {
    answered = stuck.read(1, 0).has_value();
    parked_for = Clock::now() - parked_at;
  });

  // Meanwhile a normal session on the same server never parks.
  Session normal(801, 0, endpoints_[0]);
  ASSERT_TRUE(normal.connected);
  for (ObjectId x = 0; x < kObjects; ++x) {
    EXPECT_TRUE(normal.write_op(x));
    EXPECT_TRUE(normal.read_op(x));
  }
  parked.join();
  EXPECT_FALSE(answered);
  EXPECT_FALSE(stuck.connected());
  EXPECT_GE(parked_for, kParkTimeout);
  EXPECT_LT(parked_for, 4s) << "the deadline never closed the connection";

  // Five pipelined reads with that frontier on one connection to server 1:
  // four fill its parking lot, the fifth is shed, and shedding closes the
  // connection long before any deadline.
  const auto addr = parse_host_port(endpoints_[1]);
  ASSERT_TRUE(addr.has_value());
  ScopedFd fd = connect_tcp_blocking(addr->first, addr->second, 2000);
  ASSERT_TRUE(fd.valid());
  std::vector<std::uint8_t> burst;
  const auto append = [&burst](const erasure::Buffer& payload) {
    const erasure::Buffer frame = framed(payload);
    burst.insert(burst.end(), frame.data(), frame.data() + frame.size());
  };
  append(encode_hello(Hello{PeerRole::kClient, 0}));
  for (std::size_t i = 0; i <= kMaxParked; ++i) {
    ReadReq req;
    req.opid = i;
    req.client = 802;
    req.object = 0;
    req.frontier = ahead;
    append(encode_read_req(req));
  }
  const auto sent_at = Clock::now();
  ASSERT_EQ(::send(fd.get(), burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  pollfd pfd{fd.get(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1) << "the connection stayed open";
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(fd.get(), &byte, 1, 0), 0)
      << "expected the daemon to close the connection, not to answer";
  EXPECT_LT(Clock::now() - sent_at, kParkTimeout / 2)
      << "the fifth request was parked instead of shed";

  ASSERT_TRUE(await_convergence(endpoints_, 15s));
  EXPECT_EQ(total_error_events(endpoints_), 0u);
}

}  // namespace
}  // namespace causalec::net
