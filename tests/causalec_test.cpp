// Protocol tests for the CausalEC server (Algorithms 1-3) on the simulator:
// the paper's properties (I)-(IV), the Sec. 1.2 re-encoding scenario,
// crash fault tolerance (Theorem 4.3), storage convergence (Theorem 4.5),
// and randomized stress with the Error1/Error2 invariants armed.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "causalec/cluster.h"
#include "common/random.h"
#include "erasure/codes.h"
#include "sim/latency.h"

namespace causalec {
namespace {

using erasure::Value;
using sim::kMillisecond;
using sim::kSecond;

constexpr std::size_t kValueBytes = 16;

Value val(std::uint8_t fill) { return Value(kValueBytes, fill); }

/// F257 values must hold canonical field elements; low bytes only.
Value val257(std::uint8_t fill) {
  Value v(kValueBytes, 0);
  for (std::size_t i = 0; i < v.size(); i += 2) v[i] = fill;
  return v;
}

std::unique_ptr<Cluster> make_cluster(
    erasure::CodePtr code, SimTime latency = 10 * kMillisecond,
    ClusterConfig config = {}) {
  return std::make_unique<Cluster>(
      std::move(code), std::make_unique<sim::ConstantLatency>(latency),
      config);
}

/// Issue a read and capture its (eventual) result.
struct ReadProbe {
  std::optional<Value> value;
  std::optional<Tag> tag;
  void operator()(Client& client, ObjectId object) {
    client.read(object,
                [this](const Value& v, const Tag& t, const VectorClock&) {
                  value = v;
                  tag = t;
                });
  }
};

// ---------------------------------------------------------------------------
// Property (I): writes are local, acknowledged synchronously.
// ---------------------------------------------------------------------------

TEST(CausalEcTest, WriteReturnsLocallyAndSynchronously) {
  auto cluster = make_cluster(erasure::make_paper_5_3(kValueBytes));
  auto& client = cluster->make_client(0);
  const Tag t1 = cluster->sim().now() >= 0 ? client.write(0, val257(1))
                                           : Tag{};
  // The ack is the return itself; no simulated time may have elapsed.
  EXPECT_EQ(cluster->sim().now(), 0);
  EXPECT_EQ(t1.ts[0], 1u);
  const Tag t2 = client.write(1, val257(2));
  EXPECT_TRUE(t1 < t2);
  EXPECT_EQ(t2.ts[0], 2u);
}

// ---------------------------------------------------------------------------
// Reads: local history, local decode, remote recovery set.
// ---------------------------------------------------------------------------

TEST(CausalEcTest, ReadInitialValueIsZeroEverywhere) {
  auto cluster = make_cluster(erasure::make_paper_5_3(kValueBytes));
  for (NodeId s = 0; s < 5; ++s) {
    auto& client = cluster->make_client(s);
    for (ObjectId x = 0; x < 3; ++x) {
      ReadProbe probe;
      probe(client, x);
      ASSERT_TRUE(probe.value.has_value()) << "s=" << s << " x=" << x;
      EXPECT_EQ(*probe.value, Value(kValueBytes, 0));
      EXPECT_TRUE(probe.tag->is_zero());
    }
  }
  EXPECT_EQ(cluster->sim().stats().total_messages, 0u);  // all local
}

TEST(CausalEcTest, WriterReadsOwnWriteImmediately) {
  auto cluster = make_cluster(erasure::make_paper_5_3(kValueBytes));
  auto& client = cluster->make_client(3);  // a coded server
  const Tag t = client.write(1, val257(9));
  ReadProbe probe;
  probe(client, 1);  // read-your-writes, before any propagation
  ASSERT_TRUE(probe.value.has_value());
  EXPECT_EQ(*probe.value, val257(9));
  EXPECT_EQ(*probe.tag, t);
}

TEST(CausalEcTest, UncodedServerServesLocalReadAfterConvergence) {
  auto cluster = make_cluster(erasure::make_paper_5_3(kValueBytes));
  auto& writer = cluster->make_client(4);
  writer.write(0, val257(7));
  cluster->settle();
  // Server 0 stores X1 uncoded ({0} is a recovery set): the read must be
  // answered with zero network traffic.
  cluster->sim().stats().reset();
  auto& reader = cluster->make_client(0);
  ReadProbe probe;
  probe(reader, 0);
  ASSERT_TRUE(probe.value.has_value());
  EXPECT_EQ(*probe.value, val257(7));
  EXPECT_EQ(cluster->sim().stats().total_messages, 0u);
}

TEST(CausalEcTest, RemoteReadCompletesViaRecoverySet) {
  auto cluster = make_cluster(erasure::make_paper_5_3(kValueBytes));
  auto& writer = cluster->make_client(1);
  const Tag t = writer.write(1, val257(5));
  cluster->settle();  // histories drained; values only in codeword symbols

  // Server 4 stores X1+2*X2+X3; {3,4} is a recovery set for X2. The read
  // needs one round trip.
  auto& reader = cluster->make_client(4);
  ReadProbe probe;
  probe(reader, 1);
  EXPECT_FALSE(probe.value.has_value());  // not local
  cluster->run_for(kSecond);
  ASSERT_TRUE(probe.value.has_value());
  EXPECT_EQ(*probe.value, val257(5));
  EXPECT_EQ(*probe.tag, t);
}

TEST(CausalEcTest, RemoteReadLatencyIsOneRoundTrip) {
  ClusterConfig config;
  config.server.fanout = ReadFanout::kNearestRecoverySet;
  auto cluster = make_cluster(erasure::make_paper_5_3(kValueBytes),
                              25 * kMillisecond, config);
  auto& writer = cluster->make_client(1);
  writer.write(1, val257(5));
  cluster->settle();

  auto& reader = cluster->make_client(4);
  SimTime done_at = -1;
  const SimTime started_at = cluster->sim().now();
  reader.read(1, [&](const Value&, const Tag&, const VectorClock&) {
    done_at = cluster->sim().now();
  });
  cluster->run_for(kSecond);
  ASSERT_GE(done_at, 0);
  // Property (II): at most one round trip to the recovery set (2 x 25ms).
  EXPECT_EQ(done_at - started_at, 50 * kMillisecond);
}

// ---------------------------------------------------------------------------
// The Sec. 1.2 scenario: mismatched versions resolved by re-encoding.
// ---------------------------------------------------------------------------

TEST(CausalEcTest, MismatchedVersionsAreReencodedForReads) {
  // Recreate the Sec. 1.2 situation: server 4 stores a codeword symbol of
  // old versions while the other servers have moved on to newer ones. A
  // read at server 4 must still decode its (causally consistent) versions
  // through the re-encoding chain, even though the old values have been
  // garbage-collected from most history lists.
  auto cluster = make_cluster(erasure::make_paper_5_3(kValueBytes));
  auto& w0 = cluster->make_client(0);
  auto& w1 = cluster->make_client(1);
  auto& w2 = cluster->make_client(2);

  // Round 1: every server encodes version 1 of every object; histories
  // drain to empty (Theorem 4.5), so the old values survive nowhere in
  // uncoded form except inside codeword symbols.
  w0.write(0, val257(11));
  const Tag t_x2_v1 = w1.write(1, val257(21));
  w2.write(2, val257(31));
  cluster->settle();
  ASSERT_TRUE(cluster->storage_converged());

  // Round 2: hold back the writers' channels into server 4, then write
  // newer versions. Servers 0-3 re-encode to version 2 -- recovering the
  // deleted version-1 values via internal reads along the way -- while
  // server 4 still encodes version 1 of everything. The 3 -> 4 channel
  // stays fast so read responses can flow.
  auto& sim = cluster->sim();
  for (NodeId from = 0; from < 3; ++from) {
    sim.add_channel_delay(from, 4, 10 * kSecond);
  }
  w0.write(0, val257(12));
  w0.write(0, val257(13));
  w1.write(1, val257(22));
  w2.write(2, val257(32));
  cluster->run_for(500 * kMillisecond);
  ASSERT_EQ(cluster->server(4).codeword_tag(1), t_x2_v1);

  // The read at server 4 requests the versions its codeword encodes
  // (X2 version 1). Responders hold version-2 symbols and must re-encode
  // them back, exactly the Fig. 4 flow.
  auto& reader = cluster->make_client(4);
  ReadProbe probe;
  probe(reader, 1);
  cluster->run_for(200 * kMillisecond);
  ASSERT_TRUE(probe.value.has_value());
  EXPECT_EQ(*probe.value, val257(21));  // version 1: causally consistent
  EXPECT_EQ(*probe.tag, t_x2_v1);

  // The Error1/Error2 invariants stayed intact (strict mode would abort).
  for (NodeId s = 0; s < 5; ++s) {
    EXPECT_EQ(cluster->server(s).counters().error1_events, 0u);
    EXPECT_EQ(cluster->server(s).counters().error2_events, 0u);
  }
  // Once the partition heals, everything converges to version 2.
  cluster->settle();
  EXPECT_TRUE(cluster->storage_converged());
  ReadProbe after;
  after(reader, 1);
  cluster->run_for(kSecond);
  ASSERT_TRUE(after.value.has_value());
  EXPECT_EQ(*after.value, val257(22));
}

// ---------------------------------------------------------------------------
// Property (III)/(IV): storage convergence and eventual consistency.
// ---------------------------------------------------------------------------

TEST(CausalEcTest, StorageConvergesToCodePrescription) {
  auto cluster = make_cluster(erasure::make_paper_5_3(kValueBytes));
  auto& c0 = cluster->make_client(0);
  auto& c3 = cluster->make_client(3);
  for (int i = 0; i < 10; ++i) {
    c0.write(i % 3, val257(static_cast<std::uint8_t>(i + 1)));
    c3.write((i + 1) % 3, val257(static_cast<std::uint8_t>(i + 100)));
  }
  EXPECT_FALSE(cluster->storage_converged());  // histories hold versions
  cluster->settle();
  EXPECT_TRUE(cluster->storage_converged());
  for (NodeId s = 0; s < 5; ++s) {
    const StorageStats stats = cluster->server(s).storage();
    EXPECT_EQ(stats.history_entries, 0u) << "server " << s;
    EXPECT_EQ(stats.inqueue_entries, 0u) << "server " << s;
    EXPECT_EQ(stats.readl_entries, 0u) << "server " << s;
    // Stable state: exactly the codeword symbol remains.
    EXPECT_EQ(stats.codeword_bytes, cluster->code().symbol_bytes(s));
  }
}

TEST(CausalEcTest, EventuallyEveryServerReadsTheSameValue) {
  auto cluster = make_cluster(erasure::make_paper_5_3(kValueBytes));
  // Concurrent writes to the same object from different servers.
  auto& c0 = cluster->make_client(0);
  auto& c2 = cluster->make_client(2);
  auto& c4 = cluster->make_client(4);
  const Tag t0 = c0.write(1, val257(1));
  const Tag t2 = c2.write(1, val257(2));
  const Tag t4 = c4.write(1, val257(3));
  cluster->settle();

  // The last-writer-wins winner is the max tag.
  Tag winner = t0;
  Value expected = val257(1);
  if (winner < t2) winner = t2, expected = val257(2);
  if (winner < t4) winner = t4, expected = val257(3);

  for (NodeId s = 0; s < 5; ++s) {
    auto& reader = cluster->make_client(s);
    ReadProbe probe;
    probe(reader, 1);
    cluster->run_for(kSecond);
    ASSERT_TRUE(probe.value.has_value()) << "server " << s;
    EXPECT_EQ(*probe.value, expected) << "server " << s;
    EXPECT_EQ(*probe.tag, winner) << "server " << s;
  }
}

// ---------------------------------------------------------------------------
// Causality across objects and servers.
// ---------------------------------------------------------------------------

TEST(CausalEcTest, CausalDependencyNeverObservedOutOfOrder) {
  // c1@s0 writes X; c2@s1 reads X then writes Y; server 2 receives Y's app
  // before X's app (adversarial delay). A reader at s2 that sees Y must
  // afterwards see X.
  auto cluster = make_cluster(erasure::make_paper_5_3(kValueBytes));
  auto& sim = cluster->sim();
  sim.add_channel_delay(0, 2, 300 * kMillisecond);  // X's app held back

  auto& c1 = cluster->make_client(0);
  auto& c2 = cluster->make_client(1);
  const Tag tx = c1.write(0, val257(42));
  cluster->run_for(50 * kMillisecond);  // app(X) reaches s1, not yet s2

  ReadProbe c2_read;
  c2_read(c2, 0);
  cluster->run_for(kMillisecond);
  ASSERT_TRUE(c2_read.value.has_value());
  ASSERT_EQ(*c2_read.tag, tx);                     // c2 saw X
  const Tag ty = c2.write(1, val257(77));          // causally after X
  (void)ty;

  // Y's app arrives at s2 quickly but must wait in the InQueue until X's
  // app lands: until then, s2 serves the old values for both.
  cluster->run_for(100 * kMillisecond);
  auto& c3 = cluster->make_client(2);
  ReadProbe ry_before;
  ry_before(c3, 1);
  ASSERT_TRUE(ry_before.value.has_value());
  EXPECT_TRUE(ry_before.tag->is_zero()) << "Y visible before its dependency";

  // After X's app arrives, both become visible -- and a reader that sees Y
  // also sees X.
  cluster->run_for(400 * kMillisecond);
  ReadProbe ry_after, rx_after;
  ry_after(c3, 1);
  cluster->run_for(kSecond);
  rx_after(c3, 0);
  cluster->run_for(kSecond);
  ASSERT_TRUE(ry_after.value.has_value());
  ASSERT_TRUE(rx_after.value.has_value());
  EXPECT_EQ(*ry_after.value, val257(77));
  EXPECT_EQ(*rx_after.tag, tx);
}

// ---------------------------------------------------------------------------
// Fault tolerance (Theorem 4.3).
// ---------------------------------------------------------------------------

TEST(CausalEcTest, ReadSurvivesCrashesOutsideRecoverySet) {
  auto cluster = make_cluster(erasure::make_paper_5_3(kValueBytes));
  auto& writer = cluster->make_client(1);
  writer.write(1, val257(5));
  cluster->settle();

  // Crash servers 0 and 2; {3,4} still recovers X2 and both are alive.
  cluster->halt_server(0);
  cluster->halt_server(2);
  auto& reader = cluster->make_client(4);
  ReadProbe probe;
  probe(reader, 1);
  cluster->run_for(kSecond);
  ASSERT_TRUE(probe.value.has_value());
  EXPECT_EQ(*probe.value, val257(5));
}

TEST(CausalEcTest, RsCodeToleratesNMinusKCrashes) {
  auto cluster = make_cluster(erasure::make_systematic_rs(6, 4, kValueBytes));
  auto& writer = cluster->make_client(0);
  writer.write(2, val(9));
  cluster->settle();

  cluster->halt_server(1);
  cluster->halt_server(2);  // N-K = 2 crashes
  auto& reader = cluster->make_client(5);  // parity server
  ReadProbe probe;
  probe(reader, 2);
  cluster->run_for(kSecond);
  ASSERT_TRUE(probe.value.has_value());
  EXPECT_EQ(*probe.value, val(9));
}

TEST(CausalEcTest, WritesRemainLocalUnderCrashes) {
  auto cluster = make_cluster(erasure::make_paper_5_3(kValueBytes));
  cluster->halt_server(1);
  cluster->halt_server(2);
  cluster->halt_server(3);
  cluster->halt_server(4);
  auto& client = cluster->make_client(0);
  const Tag t = client.write(0, val257(1));  // must not block
  EXPECT_EQ(t.ts[0], 1u);
  ReadProbe probe;
  probe(client, 0);
  ASSERT_TRUE(probe.value.has_value());
  EXPECT_EQ(*probe.value, val257(1));
}

// ---------------------------------------------------------------------------
// Pending reads answered by incoming writes (Alg. 1 line 7, Alg. 3 line 8).
// ---------------------------------------------------------------------------

TEST(CausalEcTest, PendingReadAnsweredByLocalWrite) {
  auto cluster = make_cluster(erasure::make_paper_5_3(kValueBytes));
  // Converge on version 1 first so server 4's read cannot be served from
  // its (empty) history list and must go remote.
  auto& writer1 = cluster->make_client(1);
  writer1.write(1, val257(1));
  cluster->settle();

  // Now freeze the network so nobody answers the inquiry.
  auto& sim = cluster->sim();
  for (NodeId i = 0; i < 5; ++i) {
    for (NodeId j = 0; j < 5; ++j) {
      if (i != j) sim.add_channel_delay(i, j, 100 * kSecond);
    }
  }
  auto& reader = cluster->make_client(4);
  ReadProbe probe;
  probe(reader, 1);
  EXPECT_FALSE(probe.value.has_value());
  EXPECT_EQ(cluster->server(4).read_list().size(), 1u);

  // A local write to the same object answers the pending read immediately
  // (Alg. 1 lines 7-9).
  auto& writer4 = cluster->make_client(4);
  const Tag t = writer4.write(1, val257(3));
  ASSERT_TRUE(probe.value.has_value());
  EXPECT_EQ(*probe.value, val257(3));
  EXPECT_EQ(*probe.tag, t);
  cluster->settle();
  EXPECT_TRUE(cluster->storage_converged());
}

// ---------------------------------------------------------------------------
// The opportunistic local-decode knob (DESIGN: registration-time decode).
// ---------------------------------------------------------------------------

TEST(CausalEcTest, WorksWithoutOpportunisticLocalDecode) {
  ClusterConfig config;
  config.server.opportunistic_local_decode = false;
  auto cluster = make_cluster(erasure::make_systematic_rs(5, 3, kValueBytes),
                              10 * kMillisecond, config);
  auto& writer = cluster->make_client(0);
  for (int round = 0; round < 3; ++round) {
    writer.write(1, val(static_cast<std::uint8_t>(round + 1)));
    cluster->settle();
  }
  EXPECT_TRUE(cluster->storage_converged());
  ReadProbe probe;
  probe(cluster->make_client(4), 1);
  cluster->run_for(kSecond);
  ASSERT_TRUE(probe.value.has_value());
  EXPECT_EQ(*probe.value, val(3));
  for (NodeId s = 0; s < 5; ++s) {
    EXPECT_EQ(cluster->server(s).counters().error1_events, 0u);
    EXPECT_EQ(cluster->server(s).counters().error2_events, 0u);
  }
}

// ---------------------------------------------------------------------------
// Appendix G variant (ii): leader-routed del dissemination.
// ---------------------------------------------------------------------------

TEST(CausalEcTest, LeaderRoutedDelsStillConverge) {
  ClusterConfig config;
  config.server.del_routing = DelRouting::kViaLeader;
  config.server.del_leader = 2;
  auto cluster = std::make_unique<Cluster>(
      erasure::make_paper_5_3(kValueBytes),
      std::make_unique<sim::ConstantLatency>(10 * kMillisecond), config);
  auto& c0 = cluster->make_client(0);
  auto& c4 = cluster->make_client(4);
  for (int i = 0; i < 8; ++i) {
    c0.write(i % 3, val257(static_cast<std::uint8_t>(i + 1)));
    c4.write((i + 2) % 3, val257(static_cast<std::uint8_t>(i + 50)));
  }
  cluster->settle();
  EXPECT_TRUE(cluster->storage_converged());
  for (NodeId s = 0; s < 5; ++s) {
    EXPECT_EQ(cluster->server(s).counters().error1_events, 0u);
    EXPECT_EQ(cluster->server(s).counters().error2_events, 0u);
  }
  // Reads converge to the same winners everywhere.
  ReadProbe a, b;
  a(cluster->make_client(3), 1);
  cluster->run_for(kSecond);
  b(cluster->make_client(0), 1);
  cluster->run_for(kSecond);
  ASSERT_TRUE(a.value.has_value() && b.value.has_value());
  EXPECT_EQ(*a.tag, *b.tag);
}

// ---------------------------------------------------------------------------
// Encoded tags announced at the GC tick (DESIGN.md §2, note 11).
// ---------------------------------------------------------------------------

constexpr SimTime kGcPeriod = 50 * kMillisecond;
constexpr SimTime kLinkLatency = 5 * kMillisecond;

/// Twenty bursts of `per_object` writes to every object from rotating
/// servers, one GC period apart and halfway between two ticks, then `drain`
/// with no write.
std::unique_ptr<Cluster> run_write_bursts(erasure::CodePtr code,
                                          int per_object, SimTime drain) {
  ClusterConfig config;
  config.gc_period = kGcPeriod;
  auto cluster = make_cluster(std::move(code), kLinkLatency, config);
  const std::size_t n = cluster->num_servers();
  const std::size_t k = cluster->code().num_objects();
  std::vector<Client*> clients;
  for (NodeId s = 0; s < n; ++s) clients.push_back(&cluster->make_client(s));
  cluster->run_for(kGcPeriod / 2);
  std::size_t writes = 0;
  for (int period = 0; period < 20; ++period) {
    if (period > 0) cluster->run_for(kGcPeriod);
    for (int i = 0; i < per_object; ++i) {
      for (ObjectId x = 0; x < k; ++x, ++writes) {
        clients[writes % n]->write(
            x, val257(static_cast<std::uint8_t>(writes + 1)));
      }
    }
  }
  cluster->run_for(drain);
  return cluster;
}

TEST(CausalEcTest, DelTrafficFollowsTheGcTickNotTheWriteRate) {
  // RS(5,3): every object has servers that do not store it. Twice the
  // writes re-encode twice as often, but each server still announces one
  // tag per object per tick.
  const auto dels = [](int per_object) {
    auto cluster = run_write_bursts(
        erasure::make_systematic_rs(5, 3, kValueBytes), per_object,
        kGcPeriod);
    return cluster->sim().stats().by_type["del"].count;
  };
  const std::uint64_t base = dels(1);
  EXPECT_GT(base, 0u);
  EXPECT_LE(dels(2), base);
}

TEST(CausalEcTest, FullReplicationAnnouncesEachEncodedTagOnce) {
  // Every server stores every object, so a re-encode is announced to every
  // peer at once, and the GC tick after it has nothing new to announce.
  auto cluster = run_write_bursts(
      erasure::make_replication(5, 3, kValueBytes), 1, 3 * kGcPeriod);
  const std::size_t n = cluster->num_servers();
  std::uint64_t reencodes = 0;
  for (NodeId s = 0; s < n; ++s) {
    reencodes += cluster->server(s).counters().reencodes;
  }
  EXPECT_GT(reencodes, 0u);
  EXPECT_EQ(cluster->sim().stats().by_type["del"].count,
            (n - 1) * reencodes);
}

TEST(CausalEcTest, LocallyDecodableInternalReadsInquireNowhere) {
  // Under full replication a server's own symbol is every object, so the
  // internal reads that fetch a collected version complete from it, with
  // broadcast fan-out too: no val_inq or val_resp crosses the network.
  ClusterConfig config;
  ASSERT_EQ(config.server.fanout, ReadFanout::kBroadcast);
  ASSERT_TRUE(config.server.opportunistic_local_decode);
  auto cluster = run_write_bursts(
      erasure::make_replication(5, 3, kValueBytes), 1, 3 * kGcPeriod);
  std::uint64_t internal_reads = 0;
  for (NodeId s = 0; s < cluster->num_servers(); ++s) {
    internal_reads += cluster->server(s).counters().internal_reads_started;
  }
  EXPECT_GT(internal_reads, 0u);
  auto& by_type = cluster->sim().stats().by_type;
  EXPECT_EQ(by_type["val_inq"].count, 0u);
  EXPECT_EQ(by_type["val_resp"].count, 0u);
}

TEST(CausalEcTest, HistoryDrainsWithinThreeGcPeriodsOfTheLastWrite) {
  // The last version of X reaches every server after one link latency; each
  // storing server announces it at its next tick (< one period), every
  // non-storing server answers within two more latencies, and the tick
  // after that collects: two periods and three latencies, under three
  // periods. Full replication collects a period sooner.
  for (auto code : {erasure::make_systematic_rs(5, 3, kValueBytes),
                    erasure::make_replication(5, 3, kValueBytes)}) {
    auto cluster = run_write_bursts(code, 1, 3 * kGcPeriod);
    for (NodeId s = 0; s < cluster->num_servers(); ++s) {
      EXPECT_EQ(cluster->server(s).storage().history_entries, 0u)
          << "server " << s << " of " << code->num_servers();
    }
  }
}

TEST(CausalEcTest, SupersededVersionsLeaveWithinOneGcPeriod) {
  // One GC period and three link latencies after the last burst, every
  // storing server has announced the last version of each object and every
  // non-storing server has answered: the del completing the floor has
  // collected every superseded version at each server, and at most the
  // encoded version of each object waits for the next tick (DESIGN.md §2,
  // note 12).
  auto code = erasure::make_systematic_rs(5, 3, kValueBytes);
  const std::size_t k = code->num_objects();
  auto cluster = run_write_bursts(code, 1,
                                  kGcPeriod + 3 * kLinkLatency + kMillisecond);
  for (NodeId s = 0; s < cluster->num_servers(); ++s) {
    EXPECT_LE(cluster->server(s).storage().history_entries, k)
        << "server " << s;
  }
}

// ---------------------------------------------------------------------------
// Randomized stress: random codes, ops, delays. The strict Error1/Error2
// checks and storage convergence act as oracles.
// ---------------------------------------------------------------------------

struct StressParams {
  std::uint64_t seed;
  std::size_t n, k;
  double density;
  ReadFanout fanout = ReadFanout::kBroadcast;
  DelRouting routing = DelRouting::kDirect;
  MetadataMode metadata = MetadataMode::kVectorClock;
};

class CausalEcStressTest : public ::testing::TestWithParam<StressParams> {};

TEST_P(CausalEcStressTest, RandomWorkloadConvergesWithoutErrors) {
  const auto& p = GetParam();
  auto code = erasure::make_random_code(p.seed, p.n, p.k, 8, p.density);
  ClusterConfig config;
  config.gc_period = 30 * kMillisecond;
  config.seed = p.seed;
  config.server.fanout = p.fanout;
  config.server.del_routing = p.routing;
  config.server.metadata = p.metadata;
  config.server.fanout_timeout_ns = 150 * kMillisecond;
  auto cluster = std::make_unique<Cluster>(
      code,
      std::make_unique<sim::UniformJitterLatency>(
          8 * kMillisecond, 7 * kMillisecond, p.seed ^ 0xABCD),
      config);

  Rng rng(p.seed * 77 + 1);
  std::vector<Client*> clients;
  for (NodeId s = 0; s < p.n; ++s) {
    clients.push_back(&cluster->make_client(s));
    clients.push_back(&cluster->make_client(s));
  }
  std::vector<Tag> max_tag_per_object(p.k, Tag::zero(p.n));

  int reads_issued = 0, reads_done = 0;
  for (int op = 0; op < 200; ++op) {
    auto& client = *clients[rng.next_below(clients.size())];
    const ObjectId x = static_cast<ObjectId>(rng.next_below(p.k));
    if (client.busy()) {
      // Well-formedness: one pending invocation per client (Sec. 2.1).
    } else if (rng.next_bool(0.5)) {
      const Tag t = client.write(
          x, Value(8, static_cast<std::uint8_t>(rng.next_u64())));
      if (max_tag_per_object[x] < t) max_tag_per_object[x] = t;
    } else {
      ++reads_issued;
      client.read(x, [&reads_done](const Value&, const Tag&,
                                   const VectorClock&) { ++reads_done; });
    }
    cluster->run_for(rng.next_below(12) * kMillisecond);
  }
  cluster->settle();
  EXPECT_EQ(reads_done, reads_issued);
  EXPECT_TRUE(cluster->storage_converged());

  // Eventual consistency: every server returns the LWW winner per object.
  for (ObjectId x = 0; x < p.k; ++x) {
    if (max_tag_per_object[x].is_zero()) continue;
    for (NodeId s = 0; s < p.n; ++s) {
      ReadProbe probe;
      auto& reader = cluster->make_client(s);
      probe(reader, x);
      cluster->run_for(kSecond);
      ASSERT_TRUE(probe.value.has_value()) << "s=" << s << " x=" << x;
      EXPECT_EQ(*probe.tag, max_tag_per_object[x]) << "s=" << s << " x=" << x;
    }
  }
  for (NodeId s = 0; s < p.n; ++s) {
    EXPECT_EQ(cluster->server(s).counters().error1_events, 0u);
    EXPECT_EQ(cluster->server(s).counters().error2_events, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomCodes, CausalEcStressTest,
    ::testing::Values(
        StressParams{1, 4, 2, 0.5}, StressParams{2, 5, 3, 0.5},
        StressParams{3, 5, 3, 0.8}, StressParams{4, 6, 3, 0.4},
        StressParams{5, 6, 4, 0.6}, StressParams{6, 7, 4, 0.5},
        StressParams{7, 5, 2, 0.9}, StressParams{8, 8, 5, 0.5},
        // Footnote-14 fan-out with timeout escalation.
        StressParams{31, 5, 3, 0.5, ReadFanout::kNearestRecoverySet},
        StressParams{32, 6, 4, 0.6, ReadFanout::kNearestRecoverySet},
        StressParams{33, 7, 4, 0.4, ReadFanout::kNearestRecoverySet},
        // Appendix G leader-routed dels.
        StressParams{41, 5, 3, 0.5, ReadFanout::kBroadcast,
                     DelRouting::kViaLeader},
        StressParams{42, 6, 3, 0.6, ReadFanout::kNearestRecoverySet,
                     DelRouting::kViaLeader},
        // Lamport metadata accounting (behaviorally identical).
        StressParams{51, 5, 3, 0.5, ReadFanout::kBroadcast,
                     DelRouting::kDirect, MetadataMode::kLamport}),
    [](const auto& param_info) {
      const auto& q = param_info.param;
      std::string name = "seed" + std::to_string(q.seed) + "_n" +
                         std::to_string(q.n) + "k" + std::to_string(q.k);
      if (q.fanout == ReadFanout::kNearestRecoverySet) name += "_nearset";
      if (q.routing == DelRouting::kViaLeader) name += "_leader";
      if (q.metadata == MetadataMode::kLamport) name += "_lamport";
      return name;
    });

}  // namespace
}  // namespace causalec
