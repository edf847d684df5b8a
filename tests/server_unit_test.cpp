// White-box unit tests of the Server automaton through a mock transport:
// exact message contents, re-encoding paths, garbage-collection conditions,
// del dedupe, and wire-size accounting -- without a simulator in the loop.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "causalec/messages.h"
#include "causalec/server.h"
#include "erasure/codes.h"

namespace causalec {
namespace {

using erasure::Value;

/// Captures outbound traffic and timers for manual delivery.
class MockTransport final : public Transport {
 public:
  struct Sent {
    NodeId to;
    sim::MessagePtr message;
  };
  struct Timer {
    SimTime at;
    std::function<void()> fn;
  };

  void send(NodeId to, sim::MessagePtr message) override {
    sent.push_back({to, std::move(message)});
  }
  void schedule_after(SimTime delta, std::function<void()> fn) override {
    timers.push_back({now_ + delta, std::move(fn)});
  }
  SimTime now() const override { return now_; }

  template <typename M>
  std::vector<const M*> of_type() const {
    std::vector<const M*> out;
    for (const auto& s : sent) {
      if (auto* m = dynamic_cast<const M*>(s.message.get())) out.push_back(m);
    }
    return out;
  }

  std::size_t count_to(NodeId to) const {
    std::size_t n = 0;
    for (const auto& s : sent) n += s.to == to;
    return n;
  }

  void clear() { sent.clear(); }

  std::vector<Sent> sent;
  std::vector<Timer> timers;
  SimTime now_ = 0;
};

Value val257(std::uint8_t fill, std::size_t bytes = 16) {
  Value v(bytes, 0);
  for (std::size_t i = 0; i < bytes; i += 2) v[i] = fill;
  return v;
}

struct ServerFixture {
  explicit ServerFixture(erasure::CodePtr code_in, NodeId id,
                         ServerConfig config = {})
      : code(std::move(code_in)),
        server(id, code, config, &transport) {}

  erasure::CodePtr code;
  MockTransport transport;
  Server server;
};

// ---------------------------------------------------------------------------
// Write path.
// ---------------------------------------------------------------------------

TEST(ServerUnitTest, WriteBroadcastsAppToAllOthers) {
  ServerFixture f(erasure::make_paper_5_3(16), 0);
  const Tag t = f.server.client_write(7, 1, 0, val257(5));
  EXPECT_EQ(t.ts[0], 1u);
  EXPECT_EQ(t.id, 7u);
  const auto apps = f.transport.of_type<AppMessage>();
  ASSERT_EQ(apps.size(), 4u);  // everyone but self
  for (const auto* app : apps) {
    EXPECT_EQ(app->object, 0u);
    EXPECT_EQ(app->value, val257(5));
    EXPECT_EQ(app->tag, t);
  }
  EXPECT_EQ(f.transport.count_to(0), 0u);  // never to self
}

TEST(ServerUnitTest, WriteReencodesAndRecordsItsOwnDelWithoutSendingIt) {
  // Server 3 stores X1+X2+X3: a local write re-encodes M immediately and
  // records the server's own DelL entry. Peers learn the tag at the next GC
  // tick (DESIGN.md §2, note 11), so the write sends no del.
  ServerFixture f(erasure::make_paper_5_3(16), 3);
  const Tag t = f.server.client_write(9, 1, 1, val257(4));
  EXPECT_EQ(f.server.codeword_tag(1), t);
  EXPECT_TRUE(f.server.del_list(1).entries_from(3).count(t) > 0);
  EXPECT_TRUE(f.transport.of_type<DelMessage>().empty());
}

TEST(ServerUnitTest, GcTickAnnouncesTheEncodedTagToEveryPeer) {
  // No peer has announced anything, so max(U) does not exist yet; the
  // storing server still announces its own encoded tag, to everyone.
  ServerFixture f(erasure::make_paper_5_3(16), 3);
  const Tag t = f.server.client_write(9, 1, 1, val257(4));
  f.transport.clear();
  f.server.run_garbage_collection();
  std::vector<NodeId> targets;
  for (const auto& s : f.transport.sent) {
    const auto* del = dynamic_cast<const DelMessage*>(s.message.get());
    ASSERT_NE(del, nullptr);
    EXPECT_EQ(del->object, 1u);
    EXPECT_EQ(del->tag, t);
    EXPECT_EQ(del->origin, 3u);
    EXPECT_FALSE(del->forward);
    targets.push_back(s.to);
  }
  // Objects 0 and 2 still encode the zero tag: nothing to announce.
  EXPECT_EQ(targets, (std::vector<NodeId>{0, 1, 2, 4}));
}

TEST(ServerUnitTest, ReplicationKeepsTheDelAtEncode) {
  // Every server stores X, so no server waits for a non-storing peer's
  // announcement: the re-encode announces itself to every peer at once,
  // and the next GC tick does not announce it again.
  ServerFixture f(erasure::make_replication(5, 3, 16), 0);
  const Tag t = f.server.client_write(9, 1, 1, val257(4));
  std::vector<NodeId> targets;
  for (const auto& s : f.transport.sent) {
    if (const auto* del = dynamic_cast<const DelMessage*>(s.message.get())) {
      EXPECT_EQ(del->tag, t);
      targets.push_back(s.to);
    }
  }
  EXPECT_EQ(targets, (std::vector<NodeId>{1, 2, 3, 4}));
  f.transport.clear();
  f.server.run_garbage_collection();
  EXPECT_TRUE(f.transport.of_type<DelMessage>().empty());
}

TEST(ServerUnitTest, WireSizesFollowTheModel) {
  ServerConfig config;
  ServerFixture f(erasure::make_paper_5_3(64), 0, config);
  f.server.client_write(1, 1, 0, val257(1, 64));
  const auto apps = f.transport.of_type<AppMessage>();
  ASSERT_FALSE(apps.empty());
  // header + B + vector tag (5 servers * 8 + 8 id).
  EXPECT_EQ(apps[0]->wire_bytes(), 16u + 64u + 48u);

  // Lamport metadata mode shrinks the tag to 16 bytes.
  ServerConfig lamport = config;
  lamport.metadata = MetadataMode::kLamport;
  ServerFixture g(erasure::make_paper_5_3(64), 0, lamport);
  g.server.client_write(1, 1, 0, val257(1, 64));
  EXPECT_EQ(g.transport.of_type<AppMessage>()[0]->wire_bytes(),
            16u + 64u + 16u);
}

// ---------------------------------------------------------------------------
// Read paths.
// ---------------------------------------------------------------------------

TEST(ServerUnitTest, ReadRegistersAndInquiresWithCurrentTags) {
  ServerFixture f(erasure::make_paper_5_3(16), 4);  // coded server
  // Apply a remote write so M advances past the history (which then GCs...
  // here simply: receive app + make the encode happen, then empty history
  // via GC is impossible without dels; instead check the pending-read shape
  // from the initial state by reading a *different* object than any local
  // version: initial state serves locally, so first advance M via dels).
  // Simplest: read after the codeword tag moved ahead of the history.
  VectorClock vc(5);
  vc.set(1, 1);
  const Tag t(vc, 42);
  f.server.on_message(1, std::make_unique<AppMessage>(
                             1, val257(9), t,
                             WireModel::make({}, 5, 3)));
  // After apply+encode, history holds the value: the read serves locally.
  bool served = false;
  f.server.client_read(8, 100, 1,
                       [&](const Value& v, const Tag& tag,
                           const VectorClock&) {
                         served = true;
                         EXPECT_EQ(v, val257(9));
                         EXPECT_EQ(tag, t);
                       });
  EXPECT_TRUE(served);
  EXPECT_EQ(f.server.read_list().size(), 0u);
}

TEST(ServerUnitTest, ValInqAnsweredUncodedWhenHistoryHasWantedVersion) {
  ServerFixture f(erasure::make_paper_5_3(16), 1);
  const Tag t = f.server.client_write(5, 1, 1, val257(3));
  f.transport.clear();
  // Another node inquires for exactly that version.
  TagVector wanted = zero_tag_vector(3, 5);
  wanted[1] = t;
  f.server.on_message(
      4, std::make_unique<ValInqMessage>(8, 200, 1, wanted,
                                         WireModel::make({}, 5, 3)));
  const auto resps = f.transport.of_type<ValRespMessage>();
  ASSERT_EQ(resps.size(), 1u);
  EXPECT_EQ(resps[0]->value, val257(3));
  EXPECT_EQ(resps[0]->opid, 200u);
  EXPECT_TRUE(f.transport.of_type<ValRespEncodedMessage>().empty());
}

TEST(ServerUnitTest, ValInqZeroTagAnsweredWithZeroValue) {
  // The virtual zero entry: an inquiry for the initial version is served
  // uncoded with the zero value.
  ServerFixture f(erasure::make_paper_5_3(16), 1);
  f.server.client_write(5, 1, 1, val257(3));  // history holds v1
  f.transport.clear();
  const TagVector wanted = zero_tag_vector(3, 5);
  f.server.on_message(
      4, std::make_unique<ValInqMessage>(8, 201, 1, wanted,
                                         WireModel::make({}, 5, 3)));
  const auto resps = f.transport.of_type<ValRespMessage>();
  ASSERT_EQ(resps.size(), 1u);
  EXPECT_EQ(resps[0]->value, Value(16, 0));
}

TEST(ServerUnitTest, ValInqReencodesTowardWantedVersion) {
  // Server 3 (X1+X2+X3) has version v1 of X2 encoded and both v1 and the
  // zero version available: an inquiry wanting the zero version of X2 gets
  // a symbol re-encoded back to zero.
  ServerFixture f(erasure::make_paper_5_3_gf256(16), 3);
  const Tag t = f.server.client_write(5, 1, 1, Value(16, 3));
  ASSERT_EQ(f.server.codeword_tag(1), t);
  f.transport.clear();
  const TagVector wanted = zero_tag_vector(3, 5);  // wants all-initial
  f.server.on_message(
      4, std::make_unique<ValInqMessage>(8, 202, 1, wanted,
                                         WireModel::make({}, 5, 3)));
  // The wanted version of the *read object* (zero) is virtually present, so
  // the server answers uncoded with zero -- per Alg. 2 line 4.
  const auto resps = f.transport.of_type<ValRespMessage>();
  ASSERT_EQ(resps.size(), 1u);
  EXPECT_EQ(resps[0]->value, Value(16, 0));

  // Now inquire for an object the responder cannot serve uncoded (X1 at a
  // nonexistent tag) while X2 differs: the response must be re-encoded with
  // X2 cancelled to the wanted zero version.
  f.transport.clear();
  TagVector wanted2 = zero_tag_vector(3, 5);
  VectorClock other(5);
  other.set(0, 1);
  wanted2[0] = Tag(other, 77);  // a version server 3 has never seen
  f.server.on_message(
      4, std::make_unique<ValInqMessage>(8, 203, 0, wanted2,
                                         WireModel::make({}, 5, 3)));
  const auto encoded = f.transport.of_type<ValRespEncodedMessage>();
  ASSERT_EQ(encoded.size(), 1u);
  // X2's contribution was cancelled: the symbol corresponds to all-zero
  // objects, i.e. the zero symbol.
  EXPECT_EQ(encoded[0]->symbol, Value(16, 0));
  EXPECT_TRUE(encoded[0]->symbol_tags[1].is_zero());
}

// ---------------------------------------------------------------------------
// Garbage collection specifics.
// ---------------------------------------------------------------------------

TEST(ServerUnitTest, GcRequiresDelsFromEveryServer) {
  ServerFixture f(erasure::make_paper_5_3(16), 1);
  const Tag t = f.server.client_write(5, 1, 1, val257(3));
  const WireModel wm = WireModel::make({}, 5, 3);
  // dels from only 3 of 4 other servers: tmax must stay zero, history kept.
  for (NodeId j : {0u, 2u, 3u}) {
    f.server.on_message(j, std::make_unique<DelMessage>(1, t, j, false, wm));
  }
  f.server.run_garbage_collection();
  EXPECT_TRUE(f.server.tmax(1).is_zero());
  EXPECT_EQ(f.server.history(1).size(), 1u);
  // The last del arrives: now everything can go.
  f.server.on_message(4, std::make_unique<DelMessage>(1, t, 4, false, wm));
  f.server.run_garbage_collection();
  EXPECT_EQ(f.server.tmax(1), t);
  EXPECT_EQ(f.server.history(1).size(), 0u);
}

TEST(ServerUnitTest, GcKeepsVersionsProtectedByPendingReads) {
  // A pending read protects its requested version from collection.
  ServerFixture f(erasure::make_paper_5_3(16), 4);
  const WireModel wm = WireModel::make({}, 5, 3);
  // Version 1 of X2 arrives and is encoded.
  VectorClock vc1(5);
  vc1.set(1, 1);
  const Tag t1(vc1, 42);
  f.server.on_message(1, std::make_unique<AppMessage>(1, val257(1), t1, wm));
  ASSERT_EQ(f.server.codeword_tag(1), t1);

  // A remote read registers against the current tags... the read must be
  // for an object that cannot be served locally; with versions in history
  // reads serve locally, so emulate the post-GC state first:
  for (NodeId j = 0; j < 5; ++j) {
    if (j != 4) f.server.on_message(j, std::make_unique<DelMessage>(1, t1, j, false, wm));
  }
  f.server.run_garbage_collection();
  ASSERT_EQ(f.server.history(1).size(), 0u);

  // Version 2 arrives; encoding it needs version 1 -> internal read for t1
  // is registered, protecting t1... and the new version 2 value cannot be
  // collected while it is the freshest.
  VectorClock vc2(5);
  vc2.set(1, 2);
  const Tag t2(vc2, 42);
  f.server.on_message(1, std::make_unique<AppMessage>(1, val257(2), t2, wm));
  EXPECT_EQ(f.server.codeword_tag(1), t1);  // cannot advance yet
  EXPECT_EQ(f.server.read_list().size(), 1u);
  EXPECT_TRUE(f.server.read_list().has_internal_for(1, t1));
  f.server.run_garbage_collection();
  EXPECT_EQ(f.server.history(1).size(), 1u);  // v2 retained
}

TEST(ServerUnitTest, DelCompletingTheFloorCollectsSupersededVersionsAtOnce) {
  // Server 1 stores X2 and encodes its second write over its first. The del
  // that completes max(S) removes the superseded version in the same step;
  // the encoded version stays for the GC tick (DESIGN.md §2, note 12).
  ServerFixture f(erasure::make_paper_5_3(16), 1);
  const Tag t1 = f.server.client_write(5, 1, 1, val257(3));
  const Tag t2 = f.server.client_write(5, 2, 1, val257(4));
  ASSERT_EQ(f.server.codeword_tag(1), t2);
  ASSERT_EQ(f.server.history(1).size(), 2u);
  const WireModel wm = WireModel::make({}, 5, 3);
  for (NodeId j : {0u, 2u, 3u}) {
    f.server.on_message(j, std::make_unique<DelMessage>(1, t2, j, false, wm));
  }
  EXPECT_EQ(f.server.history(1).size(), 2u);  // server 4 has not announced
  EXPECT_TRUE(f.server.tmax(1).is_zero());
  f.server.on_message(4, std::make_unique<DelMessage>(1, t2, 4, false, wm));
  EXPECT_EQ(f.server.tmax(1), t2);
  EXPECT_FALSE(f.server.history(1).contains(t1));
  EXPECT_TRUE(f.server.history(1).contains(t2));
  EXPECT_EQ(f.server.counters().history_entries_collected, 1u);
  EXPECT_EQ(f.server.counters().gc_runs, 0u);
  f.server.run_garbage_collection();
  EXPECT_EQ(f.server.history(1).size(), 0u);
  EXPECT_EQ(f.server.counters().history_entries_collected, 2u);
}

TEST(ServerUnitTest, NonStoringServerAnnouncesMaxUInTheStepThatRaisesIt) {
  // Server 0 does not store X2; servers 1, 3 and 4 do. The del that
  // completes their announcements raises M.tagvec[X2] to max(U), and the
  // same step announces it to every peer, with no GC tick.
  ServerFixture f(erasure::make_paper_5_3(16), 0);
  const WireModel wm = WireModel::make({}, 5, 3);
  VectorClock vc(5);
  vc.set(1, 1);
  const Tag t(vc, 42);
  f.server.on_message(1, std::make_unique<AppMessage>(1, val257(1), t, wm));
  for (NodeId j : {1u, 3u}) {
    f.server.on_message(j, std::make_unique<DelMessage>(1, t, j, false, wm));
  }
  EXPECT_TRUE(f.server.codeword_tag(1).is_zero());
  EXPECT_TRUE(f.transport.of_type<DelMessage>().empty());
  f.server.on_message(4, std::make_unique<DelMessage>(1, t, 4, false, wm));
  EXPECT_EQ(f.server.codeword_tag(1), t);
  std::vector<NodeId> targets;
  for (const auto& s : f.transport.sent) {
    const auto* del = dynamic_cast<const DelMessage*>(s.message.get());
    ASSERT_NE(del, nullptr);
    EXPECT_EQ(del->object, 1u);
    EXPECT_EQ(del->tag, t);
    EXPECT_EQ(del->origin, 0u);
    targets.push_back(s.to);
  }
  EXPECT_EQ(targets, (std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_EQ(f.server.counters().gc_runs, 0u);
}

TEST(ServerUnitTest, DelBroadcastDedupe) {
  ServerConfig dedupe_on;
  dedupe_on.dedupe_del_broadcasts = true;
  ServerFixture f(erasure::make_paper_5_3(16), 1, dedupe_on);
  const Tag t = f.server.client_write(5, 1, 1, val257(3));
  const WireModel wm = WireModel::make({}, 5, 3);
  for (NodeId j : {0u, 2u, 3u, 4u}) {
    f.server.on_message(j, std::make_unique<DelMessage>(1, t, j, false, wm));
  }
  f.transport.clear();
  f.server.run_garbage_collection();
  const std::size_t first = f.transport.of_type<DelMessage>().size();
  EXPECT_GT(first, 0u);
  f.transport.clear();
  // Re-running GC with unchanged state must not rebroadcast.
  f.server.run_garbage_collection();
  EXPECT_EQ(f.transport.of_type<DelMessage>().size(), 0u);

  ServerConfig dedupe_off = dedupe_on;
  dedupe_off.dedupe_del_broadcasts = false;
  ServerFixture g(erasure::make_paper_5_3(16), 1, dedupe_off);
  const Tag t2 = g.server.client_write(5, 1, 1, val257(3));
  for (NodeId j : {0u, 2u, 3u, 4u}) {
    g.server.on_message(j, std::make_unique<DelMessage>(1, t2, j, false, wm));
  }
  g.transport.clear();
  g.server.run_garbage_collection();
  g.server.run_garbage_collection();
  // Without dedupe both GC rounds broadcast.
  EXPECT_GE(g.transport.of_type<DelMessage>().size(), 8u);
}

TEST(ServerUnitTest, LeaderRoutedDelsAreForwardedWithOrigin) {
  // Appendix G variant (ii): a non-leader sends exactly one del (to the
  // leader, forward=true); the leader records it and fans it out with the
  // origin preserved.
  ServerConfig config;
  config.del_routing = DelRouting::kViaLeader;
  config.del_leader = 0;
  ServerFixture sender(erasure::make_paper_5_3(16), 3, config);
  sender.server.client_write(9, 1, 1, val257(4));  // re-encode -> del
  const auto sent = sender.transport.of_type<DelMessage>();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_TRUE(sent[0]->forward);
  EXPECT_EQ(sent[0]->origin, 3u);
  // The only del goes to the leader (apps still go to everyone).
  bool del_to_leader = false;
  for (const auto& s : sender.transport.sent) {
    if (dynamic_cast<const DelMessage*>(s.message.get())) {
      EXPECT_EQ(s.to, 0u);
      del_to_leader = true;
    }
  }
  EXPECT_TRUE(del_to_leader);

  // The leader forwards to everyone except itself and the origin.
  ServerFixture leader(erasure::make_paper_5_3(16), 0, config);
  const WireModel wm = WireModel::make(config, 5, 3);
  leader.server.on_message(
      3, std::make_unique<DelMessage>(1, sent[0]->tag, 3, true, wm));
  EXPECT_TRUE(leader.server.del_list(1).entries_from(3).count(sent[0]->tag) >
              0);
  const auto forwarded = leader.transport.of_type<DelMessage>();
  ASSERT_EQ(forwarded.size(), 3u);  // to 1, 2, 4
  for (const auto* msg : forwarded) {
    EXPECT_FALSE(msg->forward);
    EXPECT_EQ(msg->origin, 3u);
  }
  for (const auto& s : leader.transport.sent) {
    if (dynamic_cast<const DelMessage*>(s.message.get())) {
      EXPECT_NE(s.to, 0u);
      EXPECT_NE(s.to, 3u);
    }
  }
}

TEST(ServerUnitTest, LeaderItselfBroadcastsDirectly) {
  // The leader announces its own encoded tag to every peer at encode, as
  // it forwards everyone else's, so its GC tick has nothing to add.
  ServerConfig config;
  config.del_routing = DelRouting::kViaLeader;
  config.del_leader = 3;
  ServerFixture f(erasure::make_paper_5_3(16), 3, config);
  f.server.client_write(9, 1, 1, val257(4));
  const auto dels = f.transport.of_type<DelMessage>();
  ASSERT_EQ(dels.size(), 4u);  // every server but self
  for (const auto* msg : dels) {
    EXPECT_FALSE(msg->forward);
    EXPECT_EQ(msg->origin, 3u);
  }
  f.transport.clear();
  f.server.run_garbage_collection();
  EXPECT_TRUE(f.transport.of_type<DelMessage>().empty());
}

TEST(ServerUnitTest, StorageStatsReflectState) {
  ServerFixture f(erasure::make_paper_5_3(32), 3);
  auto st = f.server.storage();
  EXPECT_EQ(st.codeword_bytes, 32u);
  EXPECT_EQ(st.history_entries, 0u);
  f.server.client_write(5, 1, 0, val257(1, 32));
  f.server.client_write(5, 2, 1, val257(2, 32));
  st = f.server.storage();
  EXPECT_EQ(st.history_entries, 2u);
  EXPECT_EQ(st.history_bytes, 64u);
}

TEST(ServerUnitTest, CountersTrackActivity) {
  ServerFixture f(erasure::make_paper_5_3(16), 2);
  f.server.client_write(5, 1, 2, val257(1));
  bool served = false;
  f.server.client_read(5, 2, 2,
                       [&](const Value&, const Tag&, const VectorClock&) {
                         served = true;
                       });
  EXPECT_TRUE(served);
  const auto& c = f.server.counters();
  EXPECT_EQ(c.writes, 1u);
  EXPECT_EQ(c.reads, 1u);
  EXPECT_EQ(c.reads_served_from_history, 1u);
  EXPECT_EQ(c.reencodes, 1u);
  EXPECT_EQ(c.error1_events + c.error2_events, 0u);
}

}  // namespace
}  // namespace causalec
