// Unit tests for vector clocks, tags, and the protocol state containers
// (history list, deletion list, inqueue, read list).
#include <gtest/gtest.h>

#include "causalec/del_list.h"
#include "causalec/history_list.h"
#include "causalec/inqueue.h"
#include "causalec/read_list.h"
#include "causalec/tag.h"
#include "common/random.h"

namespace causalec {
namespace {

VectorClock vc(std::initializer_list<std::uint64_t> vals) {
  VectorClock clock(vals.size());
  std::size_t i = 0;
  for (auto v : vals) clock.set(i++, v);
  return clock;
}

Tag tag(std::initializer_list<std::uint64_t> vals, ClientId id = 0) {
  return Tag(vc(vals), id);
}

// ---------------------------------------------------------------------------
// VectorClock.
// ---------------------------------------------------------------------------

TEST(VectorClockTest, PartialOrder) {
  const auto a = vc({1, 2, 3});
  const auto b = vc({1, 2, 3});
  const auto c = vc({2, 2, 3});
  const auto d = vc({0, 5, 3});
  EXPECT_TRUE(a.leq(b));
  EXPECT_TRUE(b.leq(a));
  EXPECT_FALSE(a.lt(b));
  EXPECT_TRUE(a.lt(c));
  EXPECT_FALSE(c.lt(a));
  EXPECT_TRUE(a.concurrent_with(d));
  EXPECT_TRUE(d.concurrent_with(c));
}

TEST(VectorClockTest, MergeTakesComponentwiseMax) {
  auto a = vc({1, 5, 0});
  a.merge(vc({3, 2, 2}));
  EXPECT_EQ(a, vc({3, 5, 2}));
  EXPECT_EQ(a.sum(), 10u);
}

TEST(VectorClockTest, IncrementAndSum) {
  auto a = vc({0, 0});
  a.increment(1);
  a.increment(1);
  a.increment(0);
  EXPECT_EQ(a, vc({1, 2}));
  EXPECT_EQ(a.sum(), 3u);
  EXPECT_FALSE(a.is_zero());
  EXPECT_TRUE(vc({0, 0}).is_zero());
}

// ---------------------------------------------------------------------------
// Tag total order.
// ---------------------------------------------------------------------------

TEST(TagTest, TotalOrderExtendsCausality) {
  // Comparable timestamps: tag order must agree with vector order.
  EXPECT_TRUE(tag({1, 0}) < tag({1, 1}));
  EXPECT_TRUE(tag({0, 0}) < tag({5, 3}));
  EXPECT_FALSE(tag({2, 2}) < tag({1, 1}));
}

TEST(TagTest, TotalOrderIsTotalOnConcurrentTags) {
  const auto a = tag({2, 0}, 1);
  const auto b = tag({0, 2}, 2);
  EXPECT_TRUE((a < b) != (b < a));
  // Equal timestamps: the client id breaks the tie.
  const auto c = tag({1, 1}, 1);
  const auto d = tag({1, 1}, 2);
  EXPECT_TRUE(c < d);
  EXPECT_FALSE(d < c);
}

TEST(TagTest, TotalOrderIsTransitiveOnRandomTags) {
  Rng rng(5);
  std::vector<Tag> tags;
  for (int i = 0; i < 60; ++i) {
    VectorClock clock(3);
    for (std::size_t j = 0; j < 3; ++j) clock.set(j, rng.next_below(4));
    tags.emplace_back(clock, rng.next_below(4));
  }
  for (const auto& a : tags) {
    for (const auto& b : tags) {
      // Antisymmetry / totality.
      const int rel = (a < b) + (b < a) + 2 * (a == b);
      EXPECT_TRUE(rel == 1 || (a == b && !(a < b) && !(b < a)));
      for (const auto& c : tags) {
        if (a < b && b < c) {
          EXPECT_TRUE(a < c);
        }
      }
    }
  }
}

TEST(TagTest, ZeroTag) {
  const auto z = Tag::zero(3);
  EXPECT_TRUE(z.is_zero());
  EXPECT_TRUE(z < tag({0, 0, 1}));
  EXPECT_TRUE(z <= z);
}

// ---------------------------------------------------------------------------
// HistoryList.
// ---------------------------------------------------------------------------

TEST(HistoryListTest, VirtualZeroEntry) {
  HistoryList list(2, 4);
  EXPECT_TRUE(list.empty());
  const auto zero_val = list.lookup(Tag::zero(2));
  ASSERT_TRUE(zero_val.has_value());
  EXPECT_EQ(*zero_val, erasure::Value(4, 0));
  EXPECT_EQ(list.highest_tag(), Tag::zero(2));
  // Zero-tag inserts are dropped.
  list.insert(Tag::zero(2), erasure::Value{1, 2, 3, 4});
  EXPECT_TRUE(list.empty());
}

TEST(HistoryListTest, InsertLookupHighest) {
  HistoryList list(2, 4);
  const auto t1 = tag({1, 0}, 7);
  const auto t2 = tag({1, 1}, 8);
  list.insert(t1, erasure::Value{1, 1, 1, 1});
  list.insert(t2, erasure::Value{2, 2, 2, 2});
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(list.highest_tag(), t2);
  EXPECT_EQ(*list.lookup(t1), (erasure::Value{1, 1, 1, 1}));
  EXPECT_FALSE(list.lookup(tag({9, 9})).has_value());
  EXPECT_EQ(list.payload_bytes(), 8u);
  // Duplicate tags keep the first value.
  list.insert(t1, erasure::Value{9, 9, 9, 9});
  EXPECT_EQ(*list.lookup(t1), (erasure::Value{1, 1, 1, 1}));
}

TEST(HistoryListTest, HighestLeqAndErasePrefix) {
  HistoryList list(2, 1);
  const auto t1 = tag({1, 0});
  const auto t2 = tag({1, 1});
  const auto t3 = tag({2, 2});
  list.insert(t1, {1});
  list.insert(t2, {2});
  list.insert(t3, {3});
  EXPECT_EQ(*list.highest_leq(t2), t2);
  EXPECT_EQ(*list.highest_leq(tag({2, 1})), t2);
  EXPECT_EQ(*list.highest_leq(t3), t3);
  const auto removed = list.erase_prefix(t3, /*inclusive=*/false, {});
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(list.size(), 1u);
  EXPECT_FALSE(list.highest_leq(t1).has_value());
}

// ---------------------------------------------------------------------------
// DelList.
// ---------------------------------------------------------------------------

TEST(DelListTest, FloorAllRequiresEveryServer) {
  DelList del(3);
  EXPECT_FALSE(del.floor_all().has_value());
  del.add(0, tag({3, 0, 0}));
  del.add(1, tag({1, 1, 0}));
  EXPECT_FALSE(del.floor_all().has_value());
  del.add(2, tag({2, 2, 2}));
  // floor = min of per-server maxima under the total order.
  const auto floor = del.floor_all();
  ASSERT_TRUE(floor.has_value());
  EXPECT_EQ(*floor, tag({1, 1, 0}));
}

TEST(DelListTest, FloorOfSubset) {
  DelList del(3);
  del.add(0, tag({5, 0, 0}));
  del.add(2, tag({1, 0, 0}));
  const NodeId subset[] = {0, 2};
  const auto floor = del.floor_of(subset);
  ASSERT_TRUE(floor.has_value());
  EXPECT_EQ(*floor, tag({1, 0, 0}));
  const NodeId with_empty[] = {0, 1};
  EXPECT_FALSE(del.floor_of(with_empty).has_value());
}

TEST(DelListTest, HasExactFromAll) {
  DelList del(2);
  const auto t = tag({1, 1});
  del.add(0, t);
  EXPECT_FALSE(del.has_exact_from_all(t));
  del.add(1, t);
  EXPECT_TRUE(del.has_exact_from_all(t));
  EXPECT_FALSE(del.has_exact_from_all(tag({2, 2})));
}

TEST(DelListTest, CompactionPreservesQueries) {
  DelList a(2), b(2);
  const auto tags0 = {tag({1, 0}), tag({2, 0}), tag({3, 0})};
  const auto tags1 = {tag({1, 0}), tag({2, 0})};
  for (const auto& t : tags0) {
    a.add(0, t);
    b.add(0, t);
  }
  for (const auto& t : tags1) {
    a.add(1, t);
    b.add(1, t);
  }
  const Tag tmax = tag({2, 0});
  b.compact(tmax);
  EXPECT_LT(b.total_entries(), a.total_entries());
  // All three queries agree for arguments >= tmax.
  EXPECT_EQ(a.floor_all(), b.floor_all());
  EXPECT_EQ(a.has_exact_from_all(tag({2, 0})),
            b.has_exact_from_all(tag({2, 0})));
  EXPECT_EQ(a.has_exact_from_all(tag({3, 0})),
            b.has_exact_from_all(tag({3, 0})));
  const NodeId all[] = {0, 1};
  EXPECT_EQ(a.floor_of(all), b.floor_of(all));
}

// ---------------------------------------------------------------------------
// InQueue placement rule.
// ---------------------------------------------------------------------------

InQueue::Entry entry(NodeId origin, Tag t) {
  return InQueue::Entry{origin, 0, erasure::Value{}, std::move(t)};
}

TEST(InQueueTest, SmallerTimestampsMoveTowardHead) {
  InQueue q;
  q.insert(entry(0, tag({2, 0})));
  q.insert(entry(1, tag({1, 0})));  // strictly smaller -> becomes head
  EXPECT_EQ(q.head().tag, tag({1, 0}));
  EXPECT_EQ(q.size(), 2u);
}

TEST(InQueueTest, IncomparableStaysBehind) {
  InQueue q;
  q.insert(entry(0, tag({2, 0})));
  q.insert(entry(1, tag({0, 1})));  // incomparable -> stays behind
  EXPECT_EQ(q.head().tag, tag({2, 0}));
}

TEST(InQueueTest, PopHeadFifoWithinComparableChain) {
  InQueue q;
  q.insert(entry(0, tag({3, 0})));
  q.insert(entry(0, tag({1, 0})));
  q.insert(entry(0, tag({2, 0})));
  EXPECT_EQ(q.pop_head().tag, tag({1, 0}));
  EXPECT_EQ(q.pop_head().tag, tag({2, 0}));
  EXPECT_EQ(q.pop_head().tag, tag({3, 0}));
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// ReadList.
// ---------------------------------------------------------------------------

TEST(ReadListTest, FindRemoveAndInternalGuard) {
  ReadList reads;
  PendingRead r1;
  r1.client = 42;
  r1.opid = 1001;
  r1.object = 0;
  r1.requested = zero_tag_vector(2, 2);
  r1.symbols.assign(2, std::nullopt);
  reads.add(r1);

  PendingRead r2;
  r2.client = kLocalhost;
  r2.opid = 1002;
  r2.object = 1;
  r2.requested = zero_tag_vector(2, 2);
  r2.requested[1] = tag({1, 0});
  r2.symbols.assign(2, std::nullopt);
  reads.add(r2);

  EXPECT_NE(reads.find(1001), nullptr);
  EXPECT_EQ(reads.find(9999), nullptr);
  EXPECT_TRUE(reads.has_internal_for(1, tag({1, 0})));
  EXPECT_FALSE(reads.has_internal_for(1, tag({2, 0})));
  EXPECT_FALSE(reads.has_internal_for(0, Tag::zero(2)));  // r1 is external
  reads.remove(1001);
  EXPECT_EQ(reads.find(1001), nullptr);
  EXPECT_EQ(reads.size(), 1u);
}

}  // namespace
}  // namespace causalec
