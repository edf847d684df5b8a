// Property tests for the GC bookkeeping structures: DelL (del_list.h) and
// L[X] (history_list.h). Randomized operation sequences are mirrored into
// brute-force reference structures; the paper's derived quantities
// (S -> floor_all, U -> floor_of, Sbar -> has_exact_from_all) and the
// compaction rule must agree with the mirror on every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "causalec/del_list.h"
#include "causalec/history_list.h"
#include "common/random.h"

namespace causalec {
namespace {

/// A small universe of distinct tags in increasing total order.
std::vector<Tag> make_tag_universe(std::size_t n, std::size_t count) {
  std::vector<Tag> tags;
  for (std::size_t i = 1; i <= count; ++i) {
    VectorClock vc(n);
    vc.set(i % n, i);  // distinct sums => strictly ordered
    tags.emplace_back(vc, static_cast<ClientId>(1 + i % 3));
  }
  std::sort(tags.begin(), tags.end());
  return tags;
}

/// Brute-force mirror of DelL: per-server tag sets, quantities recomputed
/// from scratch.
struct DelMirror {
  std::vector<std::set<Tag>> per_server;

  explicit DelMirror(std::size_t n) : per_server(n) {}

  std::optional<Tag> floor_all() const {
    std::optional<Tag> floor;
    for (const auto& tags : per_server) {
      if (tags.empty()) return std::nullopt;
      const Tag m = *tags.rbegin();
      if (!floor || m < *floor) floor = m;
    }
    return floor;
  }

  std::optional<Tag> floor_of(const std::vector<NodeId>& subset) const {
    std::optional<Tag> floor;
    for (NodeId s : subset) {
      if (per_server[s].empty()) return std::nullopt;
      const Tag m = *per_server[s].rbegin();
      if (!floor || m < *floor) floor = m;
    }
    return floor;
  }

  bool has_exact_from_all(const Tag& tag) const {
    for (const auto& tags : per_server) {
      if (tags.count(tag) == 0) return false;
    }
    return true;
  }
};

TEST(DelListPropertyTest, MatchesBruteForceUnderRandomInserts) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::size_t n = 4 + seed % 3;
    const auto universe = make_tag_universe(n, 12);
    Rng rng(seed * 77);
    DelList del(n);
    DelMirror mirror(n);

    for (int step = 0; step < 200; ++step) {
      const NodeId server = static_cast<NodeId>(rng.next_below(n));
      const Tag& tag = universe[rng.next_below(universe.size())];
      del.add(server, tag);
      mirror.per_server[server].insert(tag);

      // S: the floor over all servers.
      EXPECT_EQ(del.floor_all().has_value(), mirror.floor_all().has_value());
      if (del.floor_all()) {
        EXPECT_TRUE(*del.floor_all() == *mirror.floor_all());
      }
      const Tag& below = universe[rng.next_below(universe.size())];
      EXPECT_EQ(del.floor_above(below),
                mirror.floor_all().has_value() && *mirror.floor_all() > below);
      // U: the floor over a random subset (recovery-set shape).
      std::vector<NodeId> subset;
      for (NodeId s = 0; s < n; ++s) {
        if (rng.next_bool(0.5)) subset.push_back(s);
      }
      if (!subset.empty()) {
        const auto got = del.floor_of(subset);
        const auto want = mirror.floor_of(subset);
        EXPECT_EQ(got.has_value(), want.has_value());
        if (got) {
          EXPECT_TRUE(*got == *want);
        }
      }
      // Sbar: exact membership at every server.
      const Tag& probe = universe[rng.next_below(universe.size())];
      EXPECT_EQ(del.has_exact_from_all(probe),
                mirror.has_exact_from_all(probe));
    }
  }
}

TEST(DelListPropertyTest, FloorIsAbsentAfterPartialAcks) {
  // Until EVERY server has announced at least one del, S must stay empty
  // (floor_all nullopt) -- a floor computed from partial acks would let GC
  // delete versions some server still needs.
  const std::size_t n = 5;
  const auto universe = make_tag_universe(n, 6);
  DelList del(n);
  for (NodeId s = 0; s + 1 < n; ++s) {  // all but the last server ack
    del.add(s, universe[s]);
    EXPECT_FALSE(del.floor_all().has_value())
        << "floor appeared after only " << (s + 1) << "/" << n << " acks";
  }
  del.add(static_cast<NodeId>(n - 1), universe[0]);
  ASSERT_TRUE(del.floor_all().has_value());
  // The floor is the minimum of the per-server maxima.
  EXPECT_TRUE(*del.floor_all() == universe[0]);
  // A subset that has fully acked resolves even while floor_all was empty.
  DelList partial(n);
  partial.add(0, universe[3]);
  partial.add(2, universe[1]);
  const std::vector<NodeId> subset{0, 2};
  ASSERT_TRUE(partial.floor_of(subset).has_value());
  EXPECT_TRUE(*partial.floor_of(subset) == universe[1]);
}

TEST(DelListPropertyTest, CompactionPreservesEveryLiveQuery) {
  // compact(tmax) may only drop entries that cannot influence floor_all,
  // floor_of, or has_exact_from_all for any tag >= tmax (the only
  // arguments the algorithm still queries after advancing tmax).
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::size_t n = 4;
    const auto universe = make_tag_universe(n, 10);
    Rng rng(seed * 131);
    DelList del(n);
    DelMirror mirror(n);
    for (int i = 0; i < 60; ++i) {
      const NodeId server = static_cast<NodeId>(rng.next_below(n));
      const Tag& tag = universe[rng.next_below(universe.size())];
      del.add(server, tag);
      mirror.per_server[server].insert(tag);
    }

    const std::size_t tmax_idx = rng.next_below(universe.size());
    const Tag& tmax = universe[tmax_idx];
    del.compact(tmax);

    // The floors never change: each server's maximum is always retained.
    EXPECT_EQ(del.floor_all().has_value(), mirror.floor_all().has_value());
    if (del.floor_all()) {
      EXPECT_TRUE(*del.floor_all() == *mirror.floor_all());
    }
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = 0; b < n; ++b) {
        const std::vector<NodeId> subset{a, b};
        const auto got = del.floor_of(subset);
        const auto want = mirror.floor_of(subset);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (got) {
          EXPECT_TRUE(*got == *want);
        }
      }
    }
    // Exact membership is preserved for every tag >= tmax.
    for (std::size_t i = tmax_idx; i < universe.size(); ++i) {
      EXPECT_EQ(del.has_exact_from_all(universe[i]),
                mirror.has_exact_from_all(universe[i]))
          << "seed " << seed << " tag index " << i;
    }
    // Compaction never grows the list and retains per-server maxima.
    for (NodeId s = 0; s < n; ++s) {
      if (!mirror.per_server[s].empty()) {
        EXPECT_TRUE(del.entries_from(s).count(*mirror.per_server[s].rbegin()))
            << "server " << s << " lost its maximal entry";
      }
    }
  }
}

TEST(HistoryListPropertyTest, ZeroTagIsVirtual) {
  HistoryList list(/*num_servers=*/5, /*value_bytes=*/8);
  const Tag zero = Tag::zero(5);

  // Inserting the zero tag is a no-op: the initial version is implicit.
  list.insert(zero, erasure::Value(8, 0xAB));
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.payload_bytes(), 0u);

  // But the zero version is always readable and always "contained".
  EXPECT_TRUE(list.contains(zero));
  const auto value = list.lookup(zero);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, erasure::Value(8, 0));  // all-zeros, not 0xAB
  EXPECT_TRUE(list.highest_tag() == zero);

  // Erasing through the zero tag never touches the virtual entry.
  EXPECT_EQ(list.erase_prefix(zero, /*inclusive=*/true, {}), 0u);
  EXPECT_TRUE(list.contains(zero));
}

TEST(HistoryListPropertyTest, MatchesBruteForceUnderInsertsAndPrunes) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::size_t n = 4;
    const auto universe = make_tag_universe(n, 10);
    Rng rng(seed * 997);
    HistoryList list(n, 8);
    std::set<Tag> mirror;

    for (int step = 0; step < 150; ++step) {
      if (rng.next_bool(0.7)) {
        const Tag& tag = universe[rng.next_below(universe.size())];
        list.insert(tag, erasure::Value(8, static_cast<std::uint8_t>(step)));
        mirror.insert(tag);
      } else if (!mirror.empty()) {
        // Prune below a random threshold, as GC does with tmax.
        const Tag& below = universe[rng.next_below(universe.size())];
        list.erase_prefix(below, /*inclusive=*/false, {});
        for (auto it = mirror.begin(); it != mirror.end();) {
          it = (*it < below) ? mirror.erase(it) : std::next(it);
        }
      }

      EXPECT_EQ(list.size(), mirror.size());
      const Tag want_highest =
          mirror.empty() ? Tag::zero(n) : *mirror.rbegin();
      EXPECT_TRUE(list.highest_tag() == want_highest);
      for (const Tag& tag : universe) {
        EXPECT_EQ(list.contains(tag), mirror.count(tag) > 0 || tag.is_zero());
        // highest_leq against the brute-force scan.
        const auto got = list.highest_leq(tag);
        std::optional<Tag> want;
        for (const Tag& m : mirror) {
          if (m <= tag) want = m;
        }
        ASSERT_EQ(got.has_value(), want.has_value());
        if (got) {
          EXPECT_TRUE(*got == *want);
        }
      }
    }
  }
}

TEST(HistoryListPropertyTest, PrefixEraseMatchesBruteForce) {
  // GC's one erase primitive against the brute-force rule: remove every
  // t < bound (t <= bound when inclusive) that is not protected.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const std::size_t n = 4;
    const auto universe = make_tag_universe(n, 12);
    Rng rng(seed * 7919);
    HistoryList list(n, 8);
    std::set<Tag> mirror;

    for (int step = 0; step < 200; ++step) {
      if (rng.next_bool(0.6)) {
        const Tag& tag = universe[rng.next_below(universe.size())];
        list.insert(tag, erasure::Value(8, static_cast<std::uint8_t>(step)));
        mirror.insert(tag);
        continue;
      }
      const Tag& bound = universe[rng.next_below(universe.size())];
      const bool inclusive = rng.next_bool(0.5);
      // Protected tags as ReadL yields them: any tags, some repeated, some
      // above the bound or absent from the list, sorted ascending.
      std::vector<const Tag*> keep;
      const std::size_t count = rng.next_below(5);
      for (std::size_t i = 0; i < count; ++i) {
        keep.push_back(&universe[rng.next_below(universe.size())]);
      }
      std::sort(keep.begin(), keep.end(),
                [](const Tag* a, const Tag* b) { return *a < *b; });
      const auto is_kept = [&](const Tag& t) {
        return std::any_of(keep.begin(), keep.end(),
                           [&](const Tag* k) { return *k == t; });
      };

      std::size_t want_removed = 0;
      for (auto it = mirror.begin(); it != mirror.end();) {
        const bool below = inclusive ? *it <= bound : *it < bound;
        if (below && !is_kept(*it)) {
          it = mirror.erase(it);
          ++want_removed;
        } else {
          ++it;
        }
      }
      EXPECT_EQ(list.erase_prefix(bound, inclusive, keep), want_removed);
      ASSERT_EQ(list.size(), mirror.size());
      auto got = list.entries().begin();
      for (const Tag& tag : mirror) {
        EXPECT_TRUE(got->first == tag);
        ++got;
      }
    }
  }
}

TEST(HistoryListPropertyTest, DuplicateInsertKeepsFirstValue) {
  // A tag uniquely identifies a write (Lemma B.3); a duplicate insert must
  // not overwrite the original payload.
  HistoryList list(3, 4);
  VectorClock vc(3);
  vc.set(0, 1);
  const Tag tag(vc, 1);
  list.insert(tag, erasure::Value(4, 1));
  list.insert(tag, erasure::Value(4, 2));
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(*list.lookup(tag), erasure::Value(4, 1));
}

}  // namespace
}  // namespace causalec
