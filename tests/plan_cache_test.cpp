// Tests for the decode plans and their cache (erasure/plan.h + LinearCodeT).
//
// The load-bearing property: for every (object, provided-server-mask) pair,
// the cached plan must be identical -- same recovery set, same fetched rows
// and coefficients -- to a fresh Gaussian elimination, and decode() through
// the cache
// must return the same bytes as with the cache disabled. We sweep every
// mask of the six-DC cross-object code (63 non-empty subsets x 4 objects)
// so no shape is left unpinned.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "erasure/codes.h"
#include "erasure/linear_code.h"
#include "gf/gf256.h"
#include "linalg/matrix.h"

namespace causalec::erasure {
namespace {

using gf::GF256;
using Code256 = LinearCodeT<GF256>;

/// The Sec. 1.1 six-data-center layout, built directly as LinearCodeT so
/// the tests reach the plan-cache API (the factory returns the erased
/// CodePtr):  Seoul: G1+G3, Mumbai: G2+G4, Ireland: G1, London: G2,
/// N.California: G4, Oregon: G3.
std::shared_ptr<Code256> six_dc(std::size_t value_bytes) {
  linalg::Matrix<GF256> stacked(6, 4);
  const std::uint8_t rows[6][4] = {{1, 0, 1, 0}, {0, 1, 0, 1}, {1, 0, 0, 0},
                                   {0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}};
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 4; ++c) stacked(r, c) = rows[r][c];
  }
  return Code256::one_row_per_server(stacked, value_bytes, "six-dc");
}

std::vector<NodeId> servers_of(std::uint32_t mask) {
  std::vector<NodeId> servers;
  for (NodeId s = 0; s < 32; ++s) {
    if (mask >> s & 1) servers.push_back(s);
  }
  return servers;
}

template <typename Elem>
void expect_same_plan(const Plan<Elem>& a, const Plan<Elem>& b) {
  EXPECT_EQ(a.helper_mask, b.helper_mask);
  EXPECT_EQ(a.fetches, b.fetches);
  ASSERT_EQ(a.row_ops.size(), b.row_ops.size());
  for (std::size_t r = 0; r < a.row_ops.size(); ++r) {
    ASSERT_EQ(a.row_ops[r].size(), b.row_ops[r].size());
    for (std::size_t i = 0; i < a.row_ops[r].size(); ++i) {
      EXPECT_EQ(a.row_ops[r][i].fetch, b.row_ops[r][i].fetch) << "op " << i;
      EXPECT_EQ(a.row_ops[r][i].coeff, b.row_ops[r][i].coeff) << "op " << i;
    }
  }
}

/// The first minimal recovery set of `obj` inside `mask`, in the code's
/// stored (size, lexicographic) order: the set a decode plan must read.
std::uint32_t first_minimal_set(const Code256& code, ObjectId obj,
                                std::uint32_t mask) {
  for (const auto& rs : code.recovery_sets(obj)) {
    std::uint32_t set = 0;
    for (const NodeId s : rs) set |= 1u << s;
    if ((set & mask) == set) return set;
  }
  return 0;
}

TEST(PlanCacheTest, CachedPlanEqualsFreshEliminationForEveryMask) {
  const auto code = six_dc(32);
  for (ObjectId obj = 0; obj < 4; ++obj) {
    for (std::uint32_t mask = 1; mask < (1u << 6); ++mask) {
      const auto servers = servers_of(mask);
      const auto fresh = code->compute_plan_fresh(obj, mask);
      if (!code->is_recovery_set(obj, servers)) {
        EXPECT_EQ(fresh, nullptr) << "obj " << obj << " mask " << mask;
        continue;
      }
      ASSERT_NE(fresh, nullptr) << "obj " << obj << " mask " << mask;
      const auto cached = code->decode_plan(obj, mask);
      expect_same_plan(*cached, *fresh);
      // The plan decodes one output row from the first minimal recovery
      // set inside what was provided, and every coefficient is stored
      // nonzero.
      ASSERT_EQ(cached->row_ops.size(), 1u);
      EXPECT_EQ(cached->helper_mask, first_minimal_set(*code, obj, mask));
      for (const auto& op : cached->row_ops[0]) {
        EXPECT_NE(op.coeff, GF256::zero);
        EXPECT_TRUE(cached->helper_mask >> cached->fetches[op.fetch].server &
                    1);
      }
    }
  }
}

TEST(PlanCacheTest, DecodeBytesIdenticalWithCacheDisabled) {
  const auto cached_code = six_dc(64);
  const auto fresh_code = six_dc(64);
  fresh_code->set_plan_cache_enabled(false);

  Rng rng(0xCAC4Eu);
  std::vector<Value> vals(4);
  for (auto& v : vals) {
    v.resize(64);
    for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
  }
  for (ObjectId obj = 0; obj < 4; ++obj) {
    for (std::uint32_t mask = 1; mask < (1u << 6); ++mask) {
      const auto servers = servers_of(mask);
      if (!cached_code->is_recovery_set(obj, servers)) continue;
      std::vector<Symbol> symbols;
      for (const NodeId s : servers) {
        symbols.push_back(cached_code->encode(s, vals));
      }
      // Decode twice through the cache (second hit replays the plan) and
      // once with caching off; all three must equal the original value.
      const Value a = cached_code->decode(obj, servers, symbols);
      const Value b = cached_code->decode(obj, servers, symbols);
      const Value c = fresh_code->decode(obj, servers, symbols);
      EXPECT_EQ(a, vals[obj]) << "obj " << obj << " mask " << mask;
      EXPECT_EQ(b, vals[obj]);
      EXPECT_EQ(c, vals[obj]);
    }
  }
  // The fresh code never cached anything.
  const auto fresh_stats = fresh_code->decode_plan_cache_stats();
  EXPECT_EQ(fresh_stats.hits, 0u);
  EXPECT_EQ(fresh_stats.misses, 0u);
  EXPECT_EQ(fresh_stats.entries, 0u);
}

TEST(PlanCacheTest, StatsCountHitsMissesEntries) {
  const auto code = six_dc(16);
  auto stats = code->decode_plan_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);

  // First decode of a shape misses and installs one entry.
  const std::vector<NodeId> servers = {2, 5};  // Ireland + Oregon -> G1, G3
  std::vector<Value> vals(4, Value(16, 7));
  std::vector<Symbol> symbols;
  for (const NodeId s : servers) symbols.push_back(code->encode(s, vals));
  (void)code->decode(0, servers, symbols);
  stats = code->decode_plan_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // Same shape again: pure hits, no new entries.
  for (int i = 0; i < 5; ++i) (void)code->decode(0, servers, symbols);
  stats = code->decode_plan_cache_stats();
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 5.0 / 6.0);

  // A different object through the same servers is a distinct key.
  (void)code->decode(2, servers, symbols);
  stats = code->decode_plan_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(PlanCacheTest, DisabledCacheCountsNothing) {
  const auto code = six_dc(16);
  code->set_plan_cache_enabled(false);
  const std::vector<NodeId> servers = {2, 5};
  std::vector<Value> vals(4, Value(16, 3));
  std::vector<Symbol> symbols;
  for (const NodeId s : servers) symbols.push_back(code->encode(s, vals));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(code->decode(0, servers, symbols), vals[0]);
  }
  const auto stats = code->decode_plan_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(PlanCacheTest, PlanUsesMinimalRecoverySetFromOversizedMask) {
  const auto code = six_dc(16);
  // All six servers provided; Ireland (2) alone is a minimal recovery set
  // for G1 (object 0), and minimal sets are enumerated smallest-first, so
  // the plan must read exactly one row from server 2.
  const std::uint32_t all = (1u << 6) - 1;
  const auto plan = code->decode_plan(0, all);
  EXPECT_EQ(std::popcount(plan->helper_mask), 1);
  ASSERT_EQ(plan->fetches.size(), 1u);
  EXPECT_EQ(plan->fetches[0].server, 2u);
  ASSERT_EQ(plan->row_ops.size(), 1u);
  ASSERT_EQ(plan->row_ops[0].size(), 1u);
  EXPECT_EQ(plan->row_ops[0][0].coeff, GF256::one);
}

TEST(PlanCacheTest, StatsAggregateAcrossPolymorphicCode) {
  // Through the type-erased CodePtr (the factory path used by the stores):
  // decode twice, expect one miss + one hit reported via the Code interface.
  const CodePtr code = make_six_dc_cross_object(16);
  const std::vector<NodeId> servers = {0, 5};  // Seoul + Oregon -> G1
  std::vector<Value> vals(4, Value(16, 9));
  std::vector<Symbol> symbols;
  for (const NodeId s : servers) symbols.push_back(code->encode(s, vals));
  (void)code->decode(0, servers, symbols);
  (void)code->decode(0, servers, symbols);
  const auto stats = code->decode_plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

}  // namespace
}  // namespace causalec::erasure
