// Differential battery for the repair plans (erasure/plan.h).
//
// Every RepairPlan output must be byte-identical to what a fresh
// Gaussian-elimination full decode produces: rebuild the failed symbol by
// decoding all K objects from the survivors with the plan caches disabled,
// re-encode, and compare against the plan execution -- swept over all
// single- and double-erasure patterns for RS(6,4), Azure-LRC(6,2,2), and
// wide-stripe RS(14,10), under every available CAUSALEC_GF_KERNEL tier.
// The battery also pins the planner's fetch accounting: minimal-fetch never
// moves more than the full-decode baseline, an LRC data failure repairs
// from its local group alone, and cached plans equal freshly planned ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "erasure/codes.h"
#include "erasure/linear_code.h"
#include "erasure/plan.h"
#include "gf/gf256.h"
#include "gf/kernels.h"

namespace causalec::erasure {
namespace {

using GF = gf::GF256;
using LinearCode = LinearCodeT<GF>;
using LinearCodePtr = std::shared_ptr<const LinearCode>;

constexpr std::size_t kValueBytes = 16;

std::vector<gf::kernels::Tier> available_tiers() {
  std::vector<gf::kernels::Tier> tiers;
  for (int t = 0; t < gf::kernels::kNumTiers; ++t) {
    const auto tier = static_cast<gf::kernels::Tier>(t);
    if (gf::kernels::tier_available(tier)) tiers.push_back(tier);
  }
  return tiers;
}

struct CodeCase {
  const char* name;
  LinearCodePtr code;
};

LinearCodePtr as_linear(const CodePtr& code) {
  auto linear = std::dynamic_pointer_cast<const LinearCode>(code);
  CEC_CHECK(linear != nullptr);
  return linear;
}

std::vector<CodeCase> battery_codes() {
  return {
      {"rs_6_4", as_linear(make_systematic_rs(6, 4, kValueBytes))},
      {"azure_lrc_6_2_2", as_linear(make_azure_lrc_6_2_2(kValueBytes))},
      {"rs_14_10", as_linear(make_wide_rs_14_10(kValueBytes))},
  };
}

std::vector<Value> pattern_values(std::size_t k) {
  std::vector<Value> vals(k);
  for (std::size_t i = 0; i < k; ++i) {
    vals[i].resize(kValueBytes);
    for (std::size_t j = 0; j < kValueBytes; ++j) {
      vals[i][j] = static_cast<std::uint8_t>(i * 37 + j * 11 + 1);
    }
  }
  return vals;
}

/// All erasure masks of popcount 1 and 2 over n servers.
std::vector<std::uint32_t> erasure_patterns(std::size_t n) {
  std::vector<std::uint32_t> masks;
  for (NodeId a = 0; a < n; ++a) {
    masks.push_back(1u << a);
    for (NodeId b = a + 1; b < n; ++b) masks.push_back((1u << a) | (1u << b));
  }
  return masks;
}

/// The ground truth: decode every object from the survivors with a fresh
/// Gaussian elimination (plan caches off), then re-encode the failed symbol.
Symbol full_decode_rebuild(const LinearCode& code, NodeId failed,
                           const std::vector<NodeId>& survivors,
                           const std::vector<Symbol>& symbols) {
  code.set_plan_cache_enabled(false);
  std::vector<Value> decoded;
  for (ObjectId k = 0; k < code.num_objects(); ++k) {
    decoded.push_back(code.decode(k, survivors, symbols));
  }
  code.set_plan_cache_enabled(true);
  return code.encode(failed, decoded);
}

TEST(RepairPlanTest, SymbolRepairMatchesFullDecodeOnEveryTier) {
  for (const auto& [name, code] : battery_codes()) {
    const std::size_t n = code->num_servers();
    const auto vals = pattern_values(code->num_objects());
    std::vector<Symbol> all_symbols;
    for (NodeId s = 0; s < n; ++s) all_symbols.push_back(code->encode(s, vals));

    for (const std::uint32_t erased : erasure_patterns(n)) {
      std::vector<NodeId> survivors;
      std::vector<Symbol> survivor_symbols;
      for (NodeId s = 0; s < n; ++s) {
        if (erased >> s & 1) continue;
        survivors.push_back(s);
        survivor_symbols.push_back(all_symbols[s]);
      }
      for (NodeId failed = 0; failed < n; ++failed) {
        if (!(erased >> failed & 1)) continue;
        const auto plan = code->symbol_repair_plan(
            failed, erased, RepairStrategy::kMinimalFetch);
        ASSERT_NE(plan, nullptr)
            << name << " failed=" << failed << " erased=" << erased;
        // Feed the plan exactly its helper symbols -- nothing more.
        std::vector<NodeId> helpers;
        std::vector<Symbol> helper_symbols;
        for (NodeId s = 0; s < n; ++s) {
          if (plan->helper_mask >> s & 1) {
            helpers.push_back(s);
            helper_symbols.push_back(all_symbols[s]);
          }
        }
        const Symbol truth =
            full_decode_rebuild(*code, failed, survivors, survivor_symbols);
        for (const auto tier : available_tiers()) {
          gf::kernels::ScopedTierForTesting guard(tier);
          EXPECT_EQ(code->repair_symbol(failed, helpers, helper_symbols),
                    truth)
              << name << " failed=" << failed << " erased=" << erased
              << " tier " << gf::kernels::tier_name(tier);
        }
        EXPECT_EQ(code->repair_symbol(failed, helpers, helper_symbols),
                  code->encode(failed, vals))
            << name << " repair must equal the original encoding";
      }
    }
  }
}

TEST(RepairPlanTest, MinimalFetchNeverExceedsFullDecode) {
  for (const auto& [name, code] : battery_codes()) {
    const std::size_t n = code->num_servers();
    for (const std::uint32_t erased : erasure_patterns(n)) {
      for (NodeId failed = 0; failed < n; ++failed) {
        if (!(erased >> failed & 1)) continue;
        const auto summary = code->plan_symbol_repair(failed, erased);
        ASSERT_TRUE(summary.has_value())
            << name << " failed=" << failed << " erased=" << erased;
        EXPECT_LE(summary->fetch_rows, summary->full_decode_rows);
        EXPECT_EQ(summary->fetch_bytes,
                  summary->fetch_rows * code->value_bytes());
        EXPECT_EQ(summary->erased_mask, erased);
        EXPECT_EQ(summary->helper_mask & erased, 0u)
            << "helpers must avoid the erased servers";
        EXPECT_EQ(summary->helper_mask >> failed & 1, 0u);
      }
    }
  }
}

TEST(RepairPlanTest, LrcDataFailureRepairsFromLocalGroup) {
  const auto code = as_linear(make_azure_lrc_6_2_2(kValueBytes));
  // Layout: data 0..5 (groups {0,1,2} and {3,4,5}), local parities 6 and 7,
  // global parities 8 and 9.
  for (NodeId failed = 0; failed < 6; ++failed) {
    const auto summary = code->plan_symbol_repair(failed, 1u << failed);
    ASSERT_TRUE(summary.has_value());
    const std::uint32_t group_mask =
        failed < 3 ? (0b111u | (1u << 6)) : (0b111000u | (1u << 7));
    EXPECT_EQ(summary->helper_mask, group_mask & ~(1u << failed))
        << "data server " << failed << " must repair inside its local group";
    EXPECT_EQ(summary->fetch_rows, 3u);
    EXPECT_EQ(summary->full_decode_rows, 6u);
  }
  // MDS counterpoints: RS repairs can never beat full decode.
  for (const char* rs_name : {"rs_6_4", "rs_14_10"}) {
    for (const auto& [name, code2] : battery_codes()) {
      if (std::string_view(name) != rs_name) continue;
      for (NodeId failed = 0; failed < code2->num_servers(); ++failed) {
        const auto summary = code2->plan_symbol_repair(failed, 1u << failed);
        ASSERT_TRUE(summary.has_value());
        EXPECT_EQ(summary->fetch_rows, code2->num_objects()) << name;
        EXPECT_EQ(summary->fetch_rows, summary->full_decode_rows) << name;
      }
    }
  }
}

TEST(RepairPlanTest, CachedPlansEqualFreshPlans) {
  for (const auto& [name, code] : battery_codes()) {
    const std::size_t n = code->num_servers();
    for (const std::uint32_t erased : erasure_patterns(n)) {
      for (NodeId failed = 0; failed < n; ++failed) {
        if (!(erased >> failed & 1)) continue;
        for (const auto strategy : {RepairStrategy::kMinimalFetch,
                                    RepairStrategy::kFullDecode}) {
          const auto cached =
              code->symbol_repair_plan(failed, erased, strategy);
          const auto fresh =
              code->compute_symbol_repair_fresh(failed, erased, strategy);
          ASSERT_EQ(cached == nullptr, fresh == nullptr);
          if (cached == nullptr) continue;
          EXPECT_EQ(cached->helper_mask, fresh->helper_mask) << name;
          EXPECT_EQ(cached->fetches, fresh->fetches) << name;
          ASSERT_EQ(cached->row_ops.size(), fresh->row_ops.size());
          for (std::size_t r = 0; r < cached->row_ops.size(); ++r) {
            ASSERT_EQ(cached->row_ops[r].size(), fresh->row_ops[r].size());
            for (std::size_t i = 0; i < cached->row_ops[r].size(); ++i) {
              EXPECT_EQ(cached->row_ops[r][i].fetch,
                        fresh->row_ops[r][i].fetch);
              EXPECT_EQ(cached->row_ops[r][i].coeff,
                        fresh->row_ops[r][i].coeff);
            }
          }
        }
      }
    }
  }
}

TEST(RepairPlanTest, ObjectRepairDecodesThroughChosenHelpers) {
  for (const auto& [name, code] : battery_codes()) {
    const std::size_t n = code->num_servers();
    const auto vals = pattern_values(code->num_objects());
    std::vector<Symbol> all_symbols;
    for (NodeId s = 0; s < n; ++s) all_symbols.push_back(code->encode(s, vals));

    for (const std::uint32_t erased : erasure_patterns(n)) {
      for (NodeId local = 0; local < n; ++local) {
        if (erased >> local & 1) continue;  // the reader itself is alive
        for (ObjectId obj = 0; obj < code->num_objects(); ++obj) {
          const auto summary =
              code->plan_object_repair(obj, erased, local);
          ASSERT_TRUE(summary.has_value())
              << name << " obj=" << obj << " erased=" << erased;
          EXPECT_EQ(summary->helper_mask & erased, 0u);
          EXPECT_LE(summary->fetch_rows, summary->full_decode_rows);
          // Execute: the local symbol plus the fetched helpers must decode
          // the object to its true value.
          std::vector<NodeId> servers = {local};
          std::vector<Symbol> symbols = {all_symbols[local]};
          for (NodeId s = 0; s < n; ++s) {
            if (s != local && (summary->helper_mask >> s & 1)) {
              servers.push_back(s);
              symbols.push_back(all_symbols[s]);
            }
          }
          EXPECT_EQ(code->decode(obj, servers, symbols), vals[obj])
              << name << " obj=" << obj << " local=" << local
              << " erased=" << erased;
        }
      }
    }
  }
}

TEST(RepairPlanTest, LrcDegradedReadUsesLocalGroup) {
  const auto code = as_linear(make_azure_lrc_6_2_2(kValueBytes));
  // Object 0's data server 0 is down; a reader at global parity 8 should be
  // sent to the local group {1, 2, 6}, not a 6-server decode set.
  const auto summary = code->plan_object_repair(0, 1u << 0, /*local=*/8);
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary->helper_mask, (1u << 1) | (1u << 2) | (1u << 6));
  EXPECT_EQ(summary->fetch_rows, 3u);
}

TEST(RepairPlanTest, FullDecodeStrategySelectsFullRankSet) {
  const auto code = as_linear(make_azure_lrc_6_2_2(kValueBytes));
  const auto plan =
      code->symbol_repair_plan(0, 1u << 0, RepairStrategy::kFullDecode);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->fetches.size(), 6u);  // k rows: decode-all baseline
  EXPECT_EQ(code->plan_symbol_repair(0, 1u << 0)->full_decode_rows, 6u);
  // The baseline's program rebuilds the same bytes as the minimal one.
  const auto vals = pattern_values(code->num_objects());
  std::vector<NodeId> helpers;
  std::vector<Symbol> helper_symbols;
  for (NodeId s = 0; s < code->num_servers(); ++s) {
    if (plan->helper_mask >> s & 1) {
      helpers.push_back(s);
      helper_symbols.push_back(code->encode(s, vals));
    }
  }
  EXPECT_EQ(code->apply_plan(*plan, helpers, helper_symbols),
            code->encode(0, vals));
}

TEST(RepairPlanTest, CacheCountsHitsAndMisses) {
  const auto code = as_linear(make_systematic_rs(6, 4, kValueBytes));
  const PlanCacheStats before = code->repair_plan_cache_stats();
  (void)code->symbol_repair_plan(1, 1u << 1, RepairStrategy::kMinimalFetch);
  const PlanCacheStats after_miss = code->repair_plan_cache_stats();
  EXPECT_EQ(after_miss.misses, before.misses + 1);
  EXPECT_EQ(after_miss.hits, before.hits);
  (void)code->symbol_repair_plan(1, 1u << 1, RepairStrategy::kMinimalFetch);
  const PlanCacheStats after_hit = code->repair_plan_cache_stats();
  EXPECT_EQ(after_hit.hits, after_miss.hits + 1);
  EXPECT_GE(after_hit.entries, 1u);
}

TEST(RepairPlanTest, DisabledCacheStoresNothing) {
  const auto code = as_linear(make_systematic_rs(6, 4, kValueBytes));
  code->set_plan_cache_enabled(false);
  (void)code->symbol_repair_plan(2, 1u << 2, RepairStrategy::kMinimalFetch);
  const PlanCacheStats stats = code->repair_plan_cache_stats();
  EXPECT_EQ(stats.entries, 0u);
  code->set_plan_cache_enabled(true);
}

TEST(RepairPlanTest, EmptySymbolServerRepairsTrivially) {
  // A server with zero rows (stores nothing) repairs to an empty symbol.
  using M = linalg::Matrix<GF>;
  std::vector<M> per_server;
  per_server.push_back(M::identity(2));  // server 0: both objects
  per_server.push_back(M(0, 2));         // server 1: stores nothing
  M parity(1, 2);
  parity(0, 0) = GF::one;
  parity(0, 1) = GF::one;
  per_server.push_back(parity);
  const auto code = std::make_shared<LinearCode>(std::move(per_server), 8,
                                                 "empty-symbol");
  const auto plan =
      code->symbol_repair_plan(1, 1u << 1, RepairStrategy::kMinimalFetch);
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->fetches.empty());
  EXPECT_EQ(code->repair_symbol(1, {}, {}).size(), 0u);
}

}  // namespace
}  // namespace causalec::erasure
