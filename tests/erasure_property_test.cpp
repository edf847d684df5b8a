// Property-style parameterized sweeps over the erasure-code machinery,
// across all supported fields and code shapes:
//   * Gamma identities (Definition 4) hold for random codes and values;
//   * recovery sets are superset-closed and decode correctly;
//   * cross-field consistency (GF(2^8), GF(2^16), F_257, F_65537);
//   * sequences of re-encodes commute with direct encoding, one at a time
//     and in fused reencode_batch batches, on every GF kernel tier.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <tuple>

#include "common/random.h"
#include "erasure/codes.h"
#include "erasure/linear_code.h"
#include "erasure/plan.h"
#include "gf/gf2_16.h"
#include "gf/gf256.h"
#include "gf/kernels.h"
#include "gf/prime_field.h"

namespace causalec::erasure {
namespace {

template <gf::Field F>
Value random_value(Rng& rng, std::size_t elems) {
  Value v(elems * F::kElemBytes, 0);
  for (std::size_t i = 0; i < elems; ++i) {
    const auto e = static_cast<std::uint64_t>(F::from_int(rng.next_u64()));
    for (std::size_t b = 0; b < F::kElemBytes; ++b) {
      v[i * F::kElemBytes + b] = static_cast<std::uint8_t>(e >> (8 * b));
    }
  }
  return v;
}

std::vector<gf::kernels::Tier> available_tiers() {
  std::vector<gf::kernels::Tier> tiers;
  for (int t = 0; t < gf::kernels::kNumTiers; ++t) {
    const auto tier = static_cast<gf::kernels::Tier>(t);
    if (gf::kernels::tier_available(tier)) tiers.push_back(tier);
  }
  return tiers;
}

template <gf::Field F>
std::shared_ptr<LinearCodeT<F>> random_code(Rng& rng, std::size_t n,
                                            std::size_t k,
                                            std::size_t value_bytes) {
  using M = linalg::Matrix<F>;
  for (int attempt = 0; attempt < 200; ++attempt) {
    M stacked(n, k);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        if (rng.next_bool(0.6)) {
          stacked(i, j) = F::from_int(1 + rng.next_below(F::kOrder - 1));
        }
      }
      bool any = false;
      for (std::size_t j = 0; j < k; ++j) any = any || stacked(i, j) != F::zero;
      if (!any) stacked(i, 0) = F::one;
    }
    if (linalg::rank<F>(stacked) != k) continue;
    return LinearCodeT<F>::one_row_per_server(stacked, value_bytes, "prop");
  }
  ADD_FAILURE() << "no recoverable code generated";
  return nullptr;
}

template <gf::Field F>
void run_sweep(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 4 + rng.next_below(4);
  const std::size_t k = 2 + rng.next_below(std::min<std::size_t>(n - 1, 3));
  const std::size_t elems = 1 + rng.next_below(16);
  auto code = random_code<F>(rng, n, k, elems * F::kElemBytes);
  ASSERT_NE(code, nullptr);

  std::vector<Value> values;
  for (std::size_t i = 0; i < k; ++i) {
    values.push_back(random_value<F>(rng, elems));
  }
  std::vector<Symbol> symbols;
  for (NodeId s = 0; s < n; ++s) symbols.push_back(code->encode(s, values));

  // Every minimal recovery set decodes every object; supersets too.
  std::vector<NodeId> all;
  for (NodeId s = 0; s < n; ++s) all.push_back(s);
  for (ObjectId obj = 0; obj < k; ++obj) {
    for (const auto& rs : code->recovery_sets(obj)) {
      std::vector<Symbol> subset;
      for (NodeId s : rs) subset.push_back(symbols[s]);
      EXPECT_EQ(code->decode(obj, rs, subset), values[obj]);
      EXPECT_TRUE(code->is_recovery_set(obj, rs));
    }
    EXPECT_TRUE(code->is_recovery_set(obj, all));
    EXPECT_EQ(code->decode(obj, all, symbols), values[obj]);
  }

  // Gamma chain: a random sequence of object updates applied via reencode
  // equals direct encoding of the final values.
  auto current = values;
  std::vector<Symbol> evolving = symbols;
  for (int step = 0; step < 10; ++step) {
    const ObjectId x = static_cast<ObjectId>(rng.next_below(k));
    Value next = random_value<F>(rng, elems);
    const Code::ReencodeEntry entry{x, current[x], next};
    for (NodeId s = 0; s < n; ++s) {
      code->reencode_batch(s, evolving[s], {&entry, 1});
    }
    current[x] = next;
  }
  for (NodeId s = 0; s < n; ++s) {
    EXPECT_EQ(evolving[s], code->encode(s, current)) << "server " << s;
  }

  // Batched Gamma chain: random batches of 1-4 entries drained through
  // reencode_batch, as the server's Apply/Encoding/val_inq paths do. An
  // object may repeat within a batch (entries compose in order), and an
  // entry may cancel to the zero value (empty new) or start from it (empty
  // old). The same chain runs on every kernel tier.
  for (const auto tier : available_tiers()) {
    gf::kernels::ScopedTierForTesting guard(tier);
    Rng batch_rng(seed ^ 0xBA7C4ull);
    auto latest = current;
    std::vector<bool> is_zero(k, false);
    std::vector<Symbol> batched = evolving;
    for (int round = 0; round < 8; ++round) {
      const std::size_t count = 1 + batch_rng.next_below(4);
      std::vector<Value> held;  // keeps every entry's bytes alive
      std::vector<Code::ReencodeEntry> entries;
      for (std::size_t i = 0; i < count; ++i) {
        const ObjectId x =
            !entries.empty() && batch_rng.next_bool(0.3)
                ? entries.back().object
                : static_cast<ObjectId>(batch_rng.next_below(k));
        std::span<const std::uint8_t> old_value;
        if (!is_zero[x]) {
          held.push_back(latest[x]);
          old_value = held.back().span();
        }
        std::span<const std::uint8_t> new_value;
        if (batch_rng.next_bool(0.25)) {
          latest[x] = Value(elems * F::kElemBytes, 0);
          is_zero[x] = true;
        } else {
          held.push_back(random_value<F>(batch_rng, elems));
          new_value = held.back().span();
          latest[x] = held.back();
          is_zero[x] = false;
        }
        entries.push_back({x, old_value, new_value});
      }
      for (NodeId s = 0; s < n; ++s) {
        code->reencode_batch(s, batched[s], entries);
      }
    }
    for (NodeId s = 0; s < n; ++s) {
      EXPECT_EQ(batched[s], code->encode(s, latest))
          << "server " << s << " tier " << gf::kernels::tier_name(tier);
    }
  }

  // Cancel-then-apply equals direct reencode.
  const ObjectId x = static_cast<ObjectId>(rng.next_below(k));
  Value replacement = random_value<F>(rng, elems);
  Symbol direct = evolving[0];
  const Code::ReencodeEntry direct_entry{x, current[x], replacement};
  code->reencode_batch(0, direct, {&direct_entry, 1});
  Symbol two_step = evolving[0];
  const Code::ReencodeEntry cancel{x, current[x], {}};
  const Code::ReencodeEntry apply{x, {}, replacement};
  code->reencode_batch(0, two_step, {&cancel, 1});
  code->reencode_batch(0, two_step, {&apply, 1});
  EXPECT_EQ(direct, two_step);
}

class ErasurePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ErasurePropertyTest, Gf256Sweep) { run_sweep<gf::GF256>(GetParam()); }
TEST_P(ErasurePropertyTest, Gf2_16Sweep) {
  run_sweep<gf::GF2_16>(GetParam() + 1000);
}
TEST_P(ErasurePropertyTest, F257Sweep) {
  run_sweep<gf::F257>(GetParam() + 2000);
}
TEST_P(ErasurePropertyTest, F65537Sweep) {
  run_sweep<gf::F65537>(GetParam() + 3000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ErasurePropertyTest,
                         ::testing::Range<std::uint64_t>(1, 11));

// ---------------------------------------------------------------------------
// Superset-closure of recovery sets (footnote 9 of the paper).
// ---------------------------------------------------------------------------

TEST(RecoverySetClosureTest, SupersetsOfRecoverySetsRecover) {
  Rng rng(555);
  const auto code = make_random_code(99, 6, 3, 8, 0.5);
  for (ObjectId obj = 0; obj < 3; ++obj) {
    for (const auto& rs : code->recovery_sets(obj)) {
      // Add one extra server not in the set.
      for (NodeId extra = 0; extra < 6; ++extra) {
        if (std::find(rs.begin(), rs.end(), extra) != rs.end()) continue;
        auto super = rs;
        super.push_back(extra);
        std::sort(super.begin(), super.end());
        EXPECT_TRUE(code->is_recovery_set(obj, super));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// MDS threshold: RS codes decode from exactly k, never from k-1.
// ---------------------------------------------------------------------------

class RsThresholdTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {
};

TEST_P(RsThresholdTest, DecodesFromKNotFromKMinus1) {
  const auto [n, k] = GetParam();
  const auto code = make_systematic_rs(n, k, 8);
  // Any k consecutive servers recover everything; any k-1 parity-only
  // subset recovers nothing (parity servers have full support).
  std::vector<NodeId> window;
  for (std::size_t start = 0; start + k <= n; ++start) {
    window.clear();
    for (std::size_t i = 0; i < k; ++i) {
      window.push_back(static_cast<NodeId>(start + i));
    }
    for (ObjectId obj = 0; obj < k; ++obj) {
      EXPECT_TRUE(code->is_recovery_set(obj, window));
    }
  }
  if (k >= 2 && n > k) {
    // k-1 parity servers cannot decode object 0 (they are all "mixed").
    std::vector<NodeId> small;
    for (std::size_t i = 0; i < k - 1 && k + i < n; ++i) {
      small.push_back(static_cast<NodeId>(k + i));
    }
    if (!small.empty()) {
      EXPECT_FALSE(code->is_recovery_set(0, small));
    }
  }
}

// ---------------------------------------------------------------------------
// Repair-plan properties over random codes (DESIGN.md Sec. 5.2): a minimal
// plan never moves more rows than the full-decode baseline, its byte
// accounting is exact, and executing it rebuilds the failed symbol
// byte-for-byte.
// ---------------------------------------------------------------------------

class RepairPlanPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RepairPlanPropertyTest, RepairNeverExceedsFullDecode) {
  Rng rng(GetParam() + 7000);
  const std::size_t n = 4 + rng.next_below(4);
  const std::size_t k = 2 + rng.next_below(std::min<std::size_t>(n - 1, 3));
  const std::size_t elems = 1 + rng.next_below(12);
  auto code = random_code<gf::GF256>(rng, n, k, elems);
  ASSERT_NE(code, nullptr);

  std::vector<Value> values;
  for (std::size_t i = 0; i < k; ++i) {
    values.push_back(random_value<gf::GF256>(rng, elems));
  }
  std::vector<Symbol> symbols;
  for (NodeId s = 0; s < n; ++s) symbols.push_back(code->encode(s, values));

  for (NodeId failed = 0; failed < n; ++failed) {
    const auto minimal = code->plan_symbol_repair(failed, 1u << failed);
    if (!minimal.has_value()) {
      // A random code may leave a server's row outside the survivors' span;
      // "no repair exists" must then be the fresh planner's answer too.
      EXPECT_EQ(code->compute_symbol_repair_fresh(
                    failed, 1u << failed, RepairStrategy::kMinimalFetch),
                nullptr);
      continue;
    }
    EXPECT_LE(minimal->fetch_rows, minimal->full_decode_rows);
    EXPECT_LE(minimal->fetch_bytes, minimal->full_decode_bytes);
    EXPECT_EQ(minimal->fetch_bytes, minimal->fetch_rows * elems);
    EXPECT_EQ(minimal->helper_mask & (1u << failed), 0u)
        << "plan fetches from the failed server itself";

    // The full-decode strategy is the upper bound the minimal plan beats.
    const auto full = code->compute_symbol_repair_fresh(
        failed, 1u << failed, RepairStrategy::kFullDecode);
    ASSERT_NE(full, nullptr);
    EXPECT_LE(minimal->fetch_rows, full->fetches.size());

    // Executing the plan from helper symbols rebuilds the exact bytes.
    std::vector<NodeId> helpers;
    std::vector<Symbol> helper_symbols;
    for (NodeId s = 0; s < n; ++s) {
      if (minimal->helper_mask >> s & 1) {
        helpers.push_back(s);
        helper_symbols.push_back(symbols[s]);
      }
    }
    EXPECT_EQ(code->repair_symbol(failed, helpers, helper_symbols),
              symbols[failed])
        << "failed " << failed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairPlanPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 11));

// ---------------------------------------------------------------------------
// Plan-cache stats stay consistent under concurrent repair-plan lookups:
// every lookup counts exactly one hit or miss, entries never exceed the
// distinct keys probed, and racing threads all observe the same canonical
// plan.
// ---------------------------------------------------------------------------

TEST(PlanCacheConcurrencyTest, StatsConsistentUnderConcurrentLookups) {
  const auto code = std::dynamic_pointer_cast<const LinearCodeT<gf::GF256>>(
      make_azure_lrc_6_2_2(8));
  ASSERT_NE(code, nullptr);
  const std::size_t n = code->num_servers();
  const auto base = code->repair_plan_cache_stats();

  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(9000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kIters; ++i) {
        const NodeId failed = static_cast<NodeId>(rng.next_below(n));
        const auto plan = code->symbol_repair_plan(
            failed, 1u << failed, RepairStrategy::kMinimalFetch);
        lookups.fetch_add(1, std::memory_order_relaxed);
        if (plan == nullptr || (plan->helper_mask >> failed & 1) != 0) {
          mismatch.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch.load());

  const auto stats = code->repair_plan_cache_stats();
  const std::uint64_t finds =
      (stats.hits + stats.misses) - (base.hits + base.misses);
  EXPECT_EQ(finds, lookups.load());
  // One distinct key per failed server; a racing miss may double-compute but
  // insert-if-absent keeps the table at one canonical entry per key.
  EXPECT_LE(stats.entries - base.entries, n);
  EXPECT_GE(stats.misses - base.misses, n > 0 ? 1u : 0u);

  // Post-race, every cached plan still equals a fresh elimination.
  for (NodeId failed = 0; failed < n; ++failed) {
    const auto cached = code->symbol_repair_plan(
        failed, 1u << failed, RepairStrategy::kMinimalFetch);
    const auto fresh = code->compute_symbol_repair_fresh(
        failed, 1u << failed, RepairStrategy::kMinimalFetch);
    ASSERT_NE(cached, nullptr);
    ASSERT_NE(fresh, nullptr);
    EXPECT_EQ(cached->helper_mask, fresh->helper_mask);
    EXPECT_EQ(cached->fetches, fresh->fetches);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, RsThresholdTest,
                         ::testing::Values(std::pair<std::size_t,
                                                     std::size_t>{4, 2},
                                           std::pair<std::size_t,
                                                     std::size_t>{5, 3},
                                           std::pair<std::size_t,
                                                     std::size_t>{6, 4},
                                           std::pair<std::size_t,
                                                     std::size_t>{8, 4},
                                           std::pair<std::size_t,
                                                     std::size_t>{10, 6}));

}  // namespace
}  // namespace causalec::erasure
