// Differential property tests for the dispatched GF kernel tiers: every
// available tier (scalar / AVX2 / GFNI) must produce output byte-identical
// to an elementwise field-arithmetic reference for add_into / sub_into /
// axpy over GF(2^8), GF(2^16), and F_257, and for axpy_batch over GF(2^8),
// across random coefficients (and all 256 GF(2^8) coefficients),
// adversarial lengths (0, 1, SIMD-block boundaries, the scalar
// product-table threshold, 64 KiB), and unaligned offsets. Those two
// kernels, xor and axpy_batch, are all a tier implements. Plus the
// aliasing-abort regression tests for the overlap CHECK.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "gf/gf256.h"
#include "gf/gf2_16.h"
#include "gf/kernels.h"
#include "gf/prime_field.h"
#include "gf/vector_ops.h"

namespace causalec::gf {
namespace {

using kernels::ScopedTierForTesting;
using kernels::Tier;

std::vector<Tier> available_tiers() {
  std::vector<Tier> tiers;
  for (int t = 0; t < kernels::kNumTiers; ++t) {
    if (kernels::tier_available(static_cast<Tier>(t))) {
      tiers.push_back(static_cast<Tier>(t));
    }
  }
  return tiers;
}

/// Adversarial lengths: 0/1, word and half-vector boundaries +-1 (8, 16),
/// SIMD block boundaries +-1 (32 for AVX2, 64 for GFNI), the scalar
/// product-table threshold +-1, and a 64 KiB block.
const std::size_t kLengths[] = {0,    1,    7,    8,    9,    15,   16,
                                17,   31,   32,   33,   63,   64,   65,
                                1023, 1024, 1025, 4096, 65536};

/// Unaligned starting offsets within an oversized buffer, so the SIMD
/// loads/stores straddle cache lines and vector-width boundaries.
const std::size_t kOffsets[] = {0, 1, 3, 7, 13};

template <Field F>
std::vector<typename F::Elem> random_elems(Rng& rng, std::size_t n) {
  std::vector<typename F::Elem> v(n);
  for (auto& x : v) x = F::from_int(rng.next_u64());
  return v;
}

/// Runs one (op, tier, length, offset) configuration of `op_under_test`
/// against the elementwise reference `reference`, on buffers carved at an
/// unaligned offset out of larger allocations.
template <Field F, typename Op, typename Ref>
void check_differential(Tier tier, Op op_under_test, Ref reference) {
  Rng rng(0xD1FFu ^ static_cast<std::uint64_t>(tier));
  for (const std::size_t n : kLengths) {
    for (const std::size_t offset : kOffsets) {
      const auto dst_all = random_elems<F>(rng, n + offset + 8);
      const auto src_all = random_elems<F>(rng, n + offset + 8);
      const typename F::Elem a = F::from_int(rng.next_u64());

      std::vector<typename F::Elem> got = dst_all;
      std::vector<typename F::Elem> want = dst_all;
      {
        ScopedTierForTesting guard(tier);
        op_under_test(std::span<typename F::Elem>(got).subspan(offset, n), a,
                      std::span<const typename F::Elem>(src_all).subspan(
                          offset, n));
      }
      reference(std::span<typename F::Elem>(want).subspan(offset, n), a,
                std::span<const typename F::Elem>(src_all).subspan(offset, n));
      ASSERT_EQ(got, want) << "tier=" << kernels::tier_name(tier)
                           << " n=" << n << " offset=" << offset
                           << " a=" << static_cast<std::uint64_t>(a);
    }
  }
}

template <Field F>
void run_all_ops_all_tiers() {
  using Elem = typename F::Elem;
  using Dst = std::span<Elem>;
  using Src = std::span<const Elem>;
  for (const Tier tier : available_tiers()) {
    SCOPED_TRACE(kernels::tier_name(tier));
    check_differential<F>(
        tier, [](Dst d, Elem, Src s) { add_into<F>(d, s); },
        [](Dst d, Elem, Src s) {
          for (std::size_t i = 0; i < d.size(); ++i) d[i] = F::add(d[i], s[i]);
        });
    check_differential<F>(
        tier, [](Dst d, Elem, Src s) { sub_into<F>(d, s); },
        [](Dst d, Elem, Src s) {
          for (std::size_t i = 0; i < d.size(); ++i) d[i] = F::sub(d[i], s[i]);
        });
    check_differential<F>(
        tier, [](Dst d, Elem a, Src s) { axpy<F>(d, a, s); },
        [](Dst d, Elem a, Src s) {
          for (std::size_t i = 0; i < d.size(); ++i) {
            d[i] = F::add(d[i], F::mul(a, s[i]));
          }
        });
  }
}

TEST(GfKernelDifferentialTest, GF256AllTiersMatchScalar) {
  run_all_ops_all_tiers<GF256>();
}

TEST(GfKernelDifferentialTest, GF2_16AllTiersMatchScalar) {
  run_all_ops_all_tiers<GF2_16>();
}

TEST(GfKernelDifferentialTest, F257AllTiersMatchScalar) {
  run_all_ops_all_tiers<F257>();
}

/// Every coefficient (not just random ones) through every tier, on a
/// length that exercises both the vector body and the tail.
TEST(GfKernelDifferentialTest, ExhaustiveCoefficientsGF256) {
  Rng rng(7);
  const std::size_t n = 37;  // 32 + 4 + 1: body + tail for every tier
  const auto src = random_elems<GF256>(rng, n);
  const auto dst0 = random_elems<GF256>(rng, n);
  for (int a = 0; a < 256; ++a) {
    std::vector<std::uint8_t> want = dst0;
    for (std::size_t i = 0; i < n; ++i) {
      want[i] ^= GF256::mul(static_cast<std::uint8_t>(a), src[i]);
    }
    for (const Tier tier : available_tiers()) {
      ScopedTierForTesting guard(tier);
      std::vector<std::uint8_t> got = dst0;
      axpy<GF256>(std::span<std::uint8_t>(got),
                  static_cast<std::uint8_t>(a),
                  std::span<const std::uint8_t>(src));
      ASSERT_EQ(got, want) << "tier=" << kernels::tier_name(tier)
                           << " a=" << a;
    }
  }
}

/// Dedicated GFNI sweep: the generic all-tier tests above already include
/// gfni when available, but this test makes the GFNI coverage (or its
/// absence) visible in the test report rather than silently folding into
/// the loop.
TEST(GfKernelDifferentialTest, GfniTierMatchesScalar) {
  if (!kernels::tier_available(Tier::kGfni)) {
    GTEST_SKIP() << "GFNI tier unavailable (cpu gfni_avx512="
                 << kernels::cpu_features().gfni_avx512
                 << "); differential sweep NOT exercised on this host. "
                 << "Available tiers: " << kernels::available_tier_names();
  }
  using Dst = std::span<std::uint8_t>;
  using Src = std::span<const std::uint8_t>;
  check_differential<GF256>(
      Tier::kGfni, [](Dst d, std::uint8_t a, Src s) { axpy<GF256>(d, a, s); },
      [](Dst d, std::uint8_t a, Src s) {
        for (std::size_t i = 0; i < d.size(); ++i) {
          d[i] ^= GF256::mul(a, s[i]);
        }
      });
}

// ---------------------------------------------------------------------------
// axpy_batch: the fused multi-term pass must be byte-identical to applying
// the same terms one after another through elementwise GF256::mul (XOR
// accumulation is order-independent, so there is exactly one right answer).
// ---------------------------------------------------------------------------

TEST(GfKernelDifferentialTest, AxpyBatchMatchesSequentialAxpy) {
  Rng rng(0xBA7C4);
  // Term counts straddle the kMaxBatchTerms chunk boundary to exercise the
  // entry point's chunking, and include 0 (no-op) and 1 (degenerate).
  const std::size_t kTermCounts[] = {0, 1, 2, 3, 7, 15, 16, 17, 33};
  for (const Tier tier : available_tiers()) {
    SCOPED_TRACE(kernels::tier_name(tier));
    for (const std::size_t num_terms : kTermCounts) {
      for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                  std::size_t{63}, std::size_t{64},
                                  std::size_t{65}, std::size_t{1024},
                                  std::size_t{4096}}) {
        const auto dst0 = random_elems<GF256>(rng, n);
        std::vector<std::vector<std::uint8_t>> srcs;
        std::vector<AxpyTerm<GF256>> terms;
        srcs.reserve(num_terms);
        for (std::size_t t = 0; t < num_terms; ++t) {
          srcs.push_back(random_elems<GF256>(rng, n));
          // Sprinkle zero and one coefficients among random ones: zeros
          // must be skipped, ones must still fuse.
          std::uint8_t coeff;
          if (t % 5 == 0) {
            coeff = 0;
          } else if (t % 7 == 0) {
            coeff = 1;
          } else {
            coeff = GF256::from_int(rng.next_u64());
          }
          terms.push_back({coeff, std::span<const std::uint8_t>(srcs.back())});
        }

        std::vector<std::uint8_t> want = dst0;
        for (const auto& term : terms) {
          for (std::size_t i = 0; i < n; ++i) {
            want[i] ^= GF256::mul(term.coeff, term.src[i]);
          }
        }

        ScopedTierForTesting guard(tier);
        std::vector<std::uint8_t> got = dst0;
        axpy_batch<GF256>(std::span<std::uint8_t>(got),
                          std::span<const AxpyTerm<GF256>>(terms));
        ASSERT_EQ(got, want) << "tier=" << kernels::tier_name(tier)
                             << " terms=" << num_terms << " n=" << n;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------------------

TEST(GfKernelDispatchTest, ScalarAlwaysAvailable) {
  EXPECT_TRUE(kernels::tier_available(Tier::kScalar));
  EXPECT_TRUE(kernels::tier_available(kernels::best_available_tier()));
  EXPECT_TRUE(kernels::tier_available(kernels::active_tier()));
}

TEST(GfKernelDispatchTest, TierNamesRoundTrip) {
  for (int t = 0; t < kernels::kNumTiers; ++t) {
    const Tier tier = static_cast<Tier>(t);
    const auto parsed = kernels::parse_tier(kernels::tier_name(tier));
    ASSERT_TRUE(parsed.has_value()) << kernels::tier_name(tier);
    EXPECT_EQ(*parsed, tier);
  }
  EXPECT_FALSE(kernels::parse_tier("auto").has_value());
  EXPECT_FALSE(kernels::parse_tier("sse9").has_value());
  EXPECT_FALSE(kernels::parse_tier("").has_value());
}

TEST(GfKernelDispatchTest, ScopedTierRestores) {
  const Tier before = kernels::active_tier();
  {
    ScopedTierForTesting guard(Tier::kScalar);
    EXPECT_EQ(kernels::active_tier(), Tier::kScalar);
  }
  EXPECT_EQ(kernels::active_tier(), before);
}

TEST(GfKernelDispatchTest, CpuFeaturesGateSimdTiers) {
  const auto& cpu = kernels::cpu_features();
  if (!cpu.avx2) {
    EXPECT_FALSE(kernels::tier_available(Tier::kAvx2));
  }
  if (!cpu.gfni_avx512) {
    EXPECT_FALSE(kernels::tier_available(Tier::kGfni));
  }
  // The tier order is gfni > avx2 > scalar; the best tier must be the
  // highest one the CPU (and build) can run.
  if (kernels::tier_available(Tier::kGfni)) {
    EXPECT_EQ(kernels::best_available_tier(), Tier::kGfni);
  } else if (kernels::tier_available(Tier::kAvx2)) {
    EXPECT_EQ(kernels::best_available_tier(), Tier::kAvx2);
  } else {
    EXPECT_EQ(kernels::best_available_tier(), Tier::kScalar);
  }
}

// ---------------------------------------------------------------------------
// Aliasing: dst/src overlap is a CHECK-abort, not silent corruption. The
// SIMD tiers read and write in blocks, so overlapping regions would not
// even fail in the "obvious" shifted-scalar way.
// ---------------------------------------------------------------------------

using GfKernelAliasingDeathTest = ::testing::Test;

TEST(GfKernelAliasingDeathTest, OverlappingAxpyAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<std::uint8_t> buf(64, 1);
  const auto dst = std::span<std::uint8_t>(buf).subspan(0, 32);
  const auto src = std::span<const std::uint8_t>(buf).subspan(16, 32);
  EXPECT_DEATH(axpy<GF256>(dst, 3, src), "overlap");
}

TEST(GfKernelAliasingDeathTest, OverlappingAddAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<std::uint8_t> buf(64, 1);
  const auto dst = std::span<std::uint8_t>(buf).subspan(1, 32);
  const auto src = std::span<const std::uint8_t>(buf).subspan(0, 32);
  EXPECT_DEATH(add_into<GF256>(dst, src), "overlap");
}

TEST(GfKernelAliasingDeathTest, FullyAliasedRegionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<std::uint8_t> buf(32, 5);
  const auto dst = std::span<std::uint8_t>(buf);
  const auto src = std::span<const std::uint8_t>(buf);
  EXPECT_DEATH(axpy<GF256>(dst, 7, src), "overlap");
}

/// Regression: exactly adjacent regions are legal (the boundary case of
/// the overlap predicate) and must work on every tier.
TEST(GfKernelAliasingTest, AdjacentRegionsAreLegal) {
  for (const Tier tier : available_tiers()) {
    ScopedTierForTesting guard(tier);
    std::vector<std::uint8_t> buf(128);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<std::uint8_t>(i * 31 + 1);
    }
    const auto expected_src = std::vector<std::uint8_t>(buf.begin() + 64,
                                                        buf.end());
    auto dst = std::span<std::uint8_t>(buf).subspan(0, 64);
    auto src = std::span<const std::uint8_t>(buf).subspan(64, 64);
    std::vector<std::uint8_t> want(buf.begin(), buf.begin() + 64);
    for (std::size_t i = 0; i < 64; ++i) {
      want[i] ^= GF256::mul(9, src[i]);
    }
    axpy<GF256>(dst, 9, src);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), buf.begin()));
    // src bytes untouched.
    EXPECT_TRUE(std::equal(expected_src.begin(), expected_src.end(),
                           buf.begin() + 64));
  }
}

}  // namespace
}  // namespace causalec::gf
