// Unit tests for finite-field arithmetic: field axioms (exhaustive for the
// small fields, sampled for the large ones) and the bulk vector kernels.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "gf/field.h"
#include "gf/gf256.h"
#include "gf/gf2_16.h"
#include "gf/prime_field.h"
#include "gf/vector_ops.h"

namespace causalec::gf {
namespace {

// ---------------------------------------------------------------------------
// Exhaustive axioms for GF(2^8) and F_13, sampled for GF(2^16) / F_65537.
// ---------------------------------------------------------------------------

template <Field F>
void check_axioms_pair(typename F::Elem a, typename F::Elem b) {
  // Commutativity.
  EXPECT_EQ(F::add(a, b), F::add(b, a));
  EXPECT_EQ(F::mul(a, b), F::mul(b, a));
  // Identities.
  EXPECT_EQ(F::add(a, F::zero), a);
  EXPECT_EQ(F::mul(a, F::one), a);
  EXPECT_EQ(F::mul(a, F::zero), F::zero);
  // Additive inverse.
  EXPECT_EQ(F::add(a, F::neg(a)), F::zero);
  EXPECT_EQ(F::sub(a, b), F::add(a, F::neg(b)));
  // Multiplicative inverse.
  if (a != F::zero) {
    EXPECT_EQ(F::mul(a, F::inv(a)), F::one);
  }
}

template <Field F>
void check_axioms_triple(typename F::Elem a, typename F::Elem b,
                         typename F::Elem c) {
  // Associativity.
  EXPECT_EQ(F::add(F::add(a, b), c), F::add(a, F::add(b, c)));
  EXPECT_EQ(F::mul(F::mul(a, b), c), F::mul(a, F::mul(b, c)));
  // Distributivity.
  EXPECT_EQ(F::mul(a, F::add(b, c)), F::add(F::mul(a, b), F::mul(a, c)));
}

TEST(GF256Test, ExhaustivePairAxioms) {
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      check_axioms_pair<GF256>(static_cast<std::uint8_t>(a),
                               static_cast<std::uint8_t>(b));
    }
  }
}

TEST(GF256Test, SampledTripleAxioms) {
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    check_axioms_triple<GF256>(GF256::from_int(rng.next_u64()),
                               GF256::from_int(rng.next_u64()),
                               GF256::from_int(rng.next_u64()));
  }
}

TEST(GF256Test, MultiplicativeGroupIsCyclic) {
  // alpha = 2 generates all 255 nonzero elements.
  std::vector<bool> seen(256, false);
  GF256::Elem x = 1;
  for (int i = 0; i < 255; ++i) {
    EXPECT_FALSE(seen[x]) << "cycle shorter than 255 at step " << i;
    seen[x] = true;
    x = GF256::mul(x, GF256::generator());
  }
  EXPECT_EQ(x, 1);  // alpha^255 == 1
}

TEST(GF256Test, CharacteristicTwo) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(GF256::add(static_cast<std::uint8_t>(a),
                         static_cast<std::uint8_t>(a)),
              0);
  }
  EXPECT_FALSE(GF256::kOddCharacteristic);
}

TEST(GF2_16Test, SampledAxioms) {
  Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    const auto a = GF2_16::from_int(rng.next_u64());
    const auto b = GF2_16::from_int(rng.next_u64());
    const auto c = GF2_16::from_int(rng.next_u64());
    check_axioms_pair<GF2_16>(a, b);
    check_axioms_triple<GF2_16>(a, b, c);
  }
}

TEST(GF2_16Test, InverseRoundTrip) {
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    auto a = GF2_16::from_int(rng.next_u64());
    if (a == 0) a = 1;
    EXPECT_EQ(GF2_16::mul(a, GF2_16::inv(a)), 1);
  }
}

TEST(PrimeFieldTest, ExhaustiveAxiomsF13) {
  using F = F13;
  for (std::uint32_t a = 0; a < 13; ++a) {
    for (std::uint32_t b = 0; b < 13; ++b) {
      check_axioms_pair<F>(a, b);
      for (std::uint32_t c = 0; c < 13; ++c) check_axioms_triple<F>(a, b, c);
    }
  }
}

TEST(PrimeFieldTest, ExhaustivePairAxiomsF257) {
  using F = F257;
  for (std::uint32_t a = 0; a < 257; ++a) {
    for (std::uint32_t b = 0; b < 257; ++b) check_axioms_pair<F>(a, b);
  }
}

TEST(PrimeFieldTest, SampledAxiomsF65537) {
  using F = F65537;
  Rng rng(23);
  for (int i = 0; i < 20000; ++i) {
    const auto a = F::from_int(rng.next_u64());
    const auto b = F::from_int(rng.next_u64());
    const auto c = F::from_int(rng.next_u64());
    check_axioms_pair<F>(a, b);
    check_axioms_triple<F>(a, b, c);
  }
}

TEST(PrimeFieldTest, OddCharacteristicTwoIsInvertible) {
  // The paper's (5,3) example needs 2 != 0 and 2 invertible.
  EXPECT_TRUE(F257::kOddCharacteristic);
  EXPECT_EQ(F257::mul(2, F257::inv(2)), 1u);
  EXPECT_EQ(F257::add(1, 1), 2u);
  EXPECT_NE(F257::add(1, 1), 0u);
}

TEST(PrimeFieldTest, ElemBytes) {
  EXPECT_EQ(F13::kElemBytes, 1u);
  EXPECT_EQ(F257::kElemBytes, 2u);
  EXPECT_EQ(F65537::kElemBytes, 3u);
  EXPECT_EQ(GF256::kElemBytes, 1u);
  EXPECT_EQ(GF2_16::kElemBytes, 2u);
}

// ---------------------------------------------------------------------------
// Vector kernels.
// ---------------------------------------------------------------------------

TEST(VectorOpsTest, AxpyMatchesScalarLoop) {
  using F = GF256;
  Rng rng(31);
  // Sizes straddling the GF(2^8) table-path threshold exercise both
  // implementations against the same reference.
  for (std::size_t n : {64u, 1023u, 1024u, 4096u}) {
    std::vector<std::uint8_t> dst(n), src(n), expected(n);
    for (int iter = 0; iter < 20; ++iter) {
      const auto a = F::from_int(rng.next_u64());
      for (std::size_t i = 0; i < dst.size(); ++i) {
        dst[i] = F::from_int(rng.next_u64());
        src[i] = F::from_int(rng.next_u64());
        expected[i] = F::add(dst[i], F::mul(a, src[i]));
      }
      axpy<F>(std::span<std::uint8_t>(dst), a,
              std::span<const std::uint8_t>(src));
      EXPECT_EQ(dst, expected) << "n=" << n;
    }
  }
}

TEST(VectorOpsTest, AddSubRoundTrip) {
  using F = F257;
  Rng rng(37);
  std::vector<std::uint32_t> dst(32), src(32);
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst[i] = F::from_int(rng.next_u64());
    src[i] = F::from_int(rng.next_u64());
  }
  const auto original = dst;
  add_into<F>(std::span<std::uint32_t>(dst),
              std::span<const std::uint32_t>(src));
  sub_into<F>(std::span<std::uint32_t>(dst),
              std::span<const std::uint32_t>(src));
  EXPECT_EQ(dst, original);
}

TEST(VectorOpsTest, ZeroHelpers) {
  using F = GF256;
  std::vector<std::uint8_t> v(16, 3);
  EXPECT_FALSE(is_zero<F>(std::span<const std::uint8_t>(v)));
  set_zero<F>(std::span<std::uint8_t>(v));
  EXPECT_TRUE(is_zero<F>(std::span<const std::uint8_t>(v)));
}

TEST(FieldTest, PowSquareAndMultiply) {
  using F = GF256;
  // a^(order-1) == 1 for nonzero a (Fermat).
  Rng rng(41);
  for (int i = 0; i < 256; ++i) {
    auto a = F::from_int(rng.next_u64());
    if (a == 0) continue;
    EXPECT_EQ((pow<F>(a, 255)), 1);
  }
  EXPECT_EQ((pow<F>(3, 0)), 1);
  EXPECT_EQ((pow<F>(3, 1)), 3);
}

}  // namespace
}  // namespace causalec::gf
