// AVX2 kernel tier: split-nibble VPSHUFB. Multiplying x by a constant a
// splits into two 16-entry lookups,
//   a * x == lo[x & 0xF] ^ hi[x >> 4],
// because x = xl ^ (xh << 4) and multiplication distributes over XOR.
// VPSHUFB shuffles within each 128-bit lane, which is exactly what the
// nibble lookup needs: the same 16-entry table is broadcast into both
// lanes, and one shuffle pair multiplies 32 bytes.
//
// Compiled with -mavx2 (see src/gf/CMakeLists.txt); only installed after
// __builtin_cpu_supports("avx2") passed.
#include "gf/kernels_impl.h"

#if defined(CAUSALEC_KERNELS_AVX2)

#include <immintrin.h>

#include "gf/gf256.h"

namespace causalec::gf::kernels::detail {

namespace {

/// Split-nibble product tables for one coefficient: 32 multiplications to
/// build, amortized over the whole region.
struct NibbleTables {
  alignas(16) std::uint8_t lo[16];
  alignas(16) std::uint8_t hi[16];
};

NibbleTables build_nibble_tables(std::uint8_t a) {
  NibbleTables t;
  for (int n = 0; n < 16; ++n) {
    t.lo[n] = GF256::mul(a, static_cast<std::uint8_t>(n));
    t.hi[n] = GF256::mul(a, static_cast<std::uint8_t>(n << 4));
  }
  return t;
}

/// Per-byte tail product through the nibble tables (identical to
/// GF256::mul).
inline std::uint8_t nibble_mul(const NibbleTables& t, std::uint8_t x) {
  return static_cast<std::uint8_t>(t.lo[x & 0xF] ^ t.hi[x >> 4]);
}

inline __m256i broadcast_tables(const std::uint8_t* table16) {
  const __m128i t = _mm_loadu_si128(reinterpret_cast<const __m128i*>(table16));
  return _mm256_broadcastsi128_si256(t);
}

inline __m256i mul32(__m256i x, __m256i lo, __m256i hi, __m256i nibble) {
  const __m256i xl = _mm256_and_si256(x, nibble);
  const __m256i xh = _mm256_and_si256(_mm256_srli_epi64(x, 4), nibble);
  return _mm256_xor_si256(_mm256_shuffle_epi8(lo, xl),
                          _mm256_shuffle_epi8(hi, xh));
}

void avx2_xor(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, s));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

/// One fused pass over dst applying up to 4 terms: dst is loaded/stored
/// once per 32-byte block, each term contributes one shuffle pair + XOR
/// against the in-register accumulator. 4 terms x 2 table vectors + the
/// accumulator, source, and nibble mask fit the 16 ymm registers; wider
/// groups spill the tables to the stack and reload them every block, which
/// measures *slower* than sequential axpy.
void avx2_axpy_group4(std::uint8_t* dst, const BatchTerm* terms,
                      std::size_t num_terms, std::size_t n) {
  NibbleTables tables[4];
  __m256i lo[4];
  __m256i hi[4];
  for (std::size_t t = 0; t < num_terms; ++t) {
    tables[t] = build_nibble_tables(terms[t].coeff);
    lo[t] = broadcast_tables(tables[t].lo);
    hi[t] = broadcast_tables(tables[t].hi);
  }
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i acc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    for (std::size_t t = 0; t < num_terms; ++t) {
      const __m256i x = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(terms[t].src + i));
      acc = _mm256_xor_si256(acc, mul32(x, lo[t], hi[t], nibble));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), acc);
  }
  for (; i < n; ++i) {
    std::uint8_t acc = dst[i];
    for (std::size_t t = 0; t < num_terms; ++t) {
      acc ^= nibble_mul(tables[t], terms[t].src[i]);
    }
    dst[i] = acc;
  }
}

/// Fused multi-axpy, strip-mined into register-resident groups of 4 terms:
/// ceil(num_terms/4) passes over dst instead of num_terms sequential ones.
void avx2_axpy_batch(std::uint8_t* dst, const BatchTerm* terms,
                     std::size_t num_terms, std::size_t n) {
  for (std::size_t t = 0; t < num_terms; t += 4) {
    const std::size_t group = num_terms - t < 4 ? num_terms - t : 4;
    avx2_axpy_group4(dst, terms + t, group, n);
  }
}

constexpr KernelTable kAvx2Table = {avx2_xor, avx2_axpy_batch};

}  // namespace

const KernelTable* avx2_kernel_table() { return &kAvx2Table; }

}  // namespace causalec::gf::kernels::detail

#else  // !CAUSALEC_KERNELS_AVX2

namespace causalec::gf::kernels::detail {

const KernelTable* avx2_kernel_table() { return nullptr; }

}  // namespace causalec::gf::kernels::detail

#endif
