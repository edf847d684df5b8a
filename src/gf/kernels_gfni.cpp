// GFNI/AVX-512 kernel tier: GF(2^8) multiplication by a constant `a` is a
// linear map over GF(2), so it can be expressed as an 8x8 bit matrix and
// executed by GF2P8AFFINEQB -- one instruction multiplies 64 bytes. Note
// the instruction's *affine* form is polynomial-agnostic: the matrix below
// encodes multiplication in our 0x11D field even though GFNI's dedicated
// multiply instruction (GF2P8MULB) is hard-wired to the AES 0x11B
// polynomial and therefore unusable here.
//
// Tails are handled with AVX-512BW byte-masked loads/stores (fault
// suppression on masked-out lanes is architectural), so every length runs
// the full-width path with no scalar remainder loop.
//
// Compiled with -mgfni -mavx512f -mavx512bw -mavx512vl (see
// src/gf/CMakeLists.txt); only installed after the runtime CPU check in
// kernels.cpp passed.
#include "gf/kernels_impl.h"

#if defined(CAUSALEC_KERNELS_GFNI)

#include <immintrin.h>

namespace causalec::gf::kernels::detail {

namespace {

/// 8x8 GF(2) bit matrix for y = a * x over GF(2^8) mod 0x11D, packed for
/// GF2P8AFFINEQB: byte (7 - i) of the qword is the row producing output
/// bit i, and bit j of that row is bit i of a * x^j (the image of basis
/// element x^j). Built in ~16 shifts per coefficient; amortized over the
/// region like the AVX2 tier's nibble tables.
inline std::uint64_t affine_matrix(std::uint8_t a) {
  std::uint8_t m[8];  // m[j] = a * x^j
  std::uint8_t cur = a;
  for (int j = 0; j < 8; ++j) {
    m[j] = cur;
    cur = static_cast<std::uint8_t>((cur << 1) ^ ((cur & 0x80) ? 0x1D : 0));
  }
  std::uint64_t mat = 0;
  for (int i = 0; i < 8; ++i) {
    std::uint8_t row = 0;
    for (int j = 0; j < 8; ++j) {
      row |= static_cast<std::uint8_t>(((m[j] >> i) & 1) << j);
    }
    mat |= static_cast<std::uint64_t>(row) << (8 * (7 - i));
  }
  return mat;
}

inline __mmask64 tail_mask(std::size_t rem) {
  return rem >= 64 ? ~__mmask64{0} : ((__mmask64{1} << rem) - 1);
}

void gfni_xor(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i d = _mm512_loadu_si512(dst + i);
    const __m512i s = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_xor_si512(d, s));
  }
  if (i < n) {
    const __mmask64 k = tail_mask(n - i);
    const __m512i d = _mm512_maskz_loadu_epi8(k, dst + i);
    const __m512i s = _mm512_maskz_loadu_epi8(k, src + i);
    _mm512_mask_storeu_epi8(dst + i, k, _mm512_xor_si512(d, s));
  }
}

/// Fused multi-axpy: one pass over dst, one affine+xor per term per block.
/// At 4 KiB values this is the difference between K streaming passes over
/// the codeword symbol and one.
void gfni_axpy_batch(std::uint8_t* dst, const BatchTerm* terms,
                     std::size_t num_terms, std::size_t n) {
  __m512i mats[kMaxBatchTerms];
  for (std::size_t t = 0; t < num_terms; ++t) {
    mats[t] =
        _mm512_set1_epi64(static_cast<long long>(affine_matrix(terms[t].coeff)));
  }
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    __m512i acc = _mm512_loadu_si512(dst + i);
    for (std::size_t t = 0; t < num_terms; ++t) {
      const __m512i x = _mm512_loadu_si512(terms[t].src + i);
      acc = _mm512_xor_si512(acc, _mm512_gf2p8affine_epi64_epi8(x, mats[t], 0));
    }
    _mm512_storeu_si512(dst + i, acc);
  }
  if (i < n) {
    const __mmask64 k = tail_mask(n - i);
    __m512i acc = _mm512_maskz_loadu_epi8(k, dst + i);
    for (std::size_t t = 0; t < num_terms; ++t) {
      const __m512i x = _mm512_maskz_loadu_epi8(k, terms[t].src + i);
      acc = _mm512_xor_si512(acc, _mm512_gf2p8affine_epi64_epi8(x, mats[t], 0));
    }
    _mm512_mask_storeu_epi8(dst + i, k, acc);
  }
}

constexpr KernelTable kGfniTable = {gfni_xor, gfni_axpy_batch};

}  // namespace

const KernelTable* gfni_kernel_table() { return &kGfniTable; }

}  // namespace causalec::gf::kernels::detail

#else  // !CAUSALEC_KERNELS_GFNI

namespace causalec::gf::kernels::detail {

const KernelTable* gfni_kernel_table() { return nullptr; }

}  // namespace causalec::gf::kernels::detail

#endif
