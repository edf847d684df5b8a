// Bulk operations on vectors of field elements.
//
// Object values in CausalEC are elements of V = F^d; codeword symbols are
// linear combinations of such vectors. These kernels are the hot path of
// encode / re-encode / decode.
//
// Characteristic-2 fields route through the runtime-dispatched region
// kernels in gf/kernels.h (scalar / SSSE3 / AVX2 / GFNI); odd-
// characteristic fields use the elementwise loops below. All tiers are
// byte-identical to the scalar reference (pinned by tests/gf_kernel_test).
//
// dst and src must not overlap: the vectorized tiers operate in 16/32-byte
// blocks, so partial overlap silently corrupts data instead of degrading
// to the shifted scalar answer. The GF(2^8) region kernels CHECK this on
// every call; the elementwise paths DCHECK it.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>

#include "common/expect.h"
#include "gf/field.h"
#include "gf/gf256.h"
#include "gf/kernels.h"

namespace causalec::gf {

namespace detail_vec {

inline constexpr std::size_t kGf256TableThreshold =
    kernels::kGf256TableThreshold;

inline bool overlaps(const void* a, std::size_t a_bytes, const void* b,
                     std::size_t b_bytes) {
  const auto pa = reinterpret_cast<std::uintptr_t>(a);
  const auto pb = reinterpret_cast<std::uintptr_t>(b);
  return pa < pb + b_bytes && pb < pa + a_bytes;
}

template <typename Elem>
std::uint8_t* as_bytes(std::span<Elem> s) {
  return reinterpret_cast<std::uint8_t*>(s.data());
}

template <typename Elem>
const std::uint8_t* as_bytes(std::span<const Elem> s) {
  return reinterpret_cast<const std::uint8_t*>(s.data());
}

}  // namespace detail_vec

/// dst += src (elementwise field addition).
template <Field F>
void add_into(std::span<typename F::Elem> dst,
              std::span<const typename F::Elem> src) {
  CEC_DCHECK(dst.size() == src.size());
  if constexpr (!F::kOddCharacteristic) {
    // Addition is XOR on the underlying bytes for any GF(2^m).
    kernels::xor_region(detail_vec::as_bytes(dst), detail_vec::as_bytes(src),
                        dst.size_bytes());
  } else {
    CEC_DCHECK(!detail_vec::overlaps(dst.data(), dst.size_bytes(), src.data(),
                                     src.size_bytes()));
    for (std::size_t i = 0; i < dst.size(); ++i) {
      dst[i] = F::add(dst[i], src[i]);
    }
  }
}

/// dst -= src.
template <Field F>
void sub_into(std::span<typename F::Elem> dst,
              std::span<const typename F::Elem> src) {
  CEC_DCHECK(dst.size() == src.size());
  if constexpr (!F::kOddCharacteristic) {
    kernels::xor_region(detail_vec::as_bytes(dst), detail_vec::as_bytes(src),
                        dst.size_bytes());
  } else {
    CEC_DCHECK(!detail_vec::overlaps(dst.data(), dst.size_bytes(), src.data(),
                                     src.size_bytes()));
    for (std::size_t i = 0; i < dst.size(); ++i) {
      dst[i] = F::sub(dst[i], src[i]);
    }
  }
}

/// dst += a * src ("axpy"). a == 0 is a no-op; a == 1 degrades to add;
/// GF(2^8) dispatches to the active region-kernel tier.
template <Field F>
void axpy(std::span<typename F::Elem> dst, typename F::Elem a,
          std::span<const typename F::Elem> src) {
  CEC_DCHECK(dst.size() == src.size());
  if (a == F::zero) return;
  if (a == F::one) {
    add_into<F>(dst, src);
    return;
  }
  if constexpr (std::is_same_v<F, GF256>) {
    kernels::axpy_region_gf256(dst.data(), a, src.data(), dst.size());
  } else {
    CEC_DCHECK(!detail_vec::overlaps(dst.data(), dst.size_bytes(), src.data(),
                                     src.size_bytes()));
    for (std::size_t i = 0; i < dst.size(); ++i) {
      dst[i] = F::add(dst[i], F::mul(a, src[i]));
    }
  }
}

/// One term of an axpy_batch: dst += coeff * src.
template <Field F>
struct AxpyTerm {
  typename F::Elem coeff;
  std::span<const typename F::Elem> src;
};

/// dst += sum_t terms[t].coeff * terms[t].src — the fused multi-axpy.
/// GF(2^8) routes through the kernel tier's axpy_batch, which touches each
/// destination cache line once per chunk of kernels::kMaxBatchTerms terms
/// instead of once per term; other fields fall back to sequential axpy
/// (bit-identical: XOR/field addition is order-independent).
template <Field F>
void axpy_batch(std::span<typename F::Elem> dst,
                std::span<const AxpyTerm<F>> terms) {
  if constexpr (std::is_same_v<F, GF256>) {
    kernels::BatchTerm raw[kernels::kMaxBatchTerms];
    std::size_t count = 0;
    for (const AxpyTerm<F>& term : terms) {
      CEC_DCHECK(term.src.size() == dst.size());
      if (term.coeff == F::zero) continue;
      raw[count++] = {term.coeff, term.src.data()};
      if (count == kernels::kMaxBatchTerms) {
        kernels::axpy_batch_gf256(dst.data(), {raw, count}, dst.size());
        count = 0;
      }
    }
    if (count > 0) {
      kernels::axpy_batch_gf256(dst.data(), {raw, count}, dst.size());
    }
  } else {
    for (const AxpyTerm<F>& term : terms) {
      axpy<F>(dst, term.coeff, term.src);
    }
  }
}

/// dst *= a (in place; no aliasing concern).
template <Field F>
void scale(std::span<typename F::Elem> dst, typename F::Elem a) {
  if (a == F::one) return;
  if constexpr (std::is_same_v<F, GF256>) {
    kernels::scale_region_gf256(dst.data(), a, dst.size());
  } else {
    for (auto& x : dst) x = F::mul(a, x);
  }
}

/// dst = 0.
template <Field F>
void set_zero(std::span<typename F::Elem> dst) {
  for (auto& x : dst) x = F::zero;
}

/// True iff every element is zero.
template <Field F>
bool is_zero(std::span<const typename F::Elem> v) {
  for (auto x : v) {
    if (x != F::zero) return false;
  }
  return true;
}

}  // namespace causalec::gf
