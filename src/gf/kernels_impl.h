// Internal plumbing shared by the kernel translation units. Not installed
// into vector_ops users; include gf/kernels.h instead.
#pragma once

#include <cstddef>
#include <cstdint>

#include "gf/kernels.h"

namespace causalec::gf::kernels::detail {

/// One implementation tier = one table of its two kernels. The dispatcher
/// in kernels.cpp picks a table once and indirect-calls through it.
/// axpy_batch receives at most kMaxBatchTerms terms, all with nonzero
/// coefficients (the entry point filters and chunks).
struct KernelTable {
  void (*xor_region)(std::uint8_t* dst, const std::uint8_t* src,
                     std::size_t n);
  void (*axpy_batch)(std::uint8_t* dst, const BatchTerm* terms,
                     std::size_t num_terms, std::size_t n);
};

/// SIMD tiers, defined in kernels_avx2.cpp / kernels_gfni.cpp. Return
/// nullptr when the tier was not compiled in (non-x86 target or the
/// compiler lacks the ISA flags).
const KernelTable* avx2_kernel_table();
const KernelTable* gfni_kernel_table();

}  // namespace causalec::gf::kernels::detail
