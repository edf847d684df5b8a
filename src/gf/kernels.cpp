// The scalar kernel tier, CPU detection, and the dispatcher.
#include "gf/kernels.h"

#include <array>
#include <atomic>
#include <cstdlib>

#include "common/expect.h"
#include "common/logging.h"
#include "gf/gf256.h"
#include "gf/kernels_impl.h"

namespace causalec::gf::kernels {

namespace {

using detail::KernelTable;

// ---------------------------------------------------------------------------
// Scalar tier: the reference. Each term of a batch is its own pass: short
// vectors multiply through log/exp; long vectors build a full 256-entry
// product table first (one lookup per byte).
// ---------------------------------------------------------------------------

std::array<std::uint8_t, 256> build_product_table(std::uint8_t a) {
  std::array<std::uint8_t, 256> table;
  for (int x = 0; x < 256; ++x) {
    table[static_cast<std::size_t>(x)] =
        GF256::mul(a, static_cast<std::uint8_t>(x));
  }
  return table;
}

void scalar_xor(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

void scalar_axpy(std::uint8_t* dst, std::uint8_t a, const std::uint8_t* src,
                 std::size_t n) {
  if (n >= kGf256TableThreshold) {
    const auto table = build_product_table(a);
    for (std::size_t i = 0; i < n; ++i) dst[i] ^= table[src[i]];
    return;
  }
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= GF256::mul(a, src[i]);
}

void scalar_axpy_batch(std::uint8_t* dst, const BatchTerm* terms,
                       std::size_t num_terms, std::size_t n) {
  // Sequential axpy IS the reference semantics (XOR accumulation is
  // order-independent), so the scalar tier just loops.
  for (std::size_t t = 0; t < num_terms; ++t) {
    scalar_axpy(dst, terms[t].coeff, terms[t].src, n);
  }
}

constexpr KernelTable kScalarTable = {scalar_xor, scalar_axpy_batch};

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

const KernelTable* table_for(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return &kScalarTable;
    case Tier::kAvx2:
      return detail::avx2_kernel_table();
    case Tier::kGfni:
      return detail::gfni_kernel_table();
  }
  return nullptr;
}

CpuFeatures detect_cpu() {
  CpuFeatures f;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  f.avx2 = __builtin_cpu_supports("avx2");
  f.gfni_avx512 = __builtin_cpu_supports("gfni") &&
                  __builtin_cpu_supports("avx512bw") &&
                  __builtin_cpu_supports("avx512vl");
#endif
  return f;
}

/// -1 = not yet resolved; otherwise a Tier value.
std::atomic<int> g_active_tier{-1};

Tier resolve_initial_tier() {
  const char* env = std::getenv("CAUSALEC_GF_KERNEL");
  Tier resolved;
  if (env != nullptr && env[0] != '\0' &&
      std::string_view(env) != "auto") {
    // Strict: a mis-provisioned fleet silently running the scalar tier is
    // a 20x regression that looks like a capacity problem. Refuse to start.
    const auto requested = parse_tier(env);
    CEC_CHECK_MSG(requested.has_value(),
                  "CAUSALEC_GF_KERNEL=" << env
                                        << " is not a kernel tier; available: "
                                        << available_tier_names() << ", auto");
    CEC_CHECK_MSG(tier_available(*requested),
                  "CAUSALEC_GF_KERNEL="
                      << env << " is unavailable on this CPU/build; available: "
                      << available_tier_names() << ", auto");
    resolved = *requested;
  } else {
    resolved = best_available_tier();
  }
  CEC_LOG(kInfo) << "gf kernels: using " << tier_name(resolved)
                 << " tier (available: " << available_tier_names() << ")";
  return resolved;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = detect_cpu();
  return features;
}

bool tier_available(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
      return cpu_features().avx2 && detail::avx2_kernel_table() != nullptr;
    case Tier::kGfni:
      return cpu_features().gfni_avx512 &&
             detail::gfni_kernel_table() != nullptr;
  }
  return false;
}

Tier best_available_tier() {
  if (tier_available(Tier::kGfni)) return Tier::kGfni;
  if (tier_available(Tier::kAvx2)) return Tier::kAvx2;
  return Tier::kScalar;
}

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kGfni:
      return "gfni";
  }
  return "unknown";
}

std::optional<Tier> parse_tier(std::string_view name) {
  if (name == "scalar") return Tier::kScalar;
  if (name == "avx2") return Tier::kAvx2;
  if (name == "gfni") return Tier::kGfni;
  return std::nullopt;
}

std::string available_tier_names() {
  std::string names;
  for (int t = 0; t < kNumTiers; ++t) {
    const auto tier = static_cast<Tier>(t);
    if (!tier_available(tier)) continue;
    if (!names.empty()) names += ", ";
    names += tier_name(tier);
  }
  return names;
}

Tier active_tier() {
  int tier = g_active_tier.load(std::memory_order_acquire);
  if (tier < 0) {
    // First call (possibly racing): every racer computes the same value,
    // so the exchange is idempotent.
    const Tier resolved = resolve_initial_tier();
    int expected = -1;
    if (g_active_tier.compare_exchange_strong(expected,
                                              static_cast<int>(resolved),
                                              std::memory_order_acq_rel)) {
      return resolved;
    }
    tier = expected;  // another thread (or a set_active_tier) won
  }
  return static_cast<Tier>(tier);
}

void set_active_tier(Tier tier) {
  CEC_CHECK_MSG(tier_available(tier),
                "gf kernel tier " << tier_name(tier)
                                  << " is unavailable on this CPU/build");
  g_active_tier.store(static_cast<int>(tier), std::memory_order_release);
}

namespace {

/// Overlap guard, always on: the vectorized tiers read/write in blocks, so
/// partially overlapping regions would be silently corrupted, not just
/// reordered. Two pointer comparisons -- negligible next to the region work.
inline void check_no_overlap(const void* dst, const void* src,
                             std::size_t n) {
  const auto d = reinterpret_cast<std::uintptr_t>(dst);
  const auto s = reinterpret_cast<std::uintptr_t>(src);
  CEC_CHECK_MSG(d + n <= s || s + n <= d,
                "gf kernel: dst and src overlap (dst=" << dst << ", src="
                                                       << src << ", n=" << n
                                                       << ")");
}

inline const KernelTable& active_table() {
  const KernelTable* table = table_for(active_tier());
  CEC_DCHECK(table != nullptr);
  return *table;
}

}  // namespace

void xor_region(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  if (n == 0) return;
  check_no_overlap(dst, src, n);
  active_table().xor_region(dst, src, n);
}

void axpy_batch_gf256(std::uint8_t* dst, std::span<const BatchTerm> terms,
                      std::size_t n) {
  if (n == 0) return;
  const KernelTable& table = active_table();
  BatchTerm chunk[kMaxBatchTerms];
  std::size_t count = 0;
  for (const BatchTerm& term : terms) {
    if (term.coeff == 0) continue;
    check_no_overlap(dst, term.src, n);
    chunk[count++] = term;
    if (count == kMaxBatchTerms) {
      table.axpy_batch(dst, chunk, count, n);
      count = 0;
    }
  }
  if (count > 0) table.axpy_batch(dst, chunk, count, n);
}

}  // namespace causalec::gf::kernels
