// Runtime-dispatched bulk GF(2^8) region kernels.
//
// Encode, re-encode (Gamma_{i,k}) and decode (Psi_S) all reduce to a fused
// multi-axpy over byte vectors (LinearCodeT::combine_into ->
// gf::axpy_batch), and addition to XOR, so every tier implements exactly
// two kernels: xor and axpy_batch. Three implementation tiers exist:
//
//   kScalar  -- the log/exp (short vectors) or product-table (long vectors)
//               reference; always present, byte-identical ground truth, and
//               the fallback on CPUs without AVX2.
//   kAvx2    -- split-nibble VPSHUFB: per-coefficient 16-entry low/high
//               product tables, one shuffle pair per 32 bytes.
//   kGfni    -- GF2P8AFFINEQB on 64-byte ZMM lanes: multiplication by a
//               constant is a GF(2)-linear map, so one 8x8 bit-matrix
//               affine instruction multiplies 64 bytes at once (the matrix
//               encodes our 0x11D field, not GFNI's AES polynomial).
//               Requires GFNI + AVX-512BW/VL; masked loads/stores handle
//               the tail, so there is no scalar remainder loop.
//
// The tier is selected once on first use from the CPU's capabilities
// (gf::kernels::cpu_features()), can be pinned via the CAUSALEC_GF_KERNEL
// environment variable ("scalar", "avx2", "gfni", or "auto"), and can be
// switched programmatically (set_active_tier) so tests can run every tier
// against the scalar reference on one machine. An unknown or unavailable
// CAUSALEC_GF_KERNEL value fails fast at first dispatch with a message
// listing the available tiers -- a silent fallback would let a
// mis-provisioned fleet run 20x slower than intended. The resolved tier is
// logged once at startup.
//
// All kernels accept arbitrary (unaligned) pointers and lengths, including
// zero. `dst` and `src` must not overlap: the vectorized tiers read and
// write in 32/64-byte blocks, so overlap would not just give the scalar
// answer shifted -- it silently corrupts data. The entry points CHECK this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace causalec::gf::kernels {

enum class Tier : int {
  kScalar = 0,
  kAvx2 = 1,
  kGfni = 2,
};

inline constexpr int kNumTiers = 3;

struct CpuFeatures {
  bool avx2 = false;
  /// GFNI together with AVX-512BW+VL (the 512-bit byte-granular subset the
  /// gfni tier needs); plain GFNI-on-SSE CPUs fall back to kAvx2.
  bool gfni_avx512 = false;
};

/// Detected once at first call (the result never changes).
const CpuFeatures& cpu_features();

/// True iff the tier's code is compiled in AND the CPU can run it.
/// kScalar is always available.
bool tier_available(Tier tier);

/// Highest-throughput available tier.
Tier best_available_tier();

/// "scalar" / "avx2" / "gfni".
const char* tier_name(Tier tier);

/// Inverse of tier_name; nullopt for unknown names (including "auto").
std::optional<Tier> parse_tier(std::string_view name);

/// Comma-separated names of every tier available on this CPU/build, for
/// error messages and startup logging.
std::string available_tier_names();

/// The tier the region kernels dispatch to. Resolved on first call:
/// CAUSALEC_GF_KERNEL if set, otherwise best_available_tier(). An unknown
/// or unavailable CAUSALEC_GF_KERNEL value CHECK-fails with the available
/// tiers listed; the resolved tier is logged once.
Tier active_tier();

/// Pin the dispatch tier; CHECK-fails if the tier is unavailable.
void set_active_tier(Tier tier);

/// RAII tier pin for tests: switches on construction, restores on exit.
class ScopedTierForTesting {
 public:
  explicit ScopedTierForTesting(Tier tier) : saved_(active_tier()) {
    set_active_tier(tier);
  }
  ~ScopedTierForTesting() { set_active_tier(saved_); }
  ScopedTierForTesting(const ScopedTierForTesting&) = delete;
  ScopedTierForTesting& operator=(const ScopedTierForTesting&) = delete;

 private:
  Tier saved_;
};

/// Scalar-tier boundary: below this length the scalar reference multiplies
/// each term through log/exp lookups; at or above it, it builds a 256-entry
/// product table first. (Both give identical bytes; the threshold only
/// matters for speed, and the differential tests straddle it.)
inline constexpr std::size_t kGf256TableThreshold = 1024;

/// dst[i] ^= src[i]. (Addition == subtraction in characteristic 2; this is
/// the add/sub kernel for GF(2^8) and, bytewise, GF(2^16).) dst and src
/// must not overlap (CHECKed).
void xor_region(std::uint8_t* dst, const std::uint8_t* src, std::size_t n);

// ---------------------------------------------------------------------------
// Fused multi-axpy ("axpy_batch"): the one multiply kernel.
// ---------------------------------------------------------------------------

/// One source term of an axpy batch: dst[i] ^= coeff * src[i].
struct BatchTerm {
  std::uint8_t coeff;
  const std::uint8_t* src;
};

/// Terms per fused inner pass. Larger batches are processed in chunks of
/// this many terms -- the destination stays cache-hot across chunks, and
/// the per-term lookup tables (nibble tables / affine matrices) stay within
/// one cache line's worth of registers or L1.
inline constexpr std::size_t kMaxBatchTerms = 16;

/// dst[i] ^= sum_t terms[t].coeff * terms[t].src[i], touching each
/// destination byte once per chunk of kMaxBatchTerms terms instead of once
/// per term. Zero coefficients are skipped; a == 1 terms still fuse (they
/// cost one XOR in the inner loop). A one-term batch is the single axpy.
/// Each term's src must not overlap dst (CHECKed); terms may alias each
/// other freely (they are only read).
void axpy_batch_gf256(std::uint8_t* dst, std::span<const BatchTerm> terms,
                      std::size_t n);

}  // namespace causalec::gf::kernels
