// Golden-vector regression tests for the two reference codes: Cauchy
// systematic RS(6,4) over GF(2^8) and the paper's (5,3) example over F_257.
//
// The expected hex strings pin today's encode / reencode output exactly.
// Any change to the field tables, the Cauchy construction, element
// packing, or the kernel layer that alters bytes on the wire shows up
// here as a diff against fixed strings rather than as a silent
// self-consistent change (an encode/decode round-trip test would still
// pass if encode and decode drifted together).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "erasure/codes.h"
#include "gf/kernels.h"

namespace causalec::erasure {
namespace {

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(
        std::stoul(std::string(hex.substr(2 * i, 2)), nullptr, 16));
  }
  return out;
}

std::vector<gf::kernels::Tier> available_tiers() {
  std::vector<gf::kernels::Tier> tiers;
  for (int t = 0; t < gf::kernels::kNumTiers; ++t) {
    const auto tier = static_cast<gf::kernels::Tier>(t);
    if (gf::kernels::tier_available(tier)) tiers.push_back(tier);
  }
  return tiers;
}

// ---------------------------------------------------------------------------
// Cauchy systematic RS(6,4) over GF(2^8), 16-byte values.
// Input pattern: byte j of object k is (k*37 + j*11 + 1) mod 256.
// ---------------------------------------------------------------------------

std::vector<Value> rs_golden_values() {
  std::vector<Value> vals(4);
  for (std::size_t k = 0; k < 4; ++k) {
    vals[k].resize(16);
    for (std::size_t j = 0; j < 16; ++j) {
      vals[k][j] = static_cast<std::uint8_t>(k * 37 + j * 11 + 1);
    }
  }
  return vals;
}

// One expected symbol per server. Servers 0..3 are systematic (the object
// itself); 4 and 5 are Cauchy parities.
const char* const kRsSymbols[6] = {
    "010c17222d38434e59646f7a85909ba6",
    "26313c47525d68737e89949faab5c0cb",
    "4b56616c77828d98a3aeb9c4cfdae5f0",
    "707b86919ca7b2bdc8d3dee9f4ff0a15",
    "693c4efeccf157d0451272be7580a0e6",
    "0853f084b887e5f1f2f605df4754051d",
};

TEST(GoldenVectorsTest, RsEncodeMatchesGoldenOnEveryTier) {
  const auto code = make_systematic_rs(6, 4, 16);
  const auto vals = rs_golden_values();
  for (const auto tier : available_tiers()) {
    gf::kernels::ScopedTierForTesting guard(tier);
    for (NodeId s = 0; s < 6; ++s) {
      EXPECT_EQ(to_hex(code->encode(s, vals)), kRsSymbols[s])
          << "server " << s << " tier " << gf::kernels::tier_name(tier);
    }
  }
}

TEST(GoldenVectorsTest, RsDecodeRecoversFromGoldenSymbols) {
  const auto code = make_systematic_rs(6, 4, 16);
  const auto vals = rs_golden_values();
  // Decode every object from the two parities plus two systematic servers
  // (objects 0 and 1 erased), using only the golden symbol bytes.
  const std::vector<NodeId> servers = {2, 3, 4, 5};
  std::vector<Symbol> symbols;
  for (const NodeId s : servers) symbols.push_back(from_hex(kRsSymbols[s]));
  for (ObjectId k = 0; k < 4; ++k) {
    EXPECT_EQ(code->decode(k, servers, symbols), vals[k]) << "object " << k;
  }
}

TEST(GoldenVectorsTest, RsReencodeMatchesGolden) {
  const auto code = make_systematic_rs(6, 4, 16);
  const auto vals = rs_golden_values();
  Value newv(16);
  for (std::size_t j = 0; j < 16; ++j) {
    newv[j] = static_cast<std::uint8_t>(j * 5 + 200);
  }
  // Reencoding must commute with encoding the updated object vector.
  auto updated = vals;
  updated[2] = newv;
  for (const auto tier : available_tiers()) {
    gf::kernels::ScopedTierForTesting guard(tier);
    Symbol sym = from_hex(kRsSymbols[5]);
    const Code::ReencodeEntry entry{2, vals[2], newv};
    code->reencode_batch(5, sym, {&entry, 1});
    EXPECT_EQ(to_hex(sym), "8409cd00532bf032ef527704d3164fee")
        << "tier " << gf::kernels::tier_name(tier);
    EXPECT_EQ(sym, code->encode(5, updated));
  }
}

// ---------------------------------------------------------------------------
// The paper's (5,3) code over F_257 (odd characteristic), 8-byte values =
// four 2-byte little-endian elements, each < 257.
// Input pattern: element e of object k is (k*31 + e*7 + 3) mod 257.
// ---------------------------------------------------------------------------

std::vector<Value> p53_golden_values() {
  std::vector<Value> vals(3);
  for (std::size_t k = 0; k < 3; ++k) {
    vals[k].resize(8);
    for (std::size_t e = 0; e < 4; ++e) {
      const std::uint32_t x = (k * 31 + e * 7 + 3) % 257;
      vals[k][2 * e] = static_cast<std::uint8_t>(x & 0xFF);
      vals[k][2 * e + 1] = static_cast<std::uint8_t>(x >> 8);
    }
  }
  return vals;
}

// Y1=X1, Y2=X2, Y3=X3, Y4=X1+X2+X3, Y5=X1+2*X2+X3 (Sec. 1.2).
const char* const kP53Symbols[5] = {
    "03000a0011001800",
    "2200290030003700",
    "410048004f005600",
    "66007b009000a500",
    "8800a400c000dc00",
};

TEST(GoldenVectorsTest, Paper53EncodeMatchesGolden) {
  const auto code = make_paper_5_3(8);
  const auto vals = p53_golden_values();
  for (NodeId s = 0; s < 5; ++s) {
    EXPECT_EQ(to_hex(code->encode(s, vals)), kP53Symbols[s]) << "server " << s;
  }
}

TEST(GoldenVectorsTest, Paper53DecodeRecoversFromGoldenSymbols) {
  const auto code = make_paper_5_3(8);
  const auto vals = p53_golden_values();
  // X1 and X2 erased: recover them from Y3, Y4, Y5 alone (this is the
  // paper's motivating scenario -- the two parity equations differ only in
  // the coefficient 2, which requires odd characteristic).
  const std::vector<NodeId> servers = {2, 3, 4};
  std::vector<Symbol> symbols;
  for (const NodeId s : servers) symbols.push_back(from_hex(kP53Symbols[s]));
  EXPECT_EQ(code->decode(0, servers, symbols), vals[0]);
  EXPECT_EQ(code->decode(1, servers, symbols), vals[1]);
  EXPECT_EQ(code->decode(2, servers, symbols), vals[2]);
}

TEST(GoldenVectorsTest, Paper53ReencodeMatchesGolden) {
  const auto code = make_paper_5_3(8);
  const auto vals = p53_golden_values();
  Value newv(8);
  for (std::size_t e = 0; e < 4; ++e) {
    const std::uint32_t x = (e * 13 + 100) % 257;
    newv[2 * e] = static_cast<std::uint8_t>(x & 0xFF);
    newv[2 * e + 1] = static_cast<std::uint8_t>(x >> 8);
  }
  auto updated = vals;
  updated[1] = newv;
  for (const auto tier : available_tiers()) {
    gf::kernels::ScopedTierForTesting guard(tier);
    Symbol sym = from_hex(kP53Symbols[4]);
    const Code::ReencodeEntry entry{1, vals[1], newv};
    code->reencode_batch(4, sym, {&entry, 1});
    // Hand-checkable: delta = new - old = (66,72,78,84); Y5 gains 2*delta,
    // so elements (136,164,192,220) become (11,51,91,131) mod 257.
    EXPECT_EQ(to_hex(sym), "0b0033005b008300")
        << "tier " << gf::kernels::tier_name(tier);
    EXPECT_EQ(sym, code->encode(4, updated));
  }
}

// ---------------------------------------------------------------------------
// Golden repair vectors: Azure-LRC(6,2,2) over GF(2^8), 16-byte values,
// same input pattern as the RS block. Servers 0..5 are data, 6..7 the XOR
// local parities, 8..9 the Cauchy global parities. The repair plans are
// pinned (helper mask + fetched rows) along with the repaired bytes, so a
// planner regression that silently picks a costlier-but-correct helper set
// still fails here.
// ---------------------------------------------------------------------------

std::vector<Value> lrc_golden_values() {
  std::vector<Value> vals(6);
  for (std::size_t k = 0; k < 6; ++k) {
    vals[k].resize(16);
    for (std::size_t j = 0; j < 16; ++j) {
      vals[k][j] = static_cast<std::uint8_t>(k * 37 + j * 11 + 1);
    }
  }
  return vals;
}

const char* const kLrcSymbols[10] = {
    "010c17222d38434e59646f7a85909ba6",
    "26313c47525d68737e89949faab5c0cb",
    "4b56616c77828d98a3aeb9c4cfdae5f0",
    "707b86919ca7b2bdc8d3dee9f4ff0a15",
    "95a0abb6c1ccd7e2edf8030e19242f3a",
    "bac5d0dbe6f1fc07121d28333e49545f",
    "6c6b4a0908e7a6a584434221e0ffbe9d",
    "5f1efdfcbb9a99583736f5d4d3927170",
    "d16c844d704d7778e3cc8575228a3016",
    "51997a9e" "d6d5c2ca" "6c511f26" "63159b9b",
};

struct GoldenRepairCase {
  NodeId failed;
  std::uint32_t helper_mask;
  std::size_t fetch_rows;
};

// Data and local-parity failures repair inside a 3-server local group; a
// global parity finds a 5-row mixed set (still cheaper than the k=6 full
// decode, an LRC structural identity the planner must keep discovering).
const GoldenRepairCase kLrcRepairs[] = {
    {0, 0x046, 3},  // data, group 0: {1, 2, lp0}
    {4, 0x0a8, 3},  // data, group 1: {3, 5, lp1}
    {6, 0x007, 3},  // local parity 0: its own group {0, 1, 2}
    {8, 0x2cc, 5},  // global parity 0: {2, 3, lp0, lp1, gp1}
};

TEST(GoldenVectorsTest, LrcEncodeMatchesGoldenOnEveryTier) {
  const auto code = make_azure_lrc_6_2_2(16);
  const auto vals = lrc_golden_values();
  for (const auto tier : available_tiers()) {
    gf::kernels::ScopedTierForTesting guard(tier);
    for (NodeId s = 0; s < 10; ++s) {
      EXPECT_EQ(to_hex(code->encode(s, vals)), kLrcSymbols[s])
          << "server " << s << " tier " << gf::kernels::tier_name(tier);
    }
  }
}

TEST(GoldenVectorsTest, LrcRepairMatchesGoldenOnEveryTier) {
  const auto code = make_azure_lrc_6_2_2(16);
  for (const GoldenRepairCase& c : kLrcRepairs) {
    const auto summary = code->plan_symbol_repair(c.failed, 1u << c.failed);
    ASSERT_TRUE(summary.has_value()) << "failed " << c.failed;
    EXPECT_EQ(summary->helper_mask, c.helper_mask) << "failed " << c.failed;
    EXPECT_EQ(summary->fetch_rows, c.fetch_rows) << "failed " << c.failed;
    // Execute the repair from the pinned survivor bytes alone.
    std::vector<NodeId> helpers;
    std::vector<Symbol> symbols;
    for (NodeId s = 0; s < 10; ++s) {
      if (c.helper_mask >> s & 1) {
        helpers.push_back(s);
        symbols.push_back(from_hex(kLrcSymbols[s]));
      }
    }
    for (const auto tier : available_tiers()) {
      gf::kernels::ScopedTierForTesting guard(tier);
      EXPECT_EQ(to_hex(code->repair_symbol(c.failed, helpers, symbols)),
                kLrcSymbols[c.failed])
          << "failed " << c.failed << " tier " << gf::kernels::tier_name(tier);
    }
  }
}

// ---------------------------------------------------------------------------
// Golden repair vectors for the paper's (5,3) code: the minimal plans land
// exactly on the Sec. 1.2 identities (X2 = Y5 - Y4, Y4 = Y5 - X2,
// Y5 = Y4 + X2), each moving 2 symbols instead of the k=3 full decode.
// ---------------------------------------------------------------------------

const GoldenRepairCase kP53Repairs[] = {
    {0, 0x0e, 3},  // Y1 = X1: full decode from {Y2, Y3, Y4}
    {1, 0x18, 2},  // Y2 = X2 = Y5 - Y4
    {3, 0x12, 2},  // Y4 = Y5 - X2
    {4, 0x0a, 2},  // Y5 = Y4 + X2
};

TEST(GoldenVectorsTest, Paper53RepairMatchesGolden) {
  const auto code = make_paper_5_3(8);
  for (const GoldenRepairCase& c : kP53Repairs) {
    const auto summary = code->plan_symbol_repair(c.failed, 1u << c.failed);
    ASSERT_TRUE(summary.has_value()) << "failed " << c.failed;
    EXPECT_EQ(summary->helper_mask, c.helper_mask) << "failed " << c.failed;
    EXPECT_EQ(summary->fetch_rows, c.fetch_rows) << "failed " << c.failed;
    std::vector<NodeId> helpers;
    std::vector<Symbol> symbols;
    for (NodeId s = 0; s < 5; ++s) {
      if (c.helper_mask >> s & 1) {
        helpers.push_back(s);
        symbols.push_back(from_hex(kP53Symbols[s]));
      }
    }
    EXPECT_EQ(to_hex(code->repair_symbol(c.failed, helpers, symbols)),
              kP53Symbols[c.failed])
        << "failed " << c.failed;
  }
}

}  // namespace
}  // namespace causalec::erasure
