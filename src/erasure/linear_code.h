// Concrete generator-matrix linear codes over a field F.
//
// Each server i is assigned an m_i x K coefficient matrix C_i; its codeword
// symbol is the stack of the m_i linear combinations sum_k C_i[r][k] * x_k.
// m_i = 1 is the common case (one combination per server, e.g. Reed-Solomon
// or the paper's cross-object examples); m_i > 1 expresses partial
// replication and other multi-symbol layouts; m_i = 0 means the server
// stores nothing.
//
// Minimal recovery sets are enumerated by Gaussian elimination at
// construction time; decode and repair plans (erasure/plan.h) are built
// lazily by one builder and memoized per code. Re-encode coefficient rows
// (Gamma_{i,k}) are flattened per (server, object) at construction. Every
// byte of payload arithmetic -- encode, re-encode, decode and repair --
// goes through one private combiner, combine_into().
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <sstream>
#include <type_traits>
#include <vector>

#include "common/expect.h"
#include "erasure/code.h"
#include "erasure/plan.h"
#include "gf/field.h"
#include "gf/vector_ops.h"
#include "linalg/gaussian.h"
#include "linalg/matrix.h"

namespace causalec::erasure {

namespace detail {

/// Pack/unpack field elements <-> little-endian bytes.
template <gf::Field F>
void unpack(std::span<const std::uint8_t> bytes,
            std::span<typename F::Elem> out) {
  constexpr std::size_t eb = F::kElemBytes;
  CEC_DCHECK(bytes.size() == out.size() * eb);
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < eb; ++b) {
      v |= static_cast<std::uint64_t>(bytes[i * eb + b]) << (8 * b);
    }
    out[i] = static_cast<typename F::Elem>(v);
  }
}

template <gf::Field F>
void pack(std::span<const typename F::Elem> elems,
          std::span<std::uint8_t> bytes) {
  constexpr std::size_t eb = F::kElemBytes;
  CEC_DCHECK(bytes.size() == elems.size() * eb);
  for (std::size_t i = 0; i < elems.size(); ++i) {
    auto v = static_cast<std::uint64_t>(elems[i]);
    for (std::size_t b = 0; b < eb; ++b) {
      bytes[i * eb + b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
  }
}

}  // namespace detail

template <gf::Field F>
class LinearCodeT final : public Code {
 public:
  using Matrix = linalg::Matrix<F>;
  using Elem = typename F::Elem;
  using PlanT = Plan<Elem>;
  using PlanPtr = std::shared_ptr<const PlanT>;

  /// One coefficient matrix per server; every matrix must have K columns.
  /// value_bytes must be a multiple of the field element size.
  LinearCodeT(std::vector<Matrix> server_matrices, std::size_t value_bytes,
              std::string name = "linear-code")
      : matrices_(std::move(server_matrices)),
        value_bytes_(value_bytes),
        name_(std::move(name)) {
    CEC_CHECK(!matrices_.empty());
    CEC_CHECK_MSG(matrices_.size() <= 16,
                  "recovery-set enumeration supports at most 16 servers");
    k_ = matrices_.front().cols();
    CEC_CHECK(k_ >= 1 && k_ <= 63);
    CEC_CHECK(value_bytes_ > 0 && value_bytes_ % F::kElemBytes == 0);
    elems_per_value_ = value_bytes_ / F::kElemBytes;
    for (const auto& m : matrices_) CEC_CHECK(m.cols() == k_);
    build_supports();
    build_reencode_plans();
    build_recovery_sets();
  }

  /// Convenience: one row per server, given as a stacked N x K matrix.
  static std::shared_ptr<LinearCodeT> one_row_per_server(
      const Matrix& stacked, std::size_t value_bytes,
      std::string name = "linear-code") {
    std::vector<Matrix> per_server;
    per_server.reserve(stacked.rows());
    for (std::size_t i = 0; i < stacked.rows(); ++i) {
      Matrix row(1, stacked.cols());
      for (std::size_t j = 0; j < stacked.cols(); ++j) {
        row(0, j) = stacked(i, j);
      }
      per_server.push_back(std::move(row));
    }
    return std::make_shared<LinearCodeT>(std::move(per_server), value_bytes,
                                         std::move(name));
  }

  std::size_t num_servers() const override { return matrices_.size(); }
  std::size_t num_objects() const override { return k_; }
  std::size_t value_bytes() const override { return value_bytes_; }

  std::size_t symbol_bytes(NodeId server) const override {
    return matrix(server).rows() * value_bytes_;
  }

  Symbol encode(NodeId server, std::span<const Value> values) const override {
    CEC_CHECK(values.size() == k_);
    const Matrix& c = matrix(server);
    Symbol out(symbol_bytes(server), 0);
    std::vector<RowTerm> terms;
    terms.reserve(k_);
    for (std::size_t r = 0; r < c.rows(); ++r) {
      terms.clear();
      for (std::size_t k = 0; k < k_; ++k) {
        if (c(r, k) == F::zero) continue;
        CEC_CHECK(values[k].size() == value_bytes_);
        terms.push_back({c(r, k), values[k].span()});
      }
      combine_into(out.mutable_span().subspan(r * value_bytes_, value_bytes_),
                   terms);
    }
    return out;
  }

  void reencode_batch(NodeId server, Symbol& symbol,
                      std::span<const ReencodeEntry> entries) const override {
    CEC_CHECK(server < num_servers());
    CEC_CHECK(symbol.size() == symbol_bytes(server));
    const auto& plans = reencode_plans_[server];
    bool changes = false;
    for (const ReencodeEntry& e : entries) {
      CEC_CHECK(e.object < k_);
      CEC_CHECK(e.old_value.empty() || e.old_value.size() == value_bytes_);
      CEC_CHECK(e.new_value.empty() || e.new_value.size() == value_bytes_);
      changes = changes || (!plans[e.object].empty() &&
                            !(e.old_value.empty() && e.new_value.empty()));
    }
    // Nothing to fold in (no entry, objects outside X_i, or zero to zero):
    // return before unsharing, or a val_inq answered with the symbol as it
    // is would copy the whole symbol for nothing.
    if (!changes) return;
    // Unshare before any term is built, so no source aliases a symbol
    // arena that is still shared (the kernels' overlap CHECK).
    const std::span<std::uint8_t> sym = symbol.mutable_span();

    // Gamma_{i,k}: each step of an entry's object adds coeff * (new - old)
    // to its row, fed to the combiner as two terms, (coeff, new) and
    // (-coeff, old); in characteristic 2, -coeff == coeff. An empty value
    // is the zero vector and adds no term. Each row is streamed once per
    // batch, however many entries touch it.
    std::vector<RowTerm> terms;
    terms.reserve(2 * entries.size());
    for (std::size_t r = 0; r < matrix(server).rows(); ++r) {
      terms.clear();
      for (const ReencodeEntry& e : entries) {
        for (const ReencodeStep& step : plans[e.object]) {
          if (step.row != r) continue;
          if (!e.new_value.empty()) terms.push_back({step.coeff, e.new_value});
          if (!e.old_value.empty()) {
            terms.push_back({F::neg(step.coeff), e.old_value});
          }
        }
      }
      if (terms.empty()) continue;
      combine_into(sym.subspan(r * value_bytes_, value_bytes_), terms);
    }
  }

  Value decode(ObjectId object, std::span<const NodeId> servers,
               std::span<const Symbol> symbols) const override {
    CEC_CHECK(object < k_);
    CEC_CHECK(servers.size() == symbols.size());
    std::uint32_t mask = 0;
    for (NodeId s : servers) {
      CEC_CHECK(s < num_servers());
      mask |= 1u << s;
    }
    return apply_plan(*decode_plan(object, mask), servers, symbols);
  }

  const std::vector<RecoverySet>& recovery_sets(
      ObjectId object) const override {
    CEC_CHECK(object < k_);
    return recovery_sets_[object];
  }

  const std::vector<ObjectId>& support(NodeId server) const override {
    CEC_CHECK(server < num_servers());
    return supports_[server];
  }

  bool contains(NodeId server, ObjectId object) const override {
    CEC_CHECK(server < num_servers() && object < k_);
    return support_masks_[server] >> object & 1;
  }

  bool is_recovery_set(ObjectId object,
                       std::span<const NodeId> servers) const override {
    CEC_CHECK(object < k_);
    std::uint32_t mask = 0;
    for (NodeId s : servers) {
      CEC_CHECK(s < num_servers());
      mask |= 1u << s;
    }
    for (std::uint32_t minimal : recovery_masks_[object]) {
      if ((mask & minimal) == minimal) return true;
    }
    return false;
  }

  bool is_local(NodeId server, ObjectId object) const override {
    CEC_CHECK(server < num_servers() && object < k_);
    return local_[object] >> server & 1;
  }

  std::string describe() const override {
    std::ostringstream oss;
    oss << name_ << " (N=" << num_servers() << ", K=" << k_
        << ", B=" << value_bytes_ << ")";
    return oss.str();
  }

  PlanCacheStats decode_plan_cache_stats() const override {
    return decode_cache_.stats();
  }

  PlanCacheStats repair_plan_cache_stats() const override {
    return repair_cache_.stats();
  }

  /// Direct coefficient access for analytics and tests.
  const Matrix& matrix(NodeId server) const {
    CEC_CHECK(server < matrices_.size());
    return matrices_[server];
  }

  /// Test/tooling control of both plan caches (per code instance).
  void set_plan_cache_enabled(bool enabled) const {
    decode_cache_.set_enabled(enabled);
    repair_cache_.set_enabled(enabled);
  }

  /// Execute a plan against provided symbols (parallel spans that must
  /// cover the plan's helper mask): one output row per program, so a
  /// decode plan yields a value and a symbol-repair plan a whole symbol.
  Symbol apply_plan(const PlanT& plan, std::span<const NodeId> servers,
                    std::span<const Symbol> symbols) const {
    Symbol out(plan.row_ops.size() * value_bytes_, 0);
    std::vector<RowTerm> terms;
    terms.reserve(plan.fetches.size());  // a program reads a fetch once
    for (std::size_t r = 0; r < plan.row_ops.size(); ++r) {
      terms.clear();
      for (const auto& op : plan.row_ops[r]) {
        const PlanFetch& fetch = plan.fetches[op.fetch];
        const Symbol& sym = symbols[locate_server(servers, fetch.server)];
        CEC_CHECK_MSG(sym.size() == symbol_bytes(fetch.server),
                      "plan: bad symbol size from server " << fetch.server);
        terms.push_back({op.coeff, sym.span().subspan(
                                       fetch.row * value_bytes_,
                                       value_bytes_)});
      }
      combine_into(out.mutable_span().subspan(r * value_bytes_, value_bytes_),
                   terms);
    }
    return out;
  }

  // -- Decode plans -----------------------------------------------------------

  /// The plan decode() would use for (object, provided-server mask):
  /// cache lookup, lazily computing and inserting on a miss. CHECK-fails
  /// when the mask contains no recovery set.
  PlanPtr decode_plan(ObjectId object, std::uint32_t provided_mask) const {
    CEC_CHECK(object < k_);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(object) << 32) | provided_mask;
    return decode_cache_.get(key, [&] {
      PlanPtr plan = compute_plan_fresh(object, provided_mask);
      CEC_CHECK_MSG(plan != nullptr,
                    "decode: servers do not form a recovery set for X"
                        << object);
      return plan;
    });
  }

  /// Fresh Gaussian elimination over the first minimal recovery set inside
  /// the mask, bypassing the cache entirely (the differential tests pin
  /// cached plans against this). nullptr when the mask contains no
  /// recovery set.
  PlanPtr compute_plan_fresh(ObjectId object,
                             std::uint32_t provided_mask) const {
    CEC_CHECK(object < k_);
    for (std::uint32_t minimal : recovery_masks_[object]) {
      if ((provided_mask & minimal) != minimal) continue;
      Matrix unit(1, k_);
      unit(0, object) = F::one;
      return build_plan(minimal, unit, /*trim=*/true);
    }
    return nullptr;
  }

  // -- Repair plans -----------------------------------------------------------

  std::optional<RepairPlanSummary> plan_object_repair(
      ObjectId object, std::uint32_t erased_mask,
      NodeId local) const override {
    const PlanPtr plan = object_repair_plan(object, erased_mask, local,
                                            RepairStrategy::kMinimalFetch);
    if (plan == nullptr) return std::nullopt;
    // The baseline picks among the same surviving sets, so it exists too.
    const PlanPtr full = object_repair_plan(object, erased_mask, local,
                                            RepairStrategy::kFullDecode);
    CEC_DCHECK(full != nullptr);
    // An object plan fetches every row of its helpers but the reader's own.
    const std::uint32_t remote = ~(1u << local);
    return summarize(plan->helper_mask, erased_mask,
                     rows_in_mask(plan->helper_mask & remote),
                     rows_in_mask(full->helper_mask & remote));
  }

  std::optional<RepairPlanSummary> plan_symbol_repair(
      NodeId failed, std::uint32_t erased_mask) const override {
    const PlanPtr plan = symbol_repair_plan(failed, erased_mask,
                                            RepairStrategy::kMinimalFetch);
    if (plan == nullptr) return std::nullopt;
    const PlanPtr full = symbol_repair_plan(failed, erased_mask,
                                            RepairStrategy::kFullDecode);
    return summarize(plan->helper_mask, erased_mask, plan->fetches.size(),
                     full != nullptr ? full->fetches.size()
                                     : plan->fetches.size());
  }

  Symbol repair_symbol(NodeId failed, std::span<const NodeId> servers,
                       std::span<const Symbol> symbols) const override {
    CEC_CHECK(failed < num_servers());
    CEC_CHECK(servers.size() == symbols.size());
    std::uint32_t provided = 0;
    for (NodeId s : servers) {
      CEC_CHECK(s < num_servers());
      CEC_CHECK_MSG(s != failed, "repair_symbol: failed server provided");
      provided |= 1u << s;
    }
    const std::uint32_t erased = all_servers_mask() & ~provided;
    const PlanPtr plan =
        symbol_repair_plan(failed, erased, RepairStrategy::kMinimalFetch);
    CEC_CHECK_MSG(plan != nullptr,
                  "repair_symbol: survivors cannot rebuild server "
                      << failed);
    return apply_plan(*plan, servers, symbols);
  }

  /// Cached lookup of the symbol-repair plan for (failed, erased, strategy):
  /// one program per row of `failed`'s symbol over a surviving helper set.
  /// nullptr when no survivors span the failed symbol.
  PlanPtr symbol_repair_plan(NodeId failed, std::uint32_t erased_mask,
                             RepairStrategy strategy) const {
    CEC_CHECK(failed < num_servers());
    return repair_cache_.get(
        repair_key(/*symbol_kind=*/true, strategy, failed, failed,
                   erased_mask),
        [&] {
          return compute_symbol_repair_fresh(failed, erased_mask, strategy);
        });
  }

  /// Cached lookup of the object-repair plan for (object, erased, local,
  /// strategy): only the helper mask -- decode() executes the math once the
  /// fetched symbols arrive. nullptr when the erasure pattern leaves no
  /// surviving recovery set.
  PlanPtr object_repair_plan(ObjectId object, std::uint32_t erased_mask,
                             NodeId local, RepairStrategy strategy) const {
    CEC_CHECK(object < k_);
    CEC_CHECK(local < num_servers());
    return repair_cache_.get(
        repair_key(/*symbol_kind=*/false, strategy, object, local,
                   erased_mask),
        [&] {
          return compute_object_repair_fresh(object, erased_mask, local,
                                             strategy);
        });
  }

  /// Fresh symbol-repair planning, bypassing the cache (the differential
  /// tests pin cached plans against this). Helper candidates are enumerated
  /// over the survivors in (total rows, popcount, value) order, so the
  /// first spanning set is fetch-minimal; kMinimalFetch then drops any
  /// fetched row no output program references, kFullDecode instead takes
  /// the first full-rank set (decode everything, then re-encode) and keeps
  /// all of its rows.
  PlanPtr compute_symbol_repair_fresh(NodeId failed, std::uint32_t erased_mask,
                                      RepairStrategy strategy) const {
    CEC_CHECK(failed < num_servers());
    CEC_CHECK((erased_mask & ~all_servers_mask()) == 0);
    const std::uint32_t available =
        all_servers_mask() & ~erased_mask & ~(1u << failed);
    const Matrix& target = matrices_[failed];
    if (target.rows() == 0) {
      // The failed server stores nothing: an empty plan rebuilds it.
      return std::make_shared<const PlanT>();
    }
    const bool full_decode = strategy == RepairStrategy::kFullDecode;
    const std::size_t min_rows = full_decode ? k_ : linalg::rank<F>(target);
    for (const std::uint32_t mask : candidate_masks(available)) {
      if (rows_in_mask(mask) < min_rows) continue;
      const Matrix sub = stack_subset(mask);
      if (full_decode) {
        if (linalg::rank<F>(sub) != k_) continue;
      } else {
        // Spans iff appending the failed rows does not raise the rank.
        Matrix joint(sub.rows() + target.rows(), k_);
        for (std::size_t r = 0; r < sub.rows(); ++r) {
          for (std::size_t c = 0; c < k_; ++c) joint(r, c) = sub(r, c);
        }
        for (std::size_t r = 0; r < target.rows(); ++r) {
          for (std::size_t c = 0; c < k_; ++c) {
            joint(sub.rows() + r, c) = target(r, c);
          }
        }
        if (linalg::rank<F>(joint) != linalg::rank<F>(sub)) continue;
      }
      return build_plan(mask, target, /*trim=*/!full_decode);
    }
    return nullptr;
  }

  /// Fresh object-repair planning, bypassing the cache. kMinimalFetch picks
  /// the surviving recovery set with the fewest rows `local` does not
  /// already hold; kFullDecode takes the first surviving set in the stored
  /// (size, lexicographic) order.
  PlanPtr compute_object_repair_fresh(ObjectId object,
                                      std::uint32_t erased_mask, NodeId local,
                                      RepairStrategy strategy) const {
    CEC_CHECK(object < k_);
    CEC_CHECK((erased_mask & ~all_servers_mask()) == 0);
    std::uint32_t best = 0;
    std::size_t best_cost = 0;
    for (const std::uint32_t mask : recovery_masks_[object]) {
      if ((mask & erased_mask) != 0) continue;
      if (strategy == RepairStrategy::kFullDecode) {
        best = mask;
        break;
      }
      const std::size_t cost = rows_in_mask(mask & ~(1u << local));
      if (best == 0 || cost < best_cost) {
        best = mask;
        best_cost = cost;
      }
    }
    if (best == 0) return nullptr;
    auto plan = std::make_shared<PlanT>();
    plan->helper_mask = best;
    return plan;
  }

 private:
  struct ReencodeStep {
    std::uint32_t row;  // row of the server's symbol
    Elem coeff;         // C_i[row][object], nonzero
  };

  /// coeff * one packed row (value_bytes_ bytes) of a value or symbol. For
  /// GF(2^8) bytes already are field elements, so this is the kernel's own
  /// term type and combine_into() hands the terms over as they are.
  struct ByteTerm {
    Elem coeff;
    std::span<const std::uint8_t> src;
  };
  using RowTerm = std::conditional_t<std::is_same_v<F, gf::GF256>,
                                     gf::AxpyTerm<F>, ByteTerm>;

  /// row += sum of coeff * src over F: the one place payload bytes meet
  /// the field. GF(2^8) runs the fused multi-axpy straight into the row;
  /// other fields unpack the row and each source, accumulate, and pack.
  void combine_into(std::span<std::uint8_t> row,
                    std::span<const RowTerm> terms) const {
    if constexpr (std::is_same_v<F, gf::GF256>) {
      gf::axpy_batch<F>(row, terms);
    } else {
      std::vector<Elem> acc(elems_per_value_);
      std::vector<Elem> src(elems_per_value_);
      detail::unpack<F>(row, std::span<Elem>(acc));
      for (const RowTerm& term : terms) {
        detail::unpack<F>(term.src, std::span<Elem>(src));
        gf::axpy<F>(std::span<Elem>(acc), term.coeff,
                    std::span<const Elem>(src));
      }
      detail::pack<F>(std::span<const Elem>(acc), row);
    }
  }

  /// The one plan builder: express each row of `target` in the row space
  /// of the servers in `mask` and flatten the nonzero coefficients into
  /// fetches and per-row programs. `trim` drops fetched rows no program
  /// references; otherwise every row of the set is fetched (the decode-all
  /// baseline pays for all of them).
  PlanPtr build_plan(std::uint32_t mask, const Matrix& target,
                     bool trim) const {
    const Matrix sub = stack_subset(mask);
    std::vector<PlanFetch> rows;
    for (NodeId s = 0; s < num_servers(); ++s) {
      if (!(mask >> s & 1)) continue;
      for (std::size_t r = 0; r < matrices_[s].rows(); ++r) {
        rows.push_back({s, static_cast<std::uint32_t>(r)});
      }
    }
    std::vector<bool> used(rows.size(), false);
    std::vector<std::vector<std::pair<std::uint32_t, Elem>>> programs(
        target.rows());
    std::vector<Elem> t(k_);
    for (std::size_t r = 0; r < target.rows(); ++r) {
      for (std::size_t c = 0; c < k_; ++c) t[c] = target(r, c);
      const auto lambda = linalg::express_in_row_space<F>(
          sub, std::span<const Elem>(t));
      CEC_CHECK_MSG(lambda.has_value(), "plan: helper set lost its span");
      for (std::size_t i = 0; i < lambda->size(); ++i) {
        if ((*lambda)[i] == F::zero) continue;
        programs[r].push_back({static_cast<std::uint32_t>(i), (*lambda)[i]});
        used[i] = true;
      }
    }
    auto plan = std::make_shared<PlanT>();
    std::vector<std::uint32_t> remap(rows.size(), 0);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!trim || used[i]) {
        remap[i] = static_cast<std::uint32_t>(plan->fetches.size());
        plan->fetches.push_back(rows[i]);
        plan->helper_mask |= 1u << rows[i].server;
      }
    }
    plan->row_ops.resize(target.rows());
    for (std::size_t r = 0; r < target.rows(); ++r) {
      for (const auto& [i, coeff] : programs[r]) {
        plan->row_ops[r].push_back({remap[i], coeff});
      }
    }
    return plan;
  }

  /// Repair cache key layout, shared by object and symbol lookups:
  ///   kind(1) | strategy(1) | target(8) | local(8) | erased_mask(16).
  static std::uint64_t repair_key(bool symbol_kind, RepairStrategy strategy,
                                  std::uint32_t target, std::uint32_t local,
                                  std::uint32_t erased_mask) {
    return (static_cast<std::uint64_t>(symbol_kind) << 63) |
           (static_cast<std::uint64_t>(strategy) << 62) |
           (static_cast<std::uint64_t>(target & 0xFF) << 32) |
           (static_cast<std::uint64_t>(local & 0xFF) << 24) |
           static_cast<std::uint64_t>(erased_mask & 0xFFFF);
  }

  RepairPlanSummary summarize(std::uint32_t helper_mask,
                              std::uint32_t erased_mask,
                              std::size_t fetch_rows,
                              std::size_t full_decode_rows) const {
    RepairPlanSummary s;
    s.helper_mask = helper_mask;
    s.erased_mask = erased_mask;
    s.fetch_rows = fetch_rows;
    s.fetch_bytes = fetch_rows * value_bytes_;
    s.full_decode_rows = full_decode_rows;
    s.full_decode_bytes = full_decode_rows * value_bytes_;
    return s;
  }

  std::uint32_t all_servers_mask() const {
    return (1u << num_servers()) - 1;
  }

  std::size_t locate_server(std::span<const NodeId> servers,
                            NodeId server) const {
    for (std::size_t i = 0; i < servers.size(); ++i) {
      if (servers[i] == server) return i;
    }
    CEC_CHECK_MSG(false, "server " << server << " not provided");
    return servers.size();
  }

  std::size_t rows_in_mask(std::uint32_t mask) const {
    std::size_t rows = 0;
    for (NodeId s = 0; s < num_servers(); ++s) {
      if (mask >> s & 1) rows += matrices_[s].rows();
    }
    return rows;
  }

  /// All nonzero submasks of `available` ordered by (total rows, popcount,
  /// value), so the first spanning candidate is fetch-minimal.
  std::vector<std::uint32_t> candidate_masks(std::uint32_t available) const {
    std::vector<std::uint32_t> masks;
    for (std::uint32_t m = available; m != 0; m = (m - 1) & available) {
      masks.push_back(m);
    }
    std::sort(masks.begin(), masks.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                const std::size_t ra = rows_in_mask(a), rb = rows_in_mask(b);
                if (ra != rb) return ra < rb;
                const int pa = std::popcount(a), pb = std::popcount(b);
                return pa != pb ? pa < pb : a < b;
              });
    return masks;
  }

  void build_supports() {
    supports_.resize(num_servers());
    support_masks_.assign(num_servers(), 0);
    for (NodeId s = 0; s < num_servers(); ++s) {
      const Matrix& m = matrices_[s];
      for (ObjectId k = 0; k < k_; ++k) {
        bool nonzero = false;
        for (std::size_t r = 0; r < m.rows(); ++r) {
          if (m(r, k) != F::zero) {
            nonzero = true;
            break;
          }
        }
        if (nonzero) {
          supports_[s].push_back(k);
          support_masks_[s] |= 1ull << k;
        }
      }
    }
  }

  /// Gamma_{i,k} flattened: the nonzero column-k coefficients of each
  /// server matrix, bound to their rows, so reencode_batch() touches
  /// exactly the affected symbol rows without scanning the matrix.
  void build_reencode_plans() {
    reencode_plans_.resize(num_servers());
    for (NodeId s = 0; s < num_servers(); ++s) {
      const Matrix& m = matrices_[s];
      reencode_plans_[s].resize(k_);
      for (ObjectId k = 0; k < k_; ++k) {
        for (std::size_t r = 0; r < m.rows(); ++r) {
          if (m(r, k) == F::zero) continue;
          reencode_plans_[s][k].push_back(
              {static_cast<std::uint32_t>(r), m(r, k)});
        }
      }
    }
  }

  /// Stack the rows of the servers in `mask` (server ascending order).
  Matrix stack_subset(std::uint32_t mask) const {
    Matrix out(rows_in_mask(mask), k_);
    std::size_t r = 0;
    for (NodeId s = 0; s < num_servers(); ++s) {
      if (!(mask >> s & 1)) continue;
      const Matrix& m = matrices_[s];
      for (std::size_t lr = 0; lr < m.rows(); ++lr, ++r) {
        for (std::size_t c = 0; c < k_; ++c) out(r, c) = m(lr, c);
      }
    }
    return out;
  }

  void build_recovery_sets() {
    const std::size_t n = num_servers();
    recovery_sets_.resize(k_);
    recovery_masks_.resize(k_);
    local_.assign(k_, 0);
    // Candidate masks sorted by popcount then value -> minimal sets found
    // in (size, lexicographic-ish) order; supersets of found sets skipped.
    std::vector<std::uint32_t> masks;
    masks.reserve((1u << n) - 1);
    for (std::uint32_t m = 1; m < (1u << n); ++m) masks.push_back(m);
    std::sort(masks.begin(), masks.end(), [](std::uint32_t a, std::uint32_t b) {
      const int pa = std::popcount(a), pb = std::popcount(b);
      return pa != pb ? pa < pb : a < b;
    });

    std::vector<Elem> target(k_);
    for (ObjectId obj = 0; obj < k_; ++obj) {
      std::fill(target.begin(), target.end(), F::zero);
      target[obj] = F::one;
      for (std::uint32_t mask : masks) {
        bool superset = false;
        for (std::uint32_t f : recovery_masks_[obj]) {
          if ((mask & f) == f) {
            superset = true;
            break;
          }
        }
        if (superset) continue;
        const Matrix sub = stack_subset(mask);
        if (!linalg::in_row_space<F>(sub, std::span<const Elem>(target))) {
          continue;
        }
        recovery_masks_[obj].push_back(mask);
        RecoverySet servers;
        for (NodeId s = 0; s < n; ++s) {
          if (mask >> s & 1) servers.push_back(s);
        }
        if (servers.size() == 1) local_[obj] |= 1ull << servers[0];
        recovery_sets_[obj].push_back(std::move(servers));
      }
      CEC_CHECK_MSG(!recovery_sets_[obj].empty(),
                    "object X" << obj << " is not recoverable from any "
                               << "subset: code is not a storage code");
    }
  }

  std::vector<Matrix> matrices_;
  std::size_t value_bytes_;
  std::string name_;
  std::size_t k_ = 0;
  std::size_t elems_per_value_ = 0;
  std::vector<std::vector<ObjectId>> supports_;
  std::vector<std::uint64_t> support_masks_;
  std::vector<std::vector<std::vector<ReencodeStep>>> reencode_plans_;
  std::vector<std::vector<RecoverySet>> recovery_sets_;
  std::vector<std::vector<std::uint32_t>> recovery_masks_;  // minimal, per obj
  std::vector<std::uint64_t> local_;  // per object: bitmask of local servers
  mutable PlanCache<Elem> decode_cache_;
  mutable PlanCache<Elem> repair_cache_;
};

}  // namespace causalec::erasure
