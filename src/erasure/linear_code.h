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
// construction time; the decoding coefficients themselves are computed
// lazily, once per (object, provided-server mask), and memoized in a
// DecodePlanCache (erasure/plan_cache.h). Re-encode coefficient rows
// (Gamma_{i,k}) are flattened per (server, object) at construction.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <sstream>
#include <vector>

#include "common/expect.h"
#include "erasure/code.h"
#include "erasure/plan_cache.h"
#include "erasure/repair_plan.h"
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
  using Plan = DecodePlan<Elem>;
  using PlanPtr = std::shared_ptr<const Plan>;

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
    build_stacked();
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
    std::vector<Elem> acc(elems_per_value_);
    std::vector<Elem> val(elems_per_value_);
    std::vector<gf::AxpyTerm<F>> terms;
    for (std::size_t r = 0; r < c.rows(); ++r) {
      auto out_row =
          out.mutable_span().subspan(r * value_bytes_, value_bytes_);
      if constexpr (std::is_same_v<F, gf::GF256>) {
        // GF(2^8): fused multi-axpy straight from the object values into
        // the (already zeroed) output row, no unpack/pack.
        terms.clear();
        for (std::size_t k = 0; k < k_; ++k) {
          if (c(r, k) == F::zero) continue;
          CEC_CHECK(values[k].size() == value_bytes_);
          terms.push_back({c(r, k), values[k].span()});
        }
        gf::axpy_batch<F>(out_row, std::span<const gf::AxpyTerm<F>>(terms));
      } else {
        gf::set_zero<F>(std::span<Elem>(acc));
        for (std::size_t k = 0; k < k_; ++k) {
          if (c(r, k) == F::zero) continue;
          CEC_CHECK(values[k].size() == value_bytes_);
          detail::unpack<F>(values[k], std::span<Elem>(val));
          gf::axpy<F>(std::span<Elem>(acc), c(r, k),
                      std::span<const Elem>(val));
        }
        detail::pack<F>(std::span<const Elem>(acc), out_row);
      }
    }
    return out;
  }

  void reencode(NodeId server, Symbol& symbol, ObjectId object,
                std::span<const std::uint8_t> old_value,
                std::span<const std::uint8_t> new_value) const override {
    CEC_CHECK(server < num_servers());
    CEC_CHECK(symbol.size() == symbol_bytes(server));
    CEC_CHECK(object < k_);
    CEC_CHECK(old_value.empty() || old_value.size() == value_bytes_);
    CEC_CHECK(new_value.empty() || new_value.size() == value_bytes_);
    const auto& steps = reencode_plans_[server][object];
    if (steps.empty()) return;  // object not in X_i: symbol unchanged
    // delta = new - old over F^d.
    std::vector<Elem> delta(elems_per_value_, F::zero);
    std::vector<Elem> tmp(elems_per_value_);
    if (!new_value.empty()) {
      detail::unpack<F>(new_value, std::span<Elem>(delta));
    }
    if (!old_value.empty()) {
      detail::unpack<F>(old_value, std::span<Elem>(tmp));
      gf::sub_into<F>(std::span<Elem>(delta), std::span<const Elem>(tmp));
    }
    if (gf::is_zero<F>(std::span<const Elem>(delta))) return;
    std::vector<Elem> row(elems_per_value_);
    const std::span<std::uint8_t> symbol_bytes = symbol.mutable_span();
    for (const ReencodeStep& step : steps) {
      auto row_bytes =
          symbol_bytes.subspan(step.row * value_bytes_, value_bytes_);
      detail::unpack<F>(row_bytes, std::span<Elem>(row));
      gf::axpy<F>(std::span<Elem>(row), step.coeff,
                  std::span<const Elem>(delta));
      detail::pack<F>(std::span<const Elem>(row), row_bytes);
    }
  }

  void reencode_batch(NodeId server, Symbol& symbol,
                      std::span<const ReencodeEntry> entries) const override {
    if (entries.size() <= 1) {
      for (const ReencodeEntry& e : entries) {
        reencode(server, symbol, e.object, e.old_value, e.new_value);
      }
      return;
    }
    CEC_CHECK(server < num_servers());
    CEC_CHECK(symbol.size() == symbol_bytes(server));
    const auto& plans = reencode_plans_[server];
    for (const ReencodeEntry& e : entries) {
      CEC_CHECK(e.object < k_);
      CEC_CHECK(e.old_value.empty() || e.old_value.size() == value_bytes_);
      CEC_CHECK(e.new_value.empty() || e.new_value.size() == value_bytes_);
    }
    const std::size_t num_rows = matrix(server).rows();
    const std::span<std::uint8_t> sym = symbol.mutable_span();

    if constexpr (std::is_same_v<F, gf::GF256>) {
      // GF(2^8): values already are element vectors, and in characteristic
      // 2 coeff * (new - old) == coeff * new + coeff * old, so each entry
      // feeds its old and new bytes to the fused multi-axpy directly -- no
      // delta buffer, no unpack/pack, and each destination row is streamed
      // once per batch instead of once per entry.
      std::vector<gf::AxpyTerm<F>> terms;
      terms.reserve(2 * entries.size());
      for (std::size_t r = 0; r < num_rows; ++r) {
        terms.clear();
        for (const ReencodeEntry& e : entries) {
          for (const ReencodeStep& step : plans[e.object]) {
            if (step.row != r) continue;
            if (!e.new_value.empty()) {
              terms.push_back({step.coeff, e.new_value});
            }
            if (!e.old_value.empty()) {
              terms.push_back({step.coeff, e.old_value});
            }
          }
        }
        if (terms.empty()) continue;
        gf::axpy_batch<F>(sym.subspan(r * value_bytes_, value_bytes_),
                          std::span<const gf::AxpyTerm<F>>(terms));
      }
      return;
    } else {
      // Generic fields: materialize delta = new - old per entry (packing
      // is not the identity), then fuse the per-row axpys over the
      // unpacked row.
      std::vector<std::vector<Elem>> deltas;
      std::vector<const std::vector<ReencodeStep>*> steps;
      deltas.reserve(entries.size());
      steps.reserve(entries.size());
      std::vector<Elem> tmp(elems_per_value_);
      for (const ReencodeEntry& e : entries) {
        if (plans[e.object].empty()) continue;  // object not in X_i
        std::vector<Elem> delta(elems_per_value_, F::zero);
        if (!e.new_value.empty()) {
          detail::unpack<F>(e.new_value, std::span<Elem>(delta));
        }
        if (!e.old_value.empty()) {
          detail::unpack<F>(e.old_value, std::span<Elem>(tmp));
          gf::sub_into<F>(std::span<Elem>(delta), std::span<const Elem>(tmp));
        }
        if (gf::is_zero<F>(std::span<const Elem>(delta))) continue;
        deltas.push_back(std::move(delta));
        steps.push_back(&plans[e.object]);
      }
      if (deltas.empty()) return;
      std::vector<Elem> row(elems_per_value_);
      std::vector<gf::AxpyTerm<F>> terms;
      terms.reserve(deltas.size());
      for (std::size_t r = 0; r < num_rows; ++r) {
        terms.clear();
        for (std::size_t i = 0; i < deltas.size(); ++i) {
          for (const ReencodeStep& step : *steps[i]) {
            if (step.row != r) continue;
            terms.push_back({step.coeff, std::span<const Elem>(deltas[i])});
          }
        }
        if (terms.empty()) continue;
        auto row_bytes = sym.subspan(r * value_bytes_, value_bytes_);
        detail::unpack<F>(row_bytes, std::span<Elem>(row));
        gf::axpy_batch<F>(std::span<Elem>(row),
                          std::span<const gf::AxpyTerm<F>>(terms));
        detail::pack<F>(std::span<const Elem>(row), row_bytes);
      }
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
    const PlanPtr plan = decode_plan(object, mask);
    return apply_plan(*plan, servers, symbols);
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
    return plan_cache_.stats();
  }

  /// Direct coefficient access for analytics and tests.
  const Matrix& matrix(NodeId server) const {
    CEC_CHECK(server < matrices_.size());
    return matrices_[server];
  }

  /// The plan decode() would use for (object, provided-server mask):
  /// cache lookup, lazily computing and inserting on a miss. CHECK-fails
  /// when the mask contains no recovery set.
  PlanPtr decode_plan(ObjectId object, std::uint32_t provided_mask) const {
    CEC_CHECK(object < k_);
    if (PlanPtr cached = plan_cache_.find(object, provided_mask)) {
      return cached;
    }
    PlanPtr plan = compute_plan_fresh(object, provided_mask);
    CEC_CHECK_MSG(plan != nullptr,
                  "decode: servers do not form a recovery set for X"
                      << object);
    return plan_cache_.insert(object, provided_mask, std::move(plan));
  }

  /// Fresh Gaussian elimination, bypassing the cache entirely (the
  /// differential tests pin cached plans against this). nullptr when the
  /// mask contains no recovery set.
  PlanPtr compute_plan_fresh(ObjectId object,
                             std::uint32_t provided_mask) const {
    CEC_CHECK(object < k_);
    for (std::uint32_t minimal : recovery_masks_[object]) {
      if ((provided_mask & minimal) != minimal) continue;
      return std::make_shared<const Plan>(build_plan(object, minimal));
    }
    return nullptr;
  }

  /// Test/tooling control of the cache (per code instance).
  void set_plan_cache_enabled(bool enabled) const {
    plan_cache_.set_enabled(enabled);
  }

  // -- Repair planning (erasure/repair_plan.h) ------------------------------

  using RepairPlanT = RepairPlan<Elem>;
  using RepairPlanPtr = std::shared_ptr<const RepairPlanT>;

  std::optional<RepairPlanSummary> plan_object_repair(
      ObjectId object, std::uint32_t erased_mask,
      NodeId local) const override {
    const RepairPlanMode mode = repair_mode();
    if (mode == RepairPlanMode::kOff) return std::nullopt;
    const RepairStrategy strategy = mode == RepairPlanMode::kFullDecode
                                        ? RepairStrategy::kFullDecode
                                        : RepairStrategy::kMinimalFetch;
    const RepairPlanPtr plan =
        object_repair_plan(object, erased_mask, local, strategy);
    if (plan == nullptr) return std::nullopt;
    const RepairPlanPtr full = object_repair_plan(
        object, erased_mask, local, RepairStrategy::kFullDecode);
    return summarize(*plan, full.get(), erased_mask);
  }

  std::optional<RepairPlanSummary> plan_symbol_repair(
      NodeId failed, std::uint32_t erased_mask) const override {
    const RepairPlanMode mode = repair_mode();
    if (mode == RepairPlanMode::kOff) return std::nullopt;
    const RepairStrategy strategy = mode == RepairPlanMode::kFullDecode
                                        ? RepairStrategy::kFullDecode
                                        : RepairStrategy::kMinimalFetch;
    const RepairPlanPtr plan = symbol_repair_plan(failed, erased_mask,
                                                  strategy);
    if (plan == nullptr) return std::nullopt;
    const RepairPlanPtr full = symbol_repair_plan(
        failed, erased_mask, RepairStrategy::kFullDecode);
    return summarize(*plan, full.get(), erased_mask);
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
    const RepairPlanMode mode = repair_mode();
    const RepairStrategy strategy = mode == RepairPlanMode::kFullDecode
                                        ? RepairStrategy::kFullDecode
                                        : RepairStrategy::kMinimalFetch;
    const RepairPlanPtr plan = symbol_repair_plan(failed, erased, strategy);
    CEC_CHECK_MSG(plan != nullptr,
                  "repair_symbol: survivors cannot rebuild server "
                      << failed);
    return apply_repair_plan(*plan, failed, servers, symbols);
  }

  PlanCacheStats repair_plan_cache_stats() const override {
    return repair_cache_.stats();
  }

  /// Cached lookup of the symbol-repair plan for (failed, erased, strategy):
  /// the DAG rebuilding every row of `failed`'s symbol from a surviving
  /// helper set. nullptr when no survivors span the failed symbol.
  RepairPlanPtr symbol_repair_plan(NodeId failed, std::uint32_t erased_mask,
                                   RepairStrategy strategy) const {
    CEC_CHECK(failed < num_servers());
    const std::uint64_t key = RepairPlanCache<Elem>::key(
        /*symbol_kind=*/true, strategy, failed, failed, erased_mask);
    if (const auto cached = repair_cache_.find(key)) return *cached;
    return repair_cache_.insert(
        key, compute_symbol_repair_fresh(failed, erased_mask, strategy));
  }

  /// Cached lookup of the object-repair plan for (object, erased, local,
  /// strategy): a fetch-only plan (row_ops empty -- decode() executes the
  /// math once the fetched symbols arrive). nullptr when the erasure
  /// pattern leaves no surviving recovery set.
  RepairPlanPtr object_repair_plan(ObjectId object, std::uint32_t erased_mask,
                                   NodeId local,
                                   RepairStrategy strategy) const {
    CEC_CHECK(object < k_);
    CEC_CHECK(local < num_servers());
    const std::uint64_t key = RepairPlanCache<Elem>::key(
        /*symbol_kind=*/false, strategy, object, local, erased_mask);
    if (const auto cached = repair_cache_.find(key)) return *cached;
    return repair_cache_.insert(
        key, compute_object_repair_fresh(object, erased_mask, local,
                                         strategy));
  }

  /// Fresh symbol-repair planning, bypassing the cache (the differential
  /// tests pin cached plans against this). Helper candidates are enumerated
  /// over the survivors in (total rows, popcount, value) order, so the
  /// first spanning set is fetch-minimal; kMinimalFetch then drops any
  /// fetched row no output program references, kFullDecode instead takes
  /// the first full-rank set (decode everything, then re-encode) and keeps
  /// all of its rows.
  RepairPlanPtr compute_symbol_repair_fresh(NodeId failed,
                                            std::uint32_t erased_mask,
                                            RepairStrategy strategy) const {
    CEC_CHECK(failed < num_servers());
    CEC_CHECK((erased_mask & ~all_servers_mask()) == 0);
    const std::uint32_t available =
        all_servers_mask() & ~erased_mask & ~(1u << failed);
    const Matrix& target = matrices_[failed];
    if (target.rows() == 0) {
      // The failed server stores nothing: an empty plan rebuilds it.
      auto plan = std::make_shared<RepairPlanT>();
      return plan;
    }
    const std::size_t min_rows = strategy == RepairStrategy::kFullDecode
                                     ? k_
                                     : linalg::rank<F>(target);
    for (const std::uint32_t mask : candidate_masks(available)) {
      if (rows_in_mask(mask) < min_rows) continue;
      const Matrix sub = stack_subset(mask);
      if (strategy == RepairStrategy::kFullDecode) {
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
      return build_symbol_repair_plan(failed, mask, strategy);
    }
    return nullptr;
  }

  /// Fresh object-repair planning, bypassing the cache. kMinimalFetch picks
  /// the surviving recovery set with the fewest rows `local` does not
  /// already hold; kFullDecode takes the first surviving set in the stored
  /// (size, lexicographic) order.
  RepairPlanPtr compute_object_repair_fresh(ObjectId object,
                                            std::uint32_t erased_mask,
                                            NodeId local,
                                            RepairStrategy strategy) const {
    CEC_CHECK(object < k_);
    CEC_CHECK((erased_mask & ~all_servers_mask()) == 0);
    const std::uint32_t chosen = [&]() -> std::uint32_t {
      std::uint32_t best = 0;
      std::size_t best_cost = 0;
      for (const std::uint32_t mask : recovery_masks_[object]) {
        if ((mask & erased_mask) != 0) continue;
        if (strategy == RepairStrategy::kFullDecode) return mask;
        const std::size_t cost = rows_in_mask(mask & ~(1u << local));
        if (best == 0 || cost < best_cost) {
          best = mask;
          best_cost = cost;
        }
      }
      return best;
    }();
    if (chosen == 0) return nullptr;
    auto plan = std::make_shared<RepairPlanT>();
    plan->helper_mask = chosen;
    for (NodeId s = 0; s < num_servers(); ++s) {
      if (!(chosen >> s & 1) || s == local) continue;
      for (std::size_t r = 0; r < matrices_[s].rows(); ++r) {
        plan->fetches.push_back({s, static_cast<std::uint32_t>(r)});
      }
    }
    return plan;
  }

  /// Execute a symbol-repair plan against provided helper symbols.
  Symbol apply_repair_plan(const RepairPlanT& plan, NodeId failed,
                           std::span<const NodeId> servers,
                           std::span<const Symbol> symbols) const {
    Symbol out(symbol_bytes(failed), 0);
    std::vector<Elem> acc(elems_per_value_);
    std::vector<Elem> row(elems_per_value_);
    std::vector<gf::AxpyTerm<F>> terms;
    for (std::size_t r = 0; r < plan.row_ops.size(); ++r) {
      const auto fetched_row = [&](const typename RepairPlanT::Op& op)
          -> std::span<const std::uint8_t> {
        const RepairFetch& fetch = plan.fetches[op.fetch];
        std::size_t pos = servers.size();
        for (std::size_t i = 0; i < servers.size(); ++i) {
          if (servers[i] == fetch.server) {
            pos = i;
            break;
          }
        }
        CEC_CHECK_MSG(pos < servers.size(),
                      "repair: helper " << fetch.server << " not provided");
        const Symbol& sym = symbols[pos];
        CEC_CHECK_MSG(sym.size() == symbol_bytes(fetch.server),
                      "repair: bad symbol size from server " << fetch.server);
        return std::span<const std::uint8_t>(sym).subspan(
            fetch.row * value_bytes_, value_bytes_);
      };
      auto out_row =
          out.mutable_span().subspan(r * value_bytes_, value_bytes_);
      if constexpr (std::is_same_v<F, gf::GF256>) {
        // GF(2^8): fused multi-axpy straight from the helper symbol rows
        // into the output row (already zeroed).
        terms.clear();
        for (const auto& op : plan.row_ops[r]) {
          terms.push_back({op.coeff, fetched_row(op)});
        }
        gf::axpy_batch<F>(out_row, std::span<const gf::AxpyTerm<F>>(terms));
      } else {
        gf::set_zero<F>(std::span<Elem>(acc));
        for (const auto& op : plan.row_ops[r]) {
          detail::unpack<F>(fetched_row(op), std::span<Elem>(row));
          gf::axpy<F>(std::span<Elem>(acc), op.coeff,
                      std::span<const Elem>(row));
        }
        detail::pack<F>(std::span<const Elem>(acc), out_row);
      }
    }
    return out;
  }

  /// Test/tooling control of the repair cache (per code instance).
  void set_repair_plan_cache_enabled(bool enabled) const {
    repair_cache_.set_enabled(enabled);
  }

  RepairPlanMode repair_mode() const {
    return repair_mode_.load(std::memory_order_relaxed);
  }

  /// Test seam: switch the repair-plan mode of this instance.
  void set_repair_mode_for_testing(RepairPlanMode mode) const {
    repair_mode_.store(mode, std::memory_order_relaxed);
  }

 private:
  struct ReencodeStep {
    std::uint32_t row;  // row of the server's symbol
    Elem coeff;         // C_i[row][object], nonzero
  };

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

  /// Express every row of the failed symbol in the helper set's row space
  /// and flatten the coefficients into the fetch/axpy DAG. kMinimalFetch
  /// drops fetched rows no output program references; kFullDecode keeps
  /// every row of the set (the decode-all baseline pays for all of them).
  RepairPlanPtr build_symbol_repair_plan(NodeId failed, std::uint32_t mask,
                                         RepairStrategy strategy) const {
    const Matrix sub = stack_subset(mask);
    const Matrix& target = matrices_[failed];
    std::vector<RepairFetch> rows;
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
      CEC_CHECK_MSG(lambda.has_value(),
                    "repair plan: candidate helper set lost its span");
      for (std::size_t i = 0; i < lambda->size(); ++i) {
        if ((*lambda)[i] == F::zero) continue;
        programs[r].push_back({static_cast<std::uint32_t>(i), (*lambda)[i]});
        used[i] = true;
      }
    }
    auto plan = std::make_shared<RepairPlanT>();
    const bool trim = strategy == RepairStrategy::kMinimalFetch;
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

  RepairPlanSummary summarize(const RepairPlanT& plan,
                              const RepairPlanT* full,
                              std::uint32_t erased_mask) const {
    RepairPlanSummary s;
    s.helper_mask = plan.helper_mask;
    s.erased_mask = erased_mask;
    s.fetch_rows = plan.fetches.size();
    s.fetch_bytes = s.fetch_rows * value_bytes_;
    s.full_decode_rows = full != nullptr ? full->fetches.size()
                                         : s.fetch_rows;
    s.full_decode_bytes = s.full_decode_rows * value_bytes_;
    return s;
  }

  void build_stacked() {
    std::size_t total_rows = 0;
    for (const auto& m : matrices_) total_rows += m.rows();
    stacked_ = Matrix(total_rows, k_);
    std::size_t r = 0;
    for (const auto& m : matrices_) {
      for (std::size_t lr = 0; lr < m.rows(); ++lr, ++r) {
        for (std::size_t c = 0; c < k_; ++c) stacked_(r, c) = m(lr, c);
      }
    }
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
  /// server matrix, bound to their rows, so reencode() touches exactly the
  /// affected symbol rows without scanning the matrix.
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
    std::size_t rows = 0;
    for (NodeId s = 0; s < num_servers(); ++s) {
      if (mask >> s & 1) rows += matrices_[s].rows();
    }
    Matrix out(rows, k_);
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

  /// One Gaussian elimination: lambda * stacked(minimal_mask) = e_object,
  /// flattened to the nonzero (server, row, coeff) steps.
  Plan build_plan(ObjectId object, std::uint32_t minimal_mask) const {
    std::vector<Elem> target(k_, F::zero);
    target[object] = F::one;
    const Matrix sub = stack_subset(minimal_mask);
    const auto lambda = linalg::express_in_row_space<F>(
        sub, std::span<const Elem>(target));
    CEC_CHECK_MSG(lambda.has_value(),
                  "decode plan: enumerated recovery set lost its rank");
    Plan plan;
    plan.set_mask = minimal_mask;
    std::size_t lambda_idx = 0;
    for (NodeId s = 0; s < num_servers(); ++s) {
      if (!(minimal_mask >> s & 1)) continue;
      for (std::size_t r = 0; r < matrices_[s].rows(); ++r, ++lambda_idx) {
        const Elem coeff = (*lambda)[lambda_idx];
        if (coeff == F::zero) continue;
        plan.steps.push_back({s, static_cast<std::uint32_t>(r), coeff});
      }
    }
    CEC_DCHECK(lambda_idx == lambda->size());
    return plan;
  }

  Value apply_plan(const Plan& plan, std::span<const NodeId> servers,
                   std::span<const Symbol> symbols) const {
    if constexpr (std::is_same_v<F, gf::GF256>) {
      // GF(2^8): feed the symbol rows to the fused multi-axpy in place --
      // no unpack, and the accumulator is written once per chunk instead
      // of once per step.
      std::vector<gf::AxpyTerm<F>> terms;
      terms.reserve(plan.steps.size());
      for (const auto& step : plan.steps) {
        const Symbol& sym = symbols[locate_server(servers, step.server)];
        CEC_CHECK_MSG(sym.size() == symbol_bytes(step.server),
                      "decode: bad symbol size from server " << step.server);
        terms.push_back({step.coeff,
                         std::span<const std::uint8_t>(sym).subspan(
                             step.row * value_bytes_, value_bytes_)});
      }
      Value out(value_bytes_);
      gf::axpy_batch<F>(out.mutable_span(),
                        std::span<const gf::AxpyTerm<F>>(terms));
      return out;
    } else {
      std::vector<Elem> acc(elems_per_value_, F::zero);
      std::vector<Elem> row(elems_per_value_);
      for (const auto& step : plan.steps) {
        const Symbol& sym = symbols[locate_server(servers, step.server)];
        CEC_CHECK_MSG(sym.size() == symbol_bytes(step.server),
                      "decode: bad symbol size from server " << step.server);
        detail::unpack<F>(std::span<const std::uint8_t>(sym).subspan(
                              step.row * value_bytes_, value_bytes_),
                          std::span<Elem>(row));
        gf::axpy<F>(std::span<Elem>(acc), step.coeff,
                    std::span<const Elem>(row));
      }
      Value out(value_bytes_);
      detail::pack<F>(std::span<const Elem>(acc), out.mutable_span());
      return out;
    }
  }

  std::vector<Matrix> matrices_;
  std::size_t value_bytes_;
  std::string name_;
  std::size_t k_ = 0;
  std::size_t elems_per_value_ = 0;
  Matrix stacked_;
  std::vector<std::vector<ObjectId>> supports_;
  std::vector<std::uint64_t> support_masks_;
  std::vector<std::vector<std::vector<ReencodeStep>>> reencode_plans_;
  std::vector<std::vector<RecoverySet>> recovery_sets_;
  std::vector<std::vector<std::uint32_t>> recovery_masks_;  // minimal, per obj
  std::vector<std::uint64_t> local_;  // per object: bitmask of local servers
  mutable DecodePlanCache<Elem> plan_cache_;
  mutable RepairPlanCache<Elem> repair_cache_;
  mutable std::atomic<RepairPlanMode> repair_mode_{
      RepairPlanMode::kMinimalFetch};
};

}  // namespace causalec::erasure
