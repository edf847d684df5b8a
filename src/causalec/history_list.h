// The history list L[X] (Sec. 3): versions of one object, keyed by tag.
//
// The paper initializes L[X] = {(0, 0)}: the zero tag denotes the initial
// all-zeros object value. We treat the zero tag as a *virtual* entry --
// lookup of the zero tag always succeeds with the zero value -- which is
// equivalent (see DESIGN.md note 5) and keeps every re-encoding code path
// uniform.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>

#include "causalec/tag.h"
#include "erasure/value.h"

namespace causalec {

class HistoryList {
 public:
  HistoryList(std::size_t num_servers, std::size_t value_bytes)
      : num_servers_(num_servers),
        value_bytes_(value_bytes),
        zero_value_(value_bytes, 0) {}

  /// Insert (tag, value); duplicate tags keep the existing entry (a tag
  /// uniquely identifies a write, Lemma B.3). Zero-tag inserts are dropped
  /// (the zero version is virtual).
  void insert(const Tag& tag, erasure::Value value) {
    if (tag.is_zero()) return;
    entries_.try_emplace(tag, std::move(value));
  }

  /// Value for a tag; the zero tag yields the (shared, never reallocated)
  /// zero value.
  std::optional<erasure::Value> lookup(const Tag& tag) const {
    if (tag.is_zero()) return zero_value_;
    auto it = entries_.find(tag);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  bool contains(const Tag& tag) const {
    return tag.is_zero() || entries_.count(tag) > 0;
  }

  /// L[X].HighestTagged.tag; the zero tag when no real entry exists.
  Tag highest_tag() const {
    if (entries_.empty()) return Tag::zero(num_servers_);
    return entries_.rbegin()->first;
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Payload bytes held (the transient storage overhead of Sec. 4.2).
  std::size_t payload_bytes() const { return entries_.size() * value_bytes_; }

  /// Highest tag t with t <= ceiling, or nullopt (used for max(U & Ubar)).
  std::optional<Tag> highest_leq(const Tag& ceiling) const {
    auto it = entries_.upper_bound(ceiling);
    if (it == entries_.begin()) return std::nullopt;
    return std::prev(it)->first;
  }

  /// Erase every entry below `bound` -- through it when `inclusive` --
  /// except the tags in `keep`, which must be sorted ascending (duplicates
  /// and tags outside the prefix are fine); returns the count removed. The
  /// erased entries form a prefix of the tag order, so the walk costs
  /// O(removed + keep) and never visits the versions above `bound`.
  std::size_t erase_prefix(const Tag& bound, bool inclusive,
                           std::span<const Tag* const> keep) {
    const auto end =
        inclusive ? entries_.upper_bound(bound) : entries_.lower_bound(bound);
    std::size_t removed = 0;
    auto it = entries_.begin();
    auto kept = keep.begin();
    while (it != end) {
      while (kept != keep.end() && **kept < it->first) ++kept;
      if (kept != keep.end() && **kept == it->first) {
        ++it;
      } else {
        it = entries_.erase(it);
        ++removed;
      }
    }
    return removed;
  }

  /// Iteration for tests / invariant checks.
  const std::map<Tag, erasure::Value>& entries() const { return entries_; }

 private:
  std::size_t num_servers_;
  std::size_t value_bytes_;
  erasure::Value zero_value_;  // shared by every zero-tag lookup
  std::map<Tag, erasure::Value> entries_;
};

}  // namespace causalec
