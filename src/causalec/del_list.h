// The deletion list DelL[X] (Sec. 3): which servers have announced (via del
// messages) that their stored codeword symbol reflects at least a given tag
// for the object.
//
// Organized per announcing server as an ordered set of tags, which makes the
// paper's three derived quantities cheap:
//   S    = { t : every server has an entry >= t }      -> floor_all()
//   Sbar = { t : every server has the exact entry t }  -> has_exact_from_all()
//   U    = { t : every server in R has an entry >= t } -> floor_of(R)
// each of which reduces to per-server maxima / membership.
//
// Optional compaction keeps, per server, the maximal tag plus every tag >=
// the current tmax; this preserves all three quantities for every argument
// the algorithm can still query (arguments below tmax are never consulted).
#pragma once

#include <optional>
#include <set>
#include <span>
#include <vector>

#include "causalec/tag.h"

namespace causalec {

class DelList {
 public:
  explicit DelList(std::size_t num_servers)
      : per_server_(num_servers) {}

  void add(NodeId server, const Tag& tag) {
    CEC_DCHECK(server < per_server_.size());
    per_server_[server].insert(tag);
  }

  /// max(S): the largest tag t such that every server has an entry >= t
  /// (equivalently min over servers of their maximal entry); nullopt when
  /// some server has announced nothing yet.
  std::optional<Tag> floor_all() const {
    std::optional<Tag> floor;
    for (const auto& tags : per_server_) {
      if (tags.empty()) return std::nullopt;
      const Tag& max_tag = *tags.rbegin();
      if (!floor || max_tag < *floor) floor = max_tag;
    }
    return floor;
  }

  /// max(S) > tag, without building max(S): every server has an entry
  /// above `tag`. GC asks this on every DelL insertion.
  bool floor_above(const Tag& tag) const {
    for (const auto& tags : per_server_) {
      if (tags.empty() || !(*tags.rbegin() > tag)) return false;
    }
    return true;
  }

  /// max(U) over the subset R: nullopt when some member of R has announced
  /// nothing.
  std::optional<Tag> floor_of(std::span<const NodeId> servers) const {
    std::optional<Tag> floor;
    for (NodeId s : servers) {
      CEC_DCHECK(s < per_server_.size());
      const auto& tags = per_server_[s];
      if (tags.empty()) return std::nullopt;
      const Tag& max_tag = *tags.rbegin();
      if (!floor || max_tag < *floor) floor = max_tag;
    }
    return floor;
  }

  /// tag in Sbar: every server has the exact entry.
  bool has_exact_from_all(const Tag& tag) const {
    for (const auto& tags : per_server_) {
      if (tags.count(tag) == 0) return false;
    }
    return true;
  }

  /// Drop entries that can no longer influence floor_all / floor_of /
  /// has_exact_from_all for any tag >= tmax: everything strictly below tmax
  /// except each server's maximum.
  void compact(const Tag& tmax) {
    for (auto& tags : per_server_) {
      if (tags.empty()) continue;
      const Tag keep_max = *tags.rbegin();
      for (auto it = tags.begin(); it != tags.end();) {
        if (*it < tmax && !(*it == keep_max)) {
          it = tags.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  std::size_t total_entries() const {
    std::size_t n = 0;
    for (const auto& tags : per_server_) n += tags.size();
    return n;
  }

  const std::set<Tag>& entries_from(NodeId server) const {
    CEC_DCHECK(server < per_server_.size());
    return per_server_[server];
  }

 private:
  std::vector<std::set<Tag>> per_server_;
};

}  // namespace causalec
