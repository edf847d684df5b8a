// Cluster config file: the single deployment descriptor shared by
// causalec_server, causalec_router and perfbench (replacing the
// per-flag `--peers` csv of the first real-socket deployment, so the same
// file can describe a multi-machine cluster once and be handed to every
// process).
//
// Line-based text format, version-tagged by the first line:
//
//   causalec-cluster-v1
//   # comments and blank lines are ignored
//   servers 5
//   objects 3
//   value_bytes 64
//   code rs
//   node 0 127.0.0.1:7400
//   node 1 127.0.0.1:7401
//   ...
//   group 0 0,1        # optional routing groups (frontdoor tier);
//   group 1 2,3,4      # defaults to one group per node when absent
//
// `node` lines must cover exactly 0..servers-1. `group` lines, when
// present, must cover every node exactly once; the front-door router hashes
// keys onto groups and picks a live node inside the owning group.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "erasure/code.h"

namespace causalec::net {

struct ClusterConfig {
  std::size_t num_servers = 0;
  std::size_t num_objects = 3;
  std::size_t value_bytes = 64;
  /// Code family: "rs" (systematic Reed-Solomon) or "paper53".
  std::string code = "rs";
  /// "host:port" per node, indexed by NodeId.
  std::vector<std::string> endpoints;
  /// Routing groups (each a set of NodeIds); empty = one group per node.
  std::vector<std::vector<NodeId>> groups;

  /// Structural validation: counts match, endpoints parse, groups (if any)
  /// partition the node set. False with a message in *error.
  bool validate(std::string* error) const;

  /// The canonical text form (parse(serialize()) round-trips).
  std::string serialize() const;

  /// The erasure code this cluster runs, or nullptr for an unknown `code`
  /// name or invalid shape.
  erasure::CodePtr make_code() const;

  /// The groups to route over: `groups` when present, otherwise the
  /// one-group-per-node identity layout.
  std::vector<std::vector<NodeId>> routing_groups() const;
};

/// Parses the text form. nullopt with a message in *error on any syntax or
/// validation failure (the input may come from an untrusted file).
std::optional<ClusterConfig> parse_cluster_config(const std::string& text,
                                                  std::string* error);

/// Reads and parses `path`. nullopt with a message in *error on failure.
std::optional<ClusterConfig> load_cluster_config(const std::string& path,
                                                 std::string* error);

/// Writes the canonical text form to `path`. False on IO failure.
bool save_cluster_config(const ClusterConfig& config, const std::string& path);

}  // namespace causalec::net
