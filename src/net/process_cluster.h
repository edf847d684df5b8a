// ProcessCluster: spawn n causalec_server processes on loopback, wait for
// readiness, and exercise them -- including SIGKILL / exec-restart cycles
// driving the crash-recovery path (persist journal + rejoin) across real
// process boundaries. Scriptable from ctest (tests/net_cluster_test.cpp,
// tests/frontdoor_chaos_test.cpp).
//
// The readiness, convergence and error probes are also free functions over
// an endpoint list, for tests that run NodeDaemons in-process.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <sys/types.h>
#include <vector>

#include "net/client_proto.h"
#include "net/cluster_config.h"

namespace causalec::net {

/// Reserve n distinct ephemeral loopback ports for daemons to listen on.
/// Each stays bound by a non-listening SO_REUSEPORT socket for the life of
/// the process, so no other process (another test under `ctest -j`) can be
/// handed the port before, while or after the daemons use it. A listener
/// that binds a reserved port must set SO_REUSEPORT (net::listen_tcp
/// does); a bind without it fails with EADDRINUSE.
std::vector<std::uint16_t> reserve_loopback_ports(std::size_t n);

/// Ping every endpoint until it reports ready. False if one is not ready by
/// the deadline.
bool await_ready(const std::vector<std::string>& endpoints,
                 std::chrono::milliseconds timeout);

/// Every endpoint reports equal vector clocks and empty transient state
/// (history/inqueue/readl), stable across two polls: the cross-process
/// version of ThreadedCluster::await_convergence.
bool await_convergence(const std::vector<std::string>& endpoints,
                       std::chrono::milliseconds timeout);

/// Sum of error1+error2 over the endpoints (must stay 0); nullopt when any
/// of them cannot be reached, so a dead daemon never counts as clean.
std::optional<std::uint64_t> total_error_events(
    const std::vector<std::string>& endpoints);

struct ProcessClusterConfig {
  /// Path to the causalec_server binary (tests get it via the
  /// CAUSALEC_SERVER_BIN compile definition).
  std::string server_bin;
  std::size_t num_servers = 5;
  std::size_t num_objects = 3;
  std::size_t value_bytes = 64;
  /// Scratch directory for per-server data dirs and log files; empty =
  /// mkdtemp under TMPDIR. Not cleaned up (ctest prunes its own work dirs;
  /// post-mortems want the logs).
  std::string work_dir;
  /// Give each server a --data-dir (required for restart()).
  bool persistence = true;
  std::size_t shards = 2;
  /// Routing groups written into the generated cluster config (frontdoor
  /// tier); empty = one group per node.
  std::vector<std::vector<NodeId>> groups;
};

class ProcessCluster {
 public:
  explicit ProcessCluster(ProcessClusterConfig config);
  ~ProcessCluster();

  ProcessCluster(const ProcessCluster&) = delete;
  ProcessCluster& operator=(const ProcessCluster&) = delete;

  /// Reserve ports, write the shared cluster config file, and spawn every
  /// server. False if any spawn fails.
  bool start();

  /// The generated cluster config and its on-disk path (valid after
  /// start(); the same file every server was handed via --cluster).
  const ClusterConfig& cluster() const { return cluster_; }
  const std::string& cluster_file() const { return cluster_file_; }

  /// The probes above over the live servers.
  bool await_ready(std::chrono::milliseconds timeout);
  bool await_convergence(std::chrono::milliseconds timeout);
  std::optional<std::uint64_t> total_error_events();

  /// "127.0.0.1:port" of server i (valid after start()).
  const std::string& endpoint(std::size_t i) const { return endpoints_[i]; }
  const std::vector<std::string>& endpoints() const { return endpoints_; }
  std::size_t num_servers() const { return config_.num_servers; }
  bool running(std::size_t i) const { return pids_[i] > 0; }

  /// SIGKILL server i and reap it -- a hard crash, no shutdown path runs.
  void kill_server(std::size_t i);

  /// Re-exec server i with its original arguments (same port, same data
  /// dir); it restores its journal and rejoins. Requires persistence.
  bool restart(std::size_t i);

  /// One stats round-trip to server i (fresh connection each call);
  /// nullopt when it is not running.
  std::optional<StatsResp> stats(std::size_t i);

 private:
  bool spawn(std::size_t i);
  std::vector<std::string> server_args(std::size_t i) const;
  std::vector<std::string> live_endpoints() const;

  ProcessClusterConfig config_;
  ClusterConfig cluster_;
  std::string cluster_file_;
  std::vector<std::uint16_t> ports_;
  std::vector<std::string> endpoints_;
  std::vector<pid_t> pids_;
  bool started_ = false;
};

}  // namespace causalec::net
