// Measurement plumbing shared by the perfbench workloads and the per-layer
// ladder: exact percentiles over raw samples, CPU and RSS probes for this
// process and its daemon children, the host fingerprint, a spawner for
// causalec_server daemons with pinned flags, and the result line.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/client_proto.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v);

/// p50 and the tail percentile of raw samples. The tail is p99 when at
/// least ten samples lie beyond it, else the highest percentile that still
/// leaves ten beyond it; with ten samples or fewer it is the maximum.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;  // the percentile the tail reports, e.g. 99
};
Summary summarize(std::vector<double> samples);

/// The same, except that the tail is the median of the p99s of consecutive
/// chunks of 1000 samples in due-time order (at[i] orders sample i), so
/// that the few chunks a host stall lands in do not set it. Under 2000
/// samples it is the plain tail.
Summary summarize_chunks(const std::vector<double>& samples,
                         const std::vector<double>& at);
std::string describe(const char* what, const Summary& s, const char* unit);

/// CPU seconds consumed so far by this process / the calling thread.
double process_cpu_s();
double thread_cpu_s();
/// CPU seconds of every thread of `pid` (from /proc/<pid>/task/*/schedstat,
/// nanosecond resolution); 0 when the process is gone.
double pid_cpu_s(pid_t pid);
/// Resident set of `pid` in MiB (VmRSS); 0 when the process is gone.
double pid_rss_mib(pid_t pid);
/// Total bytes of the regular files under `dir`.
std::uint64_t dir_bytes(const std::string& dir);

/// A fresh directory `<cwd>/.bench_build/run/<tag>-XXXXXX`; the benchmark
/// reads and writes only inside its checkout.
std::string make_work_dir(const std::string& tag);
void remove_tree(const std::string& dir);

/// One line naming the host and build every result came from.
std::string host_fingerprint(std::size_t daemon_shards);

/// Daemon shard count and flags every spawned causalec_server gets. The
/// flags are pinned here rather than inherited from the daemon's defaults so
/// that two commits compare under the same policy.
inline constexpr std::size_t kDaemonShards = 2;
inline constexpr int kDaemonGcMs = 10;
inline constexpr int kDaemonSnapshotMs = 100;

/// n causalec_server processes on loopback (RS(n, k)), each optionally with
/// a --data-dir under `work_dir`. Stopped (SIGTERM, then SIGKILL) and reaped
/// by stop() or the destructor.
class DaemonCluster {
 public:
  DaemonCluster(std::string server_bin, std::string work_dir);
  ~DaemonCluster();
  DaemonCluster(const DaemonCluster&) = delete;
  DaemonCluster& operator=(const DaemonCluster&) = delete;

  bool start(std::size_t servers, std::size_t objects,
             std::size_t value_bytes, bool durable);
  bool await_ready(std::chrono::milliseconds timeout);
  void stop();

  std::size_t size() const { return pids_.size(); }
  const std::vector<std::string>& endpoints() const { return endpoints_; }
  const std::string& cluster_file() const { return cluster_file_; }
  std::string data_dir(std::size_t i) const;
  bool durable() const { return durable_; }

  /// One stats round trip on a fresh connection.
  std::optional<causalec::net::StatsResp> stats(std::size_t i) const;
  /// Equal vector clocks and empty transient state on every server, stable
  /// across two polls.
  bool await_convergence(std::chrono::milliseconds timeout) const;
  /// error1 + error2 summed over every server; nullopt if one is unreachable.
  std::optional<std::uint64_t> error_events() const;

  double cpu_s() const;
  double rss_mib() const;

 private:
  std::string server_bin_;
  std::string work_dir_;
  std::string cluster_file_;
  bool durable_ = false;
  std::vector<std::string> endpoints_;
  std::vector<pid_t> pids_;
};

/// One named metric of the result line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Prints the result object as the last line of standard output.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

}  // namespace perfbench
