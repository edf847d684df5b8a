// The perfbench workloads: their specs, the seeded op schedule, the systems
// under test (ThreadedCluster, causalec_server daemons, daemons behind an
// in-process frontdoor::Router) and the load generator that drives them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "consistency/history.h"
#include "erasure/code.h"
#include "erasure/value.h"
#include "obs/metrics.h"
#include "probes.h"

namespace perfbench {

using causalec::ClientId;
using causalec::NodeId;
using causalec::ObjectId;
using causalec::consistency::OpRecord;

/// Generator threads, one connection each (at most nproc on the reference
/// host).
inline constexpr int kThreads = 4;

enum class SystemKind { kInproc, kDaemons, kRouter };

struct WorkloadSpec {
  std::string name;
  SystemKind system = SystemKind::kInproc;
  bool durable = false;
  double offered_ops_per_s = 0;
  double write_fraction = 0.5;
  std::size_t value_bytes = 4096;
  double zipf_theta = 0;  // 0 = uniform objects
  /// The six-DC cross-object code (else systematic RS(servers, objects)).
  bool six_dc_code = false;
  std::size_t servers = 6;
  std::size_t objects = 4;
  std::string why;
};

const std::vector<WorkloadSpec>& all_workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// The workload's erasure code: the Sec. 1.1 six-DC cross-object code or
/// RS(servers, objects).
causalec::erasure::CodePtr make_code(const WorkloadSpec& spec);

// ---------------------------------------------------------------------------
// Seeded schedule
// ---------------------------------------------------------------------------

struct Op {
  std::int64_t due_ns = 0;  // offset from the phase start (paced phases)
  NodeId server = 0;        // daemons/in-process: the server to use
  ObjectId object = 0;
  bool write = false;
};

/// One phase of ops per generator thread, generated before anything is
/// timed. On the daemons the server comes from a rotation of epochs (the
/// phase split into one epoch per server): in every epoch each thread holds
/// one connection to a distinct server, and over the phase every server
/// sits out the same number of epochs. In-process ops pick their server
/// uniformly.
struct Phase {
  double seconds = 0;
  bool paced = true;
  std::vector<std::vector<Op>> per_thread;
  /// Daemon systems: the server thread t uses in each epoch (empty
  /// in-process, where Op::server applies).
  std::vector<std::vector<NodeId>> epoch_server;
};

Phase make_phase(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
                 double ops_per_s, bool paced);

/// Value bodies: 64 seeded patterns; a written value is one of them with a
/// unique 16-byte stamp (writer session, sequence) over its first bytes.
class ValueFactory {
 public:
  ValueFactory(std::size_t value_bytes, std::uint64_t seed);
  causalec::erasure::Value make(ClientId client, std::uint64_t seq) const;
  /// The recorded hash of a value: a hash of its stamp when the rest of the
  /// bytes match the pattern the stamp names, else a hash that no write has.
  std::uint64_t hash(const causalec::erasure::Value& value) const;

 private:
  std::size_t value_bytes_;
  std::vector<std::vector<std::uint8_t>> bodies_;
};

// ---------------------------------------------------------------------------
// Systems under test
// ---------------------------------------------------------------------------

/// One generator thread's client. Fills `rec` (session, tag, timestamp,
/// value hash) for every op; false when the op failed or timed out, after
/// which the session reconnects on its next op under a fresh client id.
class Session {
 public:
  virtual ~Session() = default;
  virtual bool write(const Op& op, OpRecord& rec) = 0;
  /// `cached` is set for reads the router answered from its edge cache.
  virtual bool read(const Op& op, OpRecord& rec, bool& cached) = 0;
};

class System {
 public:
  virtual ~System() = default;
  virtual std::unique_ptr<Session> session() = 0;
  virtual std::size_t servers() const = 0;
  /// History-list entries summed over every server, now.
  virtual std::optional<double> history_entries() = 0;
  virtual bool converge() = 0;
  virtual std::optional<std::uint64_t> error_events() = 0;
  /// A read straight at server `s` after the run (bypasses any router).
  virtual bool final_read(NodeId s, ObjectId object, OpRecord& rec) = 0;
  /// CPU seconds and RSS of the daemon processes (0 for in-process).
  virtual double child_cpu_s() const { return 0; }
  virtual double child_rss_mib() const { return 0; }
  /// True when part of the system runs inside this process.
  virtual bool in_process() const = 0;
  virtual DaemonCluster* daemons() { return nullptr; }
  /// Router counters (router systems only).
  virtual std::optional<causalec::net::RouterStatsResp> router_stats() {
    return std::nullopt;
  }
};

/// Builds the workload's system, seeded with one write per object and
/// converged; nullptr (with a message on stderr) on failure. `work_dir`
/// holds daemon logs and data directories. `metrics`, in-process only, is
/// attached to the ThreadedCluster (phase.* histograms,
/// runtime.mailbox_depth.* gauges). make_router_system puts a new
/// router (and seeds through it) in front of existing daemons.
std::unique_ptr<System> make_system(const WorkloadSpec& spec,
                                    const ValueFactory& values,
                                    const std::string& work_dir,
                                    causalec::obs::MetricsRegistry* metrics,
                                    std::vector<OpRecord>* seed_ops);
/// Sessions straight at already-seeded daemons (not owned).
std::unique_ptr<System> make_daemon_system(DaemonCluster* daemons,
                                           const ValueFactory& values);
std::unique_ptr<System> make_router_system(DaemonCluster* daemons,
                                           const WorkloadSpec& spec,
                                           const ValueFactory& values,
                                           std::vector<OpRecord>* seed_ops);

// ---------------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------------

struct PassResult {
  double seconds = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t writes = 0;
  std::vector<double> write_us;  // from each op's due time (paced)
  std::vector<double> read_us;
  std::vector<double> write_at;  // due time, seconds into the phase
  std::vector<double> read_at;
  std::vector<double> hit_us;     // router reads answered by the cache
  std::vector<double> origin_us;  // router reads that reached a backend
  std::vector<double> lateness_us;
  std::vector<OpRecord> ops;      // every completed op, in no fixed order
  std::vector<std::uint64_t> ops_per_server;
  double cpu_s = 0;               // system under test, this pass
  double rss_mib = 0;             // system under test, median of samples
  std::vector<double> history_samples;  // per-server mean entries
  std::int64_t mailbox_depth_max = 0;   // needs run_pass's `metrics`
  double ops_per_s() const {
    return seconds > 0
               ? static_cast<double>(attempted - failed) / seconds
               : 0;
  }
};

/// Drives `phase` on `system` with kThreads generator threads. Paced phases
/// issue each op at its due time; closed phases issue back to back until
/// phase.seconds elapse (cycling through the ops). `sample` polls history
/// entries, RSS (and mailbox gauges when `metrics` is set) every 100 ms.
PassResult run_pass(System& system, const Phase& phase, bool sample,
                    causalec::obs::MetricsRegistry* metrics = nullptr);

/// Definition-5 checkers over the recorded ops plus final reads at every
/// server, error events and convergence. Prints what failed; true if clean.
bool check_run(System& system, const WorkloadSpec& spec,
               const std::vector<OpRecord>& ops);

}  // namespace perfbench
