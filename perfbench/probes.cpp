#include "probes.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "gf/kernels.h"
#include "net/cluster_config.h"
#include "net/net_client.h"
#include "net/process_cluster.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

namespace {

/// Nearest-rank percentile of `sorted` (ascending, non-empty); p in [0, 1].
double percentile_sorted(const std::vector<double>& sorted, double p) {
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 0.5);
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile_sorted(samples, 0.5);
  const double n = static_cast<double>(s.n);
  if (s.n <= 10) {
    s.tail_pct = 100;
  } else {
    // Highest percentile with at least ten samples above its rank, capped
    // at p99.
    s.tail_pct = std::min(99.0, std::floor(1000.0 * (n - 10.0) / n) / 10.0);
  }
  s.tail = percentile_sorted(samples, s.tail_pct / 100.0);
  return s;
}

Summary summarize_chunks(const std::vector<double>& samples,
                         const std::vector<double>& at) {
  constexpr std::size_t kChunk = 1000;
  std::vector<std::size_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&at](std::size_t a, std::size_t b) { return at[a] < at[b]; });
  Summary out = summarize(samples);
  const std::size_t chunks = std::max<std::size_t>(1, samples.size() / kChunk);
  if (chunks == 1) return out;
  std::vector<double> tails;
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<double> chunk;
    for (std::size_t i = c * kChunk; i < (c + 1) * kChunk; ++i) {
      chunk.push_back(samples[order[i]]);
    }
    tails.push_back(summarize(std::move(chunk)).tail);
  }
  out.tail = median(tails);
  return out;
}

std::string describe(const char* what, const Summary& s, const char* unit) {
  char buf[200];
  std::snprintf(buf, sizeof buf, "%s: p50 %.1f %s, p%.1f %.1f %s, n=%zu",
                what, s.p50, unit, s.tail_pct, s.tail, unit, s.n);
  return buf;
}

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double pid_cpu_s(pid_t pid) {
  std::error_code ec;
  const fs::path tasks = "/proc/" + std::to_string(pid) + "/task";
  double total = 0;
  for (const auto& entry : fs::directory_iterator(tasks, ec)) {
    std::ifstream in(entry.path() / "schedstat");
    unsigned long long ns = 0;
    if (in >> ns) total += static_cast<double>(ns) * 1e-9;
  }
  return total;
}

double pid_rss_mib(pid_t pid) {
  std::istringstream in(read_file("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::string make_work_dir(const std::string& tag) {
  const fs::path base = fs::current_path() / ".bench_build" / "run";
  fs::create_directories(base);
  std::string tmpl = (base / (tag + "-XXXXXX")).string();
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::fprintf(stderr, "perfbench: mkdtemp %s failed: errno %d\n",
                 tmpl.c_str(), errno);
    std::exit(1);
  }
  return tmpl;
}

void remove_tree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

std::string host_fingerprint(std::size_t daemon_shards) {
  std::string cpu = "unknown";
  std::istringstream info(read_file("/proc/cpuinfo"));
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::ostringstream out;
  out << "nproc=" << std::thread::hardware_concurrency() << " cpu=\"" << cpu
      << "\" gf_tier="
      << causalec::gf::kernels::tier_name(causalec::gf::kernels::active_tier())
      << " build=" << PERFBENCH_BUILD_TYPE << " compiler=\"" << __VERSION__
      << "\" daemon_shards=" << daemon_shards
      << " commit=" << (commit != nullptr ? commit : "unknown");
  return out.str();
}

// ---------------------------------------------------------------------------
// DaemonCluster
// ---------------------------------------------------------------------------

DaemonCluster::DaemonCluster(std::string server_bin, std::string work_dir)
    : server_bin_(std::move(server_bin)), work_dir_(std::move(work_dir)) {}

DaemonCluster::~DaemonCluster() { stop(); }

std::string DaemonCluster::data_dir(std::size_t i) const {
  return work_dir_ + "/s" + std::to_string(i);
}

bool DaemonCluster::start(std::size_t servers, std::size_t objects,
                          std::size_t value_bytes, bool durable) {
  durable_ = durable;
  const auto ports = causalec::net::reserve_loopback_ports(servers);
  causalec::net::ClusterConfig cluster;
  cluster.num_servers = servers;
  cluster.num_objects = objects;
  cluster.value_bytes = value_bytes;
  for (const std::uint16_t port : ports) {
    endpoints_.push_back("127.0.0.1:" + std::to_string(port));
  }
  cluster.endpoints = endpoints_;
  cluster_file_ = work_dir_ + "/cluster.conf";
  if (!causalec::net::save_cluster_config(cluster, cluster_file_)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", cluster_file_.c_str());
    return false;
  }
  for (std::size_t i = 0; i < servers; ++i) {
    std::vector<std::string> args = {
        server_bin_,  "--node",     std::to_string(i),
        "--cluster",  cluster_file_, "--shards",
        std::to_string(kDaemonShards), "--gc-ms", std::to_string(kDaemonGcMs),
        "--snapshot-ms", std::to_string(kDaemonSnapshotMs)};
    if (durable) {
      args.push_back("--data-dir");
      args.push_back(data_dir(i));
    }
    const std::string log = work_dir_ + "/s" + std::to_string(i) + ".log";
    const pid_t pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    pids_.push_back(pid);
  }
  return true;
}

bool DaemonCluster::await_ready(std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    bool up = false;
    while (!up && Clock::now() < deadline) {
      causalec::net::NetClient probe(0);
      if (probe.connect(endpoints_[i], 250)) {
        probe.set_io_timeout_ms(1000);
        const auto pong = probe.ping(i + 1);
        up = pong.has_value() && pong->ready;
      }
      if (!up) std::this_thread::sleep_for(5ms);
    }
    if (!up) return false;
  }
  return true;
}

void DaemonCluster::stop() {
  for (const pid_t pid : pids_) ::kill(pid, SIGTERM);
  const auto deadline = Clock::now() + 5s;
  for (pid_t& pid : pids_) {
    while (pid > 0 && Clock::now() < deadline) {
      if (::waitpid(pid, nullptr, WNOHANG) != 0) pid = -1;
      else std::this_thread::sleep_for(2ms);
    }
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      pid = -1;
    }
  }
  pids_.clear();
}

std::optional<causalec::net::StatsResp> DaemonCluster::stats(
    std::size_t i) const {
  causalec::net::NetClient client(0);
  if (!client.connect(endpoints_[i], 1000)) return std::nullopt;
  client.set_io_timeout_ms(5000);
  return client.stats();
}

bool DaemonCluster::await_convergence(std::chrono::milliseconds timeout) const {
  const auto deadline = Clock::now() + timeout;
  int stable = 0;
  while (Clock::now() < deadline) {
    bool converged = true;
    std::optional<causalec::VectorClock> reference;
    for (std::size_t i = 0; i < endpoints_.size() && converged; ++i) {
      const auto s = stats(i);
      converged = s.has_value() && s->history_entries == 0 &&
                  s->inqueue_entries == 0 && s->readl_entries == 0;
      if (!converged) break;
      if (!reference.has_value()) {
        reference = s->vc;
      } else if (!(*reference == s->vc)) {
        converged = false;
      }
    }
    if (converged && ++stable >= 2) return true;
    if (!converged) stable = 0;
    std::this_thread::sleep_for(10ms);
  }
  return false;
}

std::optional<std::uint64_t> DaemonCluster::error_events() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    const auto s = stats(i);
    if (!s.has_value()) return std::nullopt;
    total += s->error_events;
  }
  return total;
}

double DaemonCluster::cpu_s() const {
  double total = 0;
  for (const pid_t pid : pids_) total += pid_cpu_s(pid);
  return total;
}

double DaemonCluster::rss_mib() const {
  double total = 0;
  for (const pid_t pid : pids_) total += pid_rss_mib(pid);
  return total;
}

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
