#include "net/process_cluster.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "common/expect.h"
#include "common/logging.h"
#include "net/net_client.h"
#include "net/socket.h"

namespace causalec::net {

namespace {

using Clock = std::chrono::steady_clock;

std::string make_temp_dir() {
  const char* tmp = std::getenv("TMPDIR");
  std::string tmpl = (tmp != nullptr ? std::string(tmp) : std::string("/tmp"));
  tmpl += "/causalec_net_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  CEC_CHECK_MSG(::mkdtemp(buf.data()) != nullptr,
                "mkdtemp failed: errno " << errno);
  return std::string(buf.data());
}

/// One stats round-trip to a daemon ("host:port") over a fresh connection;
/// nullopt when it cannot be reached or does not answer.
std::optional<StatsResp> fetch_stats(const std::string& endpoint) {
  NetClient client(/*client=*/0);
  if (!client.connect(endpoint, /*timeout_ms=*/1000)) return std::nullopt;
  client.set_io_timeout_ms(2000);
  return client.stats();
}

}  // namespace

std::vector<std::uint16_t> reserve_loopback_ports(std::size_t n) {
  static std::mutex mu;
  static std::vector<ScopedFd> held;  // every reservation, until exit
  std::vector<std::uint16_t> ports;
  ports.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Bound and never listening, with SO_REUSEPORT but not SO_REUSEADDR:
    // autobind (bind to port 0, connect's source port) skips a bound port,
    // only an SO_REUSEPORT bind by the same user may share it, and a
    // connect is refused until a listener binds it.
    ScopedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    const int one = 1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    CEC_CHECK_MSG(fd.valid() &&
                      ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one,
                                   sizeof(one)) == 0 &&
                      ::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr)) == 0,
                  "cannot reserve a loopback port: errno " << errno);
    ports.push_back(local_port(fd.get()));
    std::lock_guard<std::mutex> lock(mu);
    held.push_back(std::move(fd));
  }
  return ports;
}

bool await_ready(const std::vector<std::string>& endpoints,
                 std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    bool up = false;
    while (Clock::now() < deadline) {
      NetClient probe(/*client=*/0);
      if (probe.connect(endpoints[i], /*timeout_ms=*/250)) {
        probe.set_io_timeout_ms(1000);
        const auto pong = probe.ping(static_cast<std::uint64_t>(i) + 1);
        if (pong.has_value() && pong->ready) {
          up = true;
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!up) {
      CEC_LOG(kError) << "net: server at " << endpoints[i]
                      << " never became ready";
      return false;
    }
  }
  return true;
}

bool await_convergence(const std::vector<std::string>& endpoints,
                       std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  int stable_polls = 0;
  while (Clock::now() < deadline) {
    bool converged = true;
    std::optional<VectorClock> reference;
    for (const std::string& endpoint : endpoints) {
      const auto s = fetch_stats(endpoint);
      if (!s.has_value() || s->history_entries != 0 ||
          s->inqueue_entries != 0 || s->readl_entries != 0) {
        converged = false;
        break;
      }
      if (!reference.has_value()) {
        reference = s->vc;
      } else if (!(*reference == s->vc)) {
        // Convergence oracle: every server settles on the same vector
        // clock once all writes have been applied everywhere.
        converged = false;
        break;
      }
    }
    if (converged) {
      if (++stable_polls >= 2) return true;
    } else {
      stable_polls = 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

std::optional<std::uint64_t> total_error_events(
    const std::vector<std::string>& endpoints) {
  std::uint64_t total = 0;
  for (const std::string& endpoint : endpoints) {
    const auto s = fetch_stats(endpoint);
    if (!s.has_value()) return std::nullopt;
    total += s->error_events;
  }
  return total;
}

ProcessCluster::ProcessCluster(ProcessClusterConfig config)
    : config_(std::move(config)) {
  CEC_CHECK(!config_.server_bin.empty());
  CEC_CHECK(config_.num_servers >= 1);
  pids_.assign(config_.num_servers, -1);
}

ProcessCluster::~ProcessCluster() {
  for (std::size_t i = 0; i < pids_.size(); ++i) {
    if (pids_[i] > 0) ::kill(pids_[i], SIGTERM);
  }
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  for (std::size_t i = 0; i < pids_.size(); ++i) {
    if (pids_[i] <= 0) continue;
    while (Clock::now() < deadline) {
      if (::waitpid(pids_[i], nullptr, WNOHANG) != 0) {
        pids_[i] = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (pids_[i] > 0) {
      ::kill(pids_[i], SIGKILL);
      ::waitpid(pids_[i], nullptr, 0);
      pids_[i] = -1;
    }
  }
}

bool ProcessCluster::start() {
  CEC_CHECK(!started_);
  started_ = true;
  if (config_.work_dir.empty()) config_.work_dir = make_temp_dir();
  ports_ = reserve_loopback_ports(config_.num_servers);
  endpoints_.clear();
  for (const std::uint16_t port : ports_) {
    endpoints_.push_back("127.0.0.1:" + std::to_string(port));
  }
  cluster_ = ClusterConfig{};
  cluster_.num_servers = config_.num_servers;
  cluster_.num_objects = config_.num_objects;
  cluster_.value_bytes = config_.value_bytes;
  cluster_.endpoints = endpoints_;
  cluster_.groups = config_.groups;
  cluster_file_ = config_.work_dir + "/cluster.conf";
  CEC_CHECK_MSG(save_cluster_config(cluster_, cluster_file_),
                "cannot write cluster config " << cluster_file_);
  for (std::size_t i = 0; i < config_.num_servers; ++i) {
    if (!spawn(i)) return false;
  }
  return true;
}

std::vector<std::string> ProcessCluster::server_args(std::size_t i) const {
  std::vector<std::string> args = {
      config_.server_bin,
      "--node", std::to_string(i),
      "--cluster", cluster_file_,
      "--shards", std::to_string(config_.shards),
  };
  if (config_.persistence) {
    args.push_back("--data-dir");
    args.push_back(config_.work_dir + "/s" + std::to_string(i));
  }
  return args;
}

bool ProcessCluster::spawn(std::size_t i) {
  const std::vector<std::string> args = server_args(i);
  const std::string log_path =
      config_.work_dir + "/s" + std::to_string(i) + ".log";
  const pid_t pid = ::fork();
  if (pid < 0) {
    CEC_LOG(kError) << "net: fork failed: errno " << errno;
    return false;
  }
  if (pid == 0) {
    // Child: stdout/stderr into the per-server log (appended across
    // restarts -- the pre-crash tail is the post-mortem).
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::close(log_fd);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failed
  }
  pids_[i] = pid;
  return true;
}

bool ProcessCluster::await_ready(std::chrono::milliseconds timeout) {
  return net::await_ready(live_endpoints(), timeout);
}

bool ProcessCluster::await_convergence(std::chrono::milliseconds timeout) {
  return net::await_convergence(live_endpoints(), timeout);
}

std::optional<std::uint64_t> ProcessCluster::total_error_events() {
  return net::total_error_events(live_endpoints());
}

std::vector<std::string> ProcessCluster::live_endpoints() const {
  std::vector<std::string> live;
  for (std::size_t i = 0; i < pids_.size(); ++i) {
    if (pids_[i] > 0) live.push_back(endpoints_[i]);
  }
  return live;
}

void ProcessCluster::kill_server(std::size_t i) {
  CEC_CHECK(i < pids_.size());
  CEC_CHECK_MSG(pids_[i] > 0, "kill_server: server " << i << " not running");
  ::kill(pids_[i], SIGKILL);
  ::waitpid(pids_[i], nullptr, 0);
  pids_[i] = -1;
}

bool ProcessCluster::restart(std::size_t i) {
  CEC_CHECK(i < pids_.size());
  CEC_CHECK_MSG(pids_[i] <= 0, "restart: server " << i << " is running");
  CEC_CHECK_MSG(config_.persistence,
                "restart requires ProcessClusterConfig::persistence");
  return spawn(i);
}

std::optional<StatsResp> ProcessCluster::stats(std::size_t i) {
  CEC_CHECK(i < pids_.size());
  if (pids_[i] <= 0) return std::nullopt;
  return fetch_stats(endpoints_[i]);
}

}  // namespace causalec::net
