// causalec_server: one CausalEC server automaton as a real daemon process.
//
// One process = one node of the deployment: epoll shards that accept
// connections (--shards sets how many), the single-threaded server
// automaton on an epoll loop of its own that serves every client and peer
// connection and writes its peer links, and (with --data-dir) a durable
// journal that survives SIGKILL and rejoins the cluster on restart. Spawned n times
// (by tests/net_cluster_test.cpp, perfbench, or by hand) it
// forms a full cluster over TCP.
//
// The cluster shape (servers, objects, value bytes, code, every node's
// endpoint, routing groups) lives in a shared cluster config file
// (net/cluster_config.h) handed to every process:
//
//   causalec_server --node 0 --cluster /var/tmp/cec/cluster.conf
//     --data-dir /var/tmp/cec/s0 --shards 2
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "net/cluster_config.h"
#include "net/node_daemon.h"

using namespace causalec;

namespace {

std::atomic<bool> g_shutdown{false};

void on_signal(int) { g_shutdown.store(true); }

[[noreturn]] void usage(const char* what) {
  std::fprintf(stderr, "causalec_server: %s\n", what);
  std::fprintf(
      stderr,
      "usage: causalec_server --node N --cluster FILE [--listen HOST:PORT] "
      "[--data-dir DIR] [--shards S] [--gc-ms MS] [--snapshot-ms MS]\n");
  std::exit(2);
}

/// "a/b/c" -> {"a", "b", "c"}; a leading '/' stays on the first element's
/// prefix via the empty-segment join in the caller.
std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> out;
  std::string part;
  for (const char c : path) {
    if (c == '/') {
      out.push_back(part);
      part.clear();
    } else {
      part += c;
    }
  }
  out.push_back(part);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  net::NodeDaemonConfig config;
  std::string cluster_path;
  std::string listen;  // empty = the node's endpoint from the cluster file
  long gc_ms = 10;
  long snapshot_ms = 100;
  bool node_set = false;

  auto next_arg = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing argument value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--node") == 0) {
      config.node = static_cast<NodeId>(std::strtoul(next_arg(i), nullptr, 10));
      node_set = true;
    } else if (std::strcmp(argv[i], "--cluster") == 0) {
      cluster_path = next_arg(i);
    } else if (std::strcmp(argv[i], "--listen") == 0) {
      listen = next_arg(i);
    } else if (std::strcmp(argv[i], "--data-dir") == 0) {
      config.data_dir = next_arg(i);
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      config.shards = std::strtoul(next_arg(i), nullptr, 10);
    } else if (std::strcmp(argv[i], "--gc-ms") == 0) {
      gc_ms = std::strtol(next_arg(i), nullptr, 10);
    } else if (std::strcmp(argv[i], "--snapshot-ms") == 0) {
      snapshot_ms = std::strtol(next_arg(i), nullptr, 10);
    } else {
      usage((std::string("unknown flag ") + argv[i]).c_str());
    }
  }
  if (!node_set) usage("--node is required");
  if (cluster_path.empty()) usage("--cluster is required");
  std::string error;
  const auto cluster = net::load_cluster_config(cluster_path, &error);
  if (!cluster.has_value()) {
    usage(("bad --cluster file: " + error).c_str());
  }
  if (config.node >= cluster->num_servers) {
    usage("--node is outside the cluster's server range");
  }
  if (listen.empty()) listen = cluster->endpoints[config.node];
  const auto addr = net::parse_host_port(listen);
  if (!addr.has_value()) usage("bad --listen address");
  config.listen_host = addr->first;
  config.listen_port = addr->second;
  config.peers = cluster->endpoints;
  config.gc_period = std::chrono::milliseconds(gc_ms);
  config.snapshot_period = std::chrono::milliseconds(snapshot_ms);

  erasure::CodePtr code = cluster->make_code();
  if (code == nullptr) usage("cluster config names an unbuildable code");

  if (!config.data_dir.empty()) {
    // Best-effort create (parents too); DirBackend reports clearly if the
    // directory is truly unusable.
    std::string prefix;
    for (const std::string& part : split_path(config.data_dir)) {
      prefix += part;
      ::mkdir(prefix.c_str(), 0755);
      prefix += '/';
    }
  }

  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  net::NodeDaemon daemon(std::move(code), std::move(config));
  daemon.start();
  std::printf("causalec_server: node %u listening on port %u (%s)\n",
              daemon.node(), daemon.listen_port(),
              daemon.recovered() ? "recovered" : "fresh");
  std::fflush(stdout);

  while (!g_shutdown.load()) {
    ::usleep(50'000);
  }
  std::printf("causalec_server: node %u shutting down\n", daemon.node());
  daemon.stop();
  return 0;
}
