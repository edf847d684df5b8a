// causalec_router: the front-door tier as a real daemon process
// (DESIGN.md §12). Clients speak the daemons' client protocol to it; it
// consistent-hashes objects onto the cluster's routing groups, keeps
// pooled connections to every backend, and serves hot reads from a
// causally-safe edge cache gated by each session's frontier token.
//
// The cluster shape comes from the same shared config file every
// causalec_server was started with:
//
//   causalec_router --cluster /var/tmp/cec/cluster.conf
//     [--listen 127.0.0.1:7500] [--shards 2] [--vnodes 64]
//     [--cache-capacity 4096] [--cache-ttl-ms 2000]
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "frontdoor/router.h"
#include "net/cluster_config.h"

using namespace causalec;

namespace {

std::atomic<bool> g_shutdown{false};

void on_signal(int) { g_shutdown.store(true); }

[[noreturn]] void usage(const char* what) {
  std::fprintf(stderr, "causalec_router: %s\n", what);
  std::fprintf(stderr,
               "usage: causalec_router --cluster FILE [--listen HOST:PORT] "
               "[--shards S] [--vnodes V] [--cache-capacity N] "
               "[--cache-ttl-ms MS]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  frontdoor::RouterConfig config;
  std::string cluster_path;
  std::string listen = "127.0.0.1:0";
  long ttl_ms = 2000;

  auto next_arg = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing argument value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cluster") == 0) {
      cluster_path = next_arg(i);
    } else if (std::strcmp(argv[i], "--listen") == 0) {
      listen = next_arg(i);
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      config.shards = std::strtoul(next_arg(i), nullptr, 10);
    } else if (std::strcmp(argv[i], "--vnodes") == 0) {
      config.vnodes = std::strtoul(next_arg(i), nullptr, 10);
    } else if (std::strcmp(argv[i], "--cache-capacity") == 0) {
      config.cache_capacity = std::strtoul(next_arg(i), nullptr, 10);
    } else if (std::strcmp(argv[i], "--cache-ttl-ms") == 0) {
      ttl_ms = std::strtol(next_arg(i), nullptr, 10);
    } else {
      usage((std::string("unknown flag ") + argv[i]).c_str());
    }
  }
  if (cluster_path.empty()) usage("--cluster is required");
  std::string error;
  const auto cluster = net::load_cluster_config(cluster_path, &error);
  if (!cluster.has_value()) {
    usage(("bad --cluster file: " + error).c_str());
  }
  config.cluster = *cluster;
  config.cache_ttl = std::chrono::milliseconds(ttl_ms);
  const auto addr = net::parse_host_port(listen);
  if (!addr.has_value()) usage("bad --listen address");
  config.listen_host = addr->first;
  config.listen_port = addr->second;

  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  frontdoor::Router router(std::move(config));
  router.start();
  std::printf("causalec_router: listening on port %u (%zu groups)\n",
              router.listen_port(), router.routing_groups().size());
  std::fflush(stdout);

  while (!g_shutdown.load()) {
    ::usleep(50'000);
  }
  const net::RouterStatsResp s = router.stats();
  std::printf("causalec_router: shutting down (reads %llu, hits %llu, "
              "writes %llu)\n",
              static_cast<unsigned long long>(s.routed_reads),
              static_cast<unsigned long long>(s.cache_hits),
              static_cast<unsigned long long>(s.routed_writes));
  router.stop();
  return 0;
}
