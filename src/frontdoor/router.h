// Front-door router daemon (DESIGN.md §12): the process core of the
// causalec_router tool, also embeddable in-process for tests.
//
// Clients speak the same client protocol to the router as to a daemon
// (net/client_proto.h); the router maps each object onto a routing group
// via the consistent-hash ring, keeps one pooled connection per backend
// node per shard, and forwards each request unchanged, frontier included,
// to the first live node of the owning group (walking the ring's candidate
// order past dead owners). Reads first consult the causally-safe edge
// cache; a hit is answered on the shard thread without touching a backend.
//
// Thread model: a net::FrontEnd, the same listener, Hello handshake and
// Pong path NodeDaemon uses -- `shards` event-loop threads (router-shard<i>),
// each with a SO_REUSEPORT listener on the same port -- and per shard one
// net::PeerLink to every backend plus pending-op correlation maps. Every
// socket has one owner thread: a client connection is served by the shard
// that accepted it, and that shard's links carry its requests, so the
// connections, links and maps need no lock. Cross-shard state is the edge
// cache (mutex) and the metrics registry (relaxed atomics). stop() joins
// the shards before it shuts the links down.
//
// Failure semantics: a backend link death fails every in-flight *write* on
// it (the client connection is closed -- a forwarded write must never be
// retried, a duplicate apply would corrupt the recorded history) and
// re-routes in-flight *reads* to the next live candidate (reads are
// idempotent). A lost link redials every 100 ms (a link that has never
// been up redials from 1 ms, doubling up to 100 ms); sessions survive a
// router restart because the causal frontier lives in the client's token,
// not in router state.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "frontdoor/edge_cache.h"
#include "frontdoor/hash_ring.h"
#include "net/client_proto.h"
#include "net/cluster_config.h"
#include "net/connection.h"
#include "net/front_end.h"
#include "net/net_transport.h"
#include "obs/frontdoor_counters.h"
#include "obs/metrics.h"

namespace causalec::frontdoor {

struct RouterConfig {
  net::ClusterConfig cluster;
  std::string listen_host = "127.0.0.1";
  /// 0 = ephemeral (shard 0 resolves it; see listen_port()).
  std::uint16_t listen_port = 0;
  std::size_t shards = 2;
  /// Ring points per routing group; the seed makes ownership deterministic
  /// across router instances over the same cluster config.
  std::size_t vnodes = 64;
  std::uint64_t ring_seed = 0x5EEDu;
  std::size_t cache_capacity = 4096;
  /// 0 disables expiry (staleness is then bounded only by capacity).
  std::chrono::milliseconds cache_ttl{2000};
};

class Router {
 public:
  explicit Router(RouterConfig config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds listeners, starts the shard loops, and begins dialing every
  /// backend. Aborts on bind failure.
  void start();
  void stop();

  /// The resolved listening port (after start()).
  std::uint16_t listen_port() const { return front_end_.port(); }
  bool ready() const { return front_end_.ready(); }

  /// Established backend links across all shards (each backend counts once
  /// per shard). Tests use this to wait for a steady state.
  int backends_up() const {
    return links_up_.load(std::memory_order_acquire);
  }
  /// Waits until every shard has a live link to every backend.
  bool await_backends(std::chrono::milliseconds timeout) const;

  /// The same counter block the router_stats_req wire message reports.
  net::RouterStatsResp stats() const;

  EdgeCache& cache() { return cache_; }
  const HashRing& ring() const { return ring_; }
  const std::vector<std::vector<NodeId>>& routing_groups() const {
    return groups_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// A forwarded request awaiting its backend response (loop thread only;
  /// keyed by the router-assigned opid in the link's pending map).
  struct PendingOp {
    /// The client's request, under the client's opid (echoed back). A
    /// write's value becomes the cache witness; a rerouted read is sent
    /// again.
    std::variant<net::WriteReq, net::ReadReq> req;
    std::weak_ptr<net::Connection> client_conn;
    Clock::time_point start;  // per-tier latency attribution
    int reroutes_left = 0;
  };

  /// One pooled connection from one shard to one backend node. All state
  /// but the link's own is owned by the shard's loop thread.
  struct BackendLink {
    std::unique_ptr<net::PeerLink> link;
    bool up = false;
    std::unordered_map<OpId, PendingOp> pending;
  };

  struct Shard {
    std::vector<BackendLink> links;  // indexed by NodeId
    OpId next_opid = 1;  // unique per link is enough; per shard is stronger
  };

  // Client side (shard loop threads).
  bool handle_client_frame(std::size_t shard,
                           const std::shared_ptr<net::Connection>& conn,
                           erasure::Buffer payload);
  void handle_read(Shard& shard, net::ReadReq req,
                   const std::shared_ptr<net::Connection>& conn);

  /// Sends `op` to the first live node of the owning group (candidate
  /// order past dead owners counts a reroute); closes the client
  /// connection when no live backend can take it.
  void forward(Shard& shard, PendingOp op);

  // Backend side (shard loop threads).
  void on_link_liveness(Shard& shard, NodeId node, bool down);
  void handle_backend_frame(BackendLink& link,
                            const std::shared_ptr<net::Connection>& conn,
                            erasure::Buffer payload);

  RouterConfig config_;
  std::vector<std::vector<NodeId>> groups_;
  HashRing ring_;
  EdgeCache cache_;
  obs::MetricsRegistry registry_;  // must precede counters_
  obs::FrontdoorCounters counters_;
  /// Requests forwarded per backend node (relaxed; any shard thread).
  std::unique_ptr<std::atomic<std::uint64_t>[]> backend_ops_;

  net::FrontEnd front_end_;
  std::vector<Shard> shards_;  // sized once; the links capture addresses
  std::atomic<int> links_up_{0};
  bool started_ = false;
};

}  // namespace causalec::frontdoor
