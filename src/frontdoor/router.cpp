#include "frontdoor/router.h"

#include <thread>
#include <utility>

#include "common/expect.h"
#include "common/logging.h"

namespace causalec::frontdoor {

namespace {

/// How many times an in-flight read may chase link deaths before it is
/// failed back to the client.
constexpr int kMaxReadReroutes = 3;

/// The payload that forwards a client's request to a backend: the same
/// request under the router's opid.
erasure::Buffer forwarded(net::WriteReq req, OpId opid) {
  req.opid = opid;
  return net::encode_write_req(req);
}
erasure::Buffer forwarded(net::ReadReq req, OpId opid) {
  req.opid = opid;
  return net::encode_read_req(req);
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  const auto d = std::chrono::steady_clock::now() - start;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

}  // namespace

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      groups_(config_.cluster.routing_groups()),
      ring_(groups_.size(), config_.vnodes, config_.ring_seed),
      cache_(config_.cache_capacity, config_.cache_ttl),
      counters_(obs::FrontdoorCounters::resolve(registry_)),
      front_end_("router", config_.shards,
                 [this](const net::FrontEnd::Peer& peer,
                        const std::shared_ptr<net::Connection>& conn,
                        erasure::Buffer payload) {
                   return handle_client_frame(peer.shard, conn,
                                              std::move(payload));
                 }),
      shards_(config_.shards) {
  std::string error;
  CEC_CHECK_MSG(config_.cluster.validate(&error),
                "router: bad cluster config: " << error);
  const std::size_t n = config_.cluster.num_servers;
  backend_ops_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    shard.links.resize(n);
    for (NodeId node = 0; node < n; ++node) {
      const auto addr =
          net::parse_host_port(config_.cluster.endpoints[node]);
      CEC_CHECK_MSG(addr.has_value(),
                    "router: bad endpoint '"
                        << config_.cluster.endpoints[node] << "'");
      BackendLink& link = shard.links[node];
      link.link = std::make_unique<net::PeerLink>(
          front_end_.loop(s), node, addr->first, addr->second,
          net::Hello{net::PeerRole::kClient, 0},
          [this, &shard](NodeId who, bool down) {
            on_link_liveness(shard, who, down);
          },
          [this, &link](const std::shared_ptr<net::Connection>& conn,
                        erasure::Buffer payload) {
            handle_backend_frame(link, conn, std::move(payload));
          });
    }
  }
}

Router::~Router() { stop(); }

void Router::start() {
  CEC_CHECK(!started_);
  started_ = true;
  front_end_.listen(config_.listen_host, config_.listen_port);
  front_end_.start();
  for (Shard& shard : shards_) {
    for (BackendLink& link : shard.links) link.link->start();
  }
  front_end_.set_ready(true);
}

void Router::stop() {
  if (!started_) return;
  // Each shard's loop owns its links: once the loops are joined, the links
  // close from here.
  front_end_.stop();
  for (Shard& shard : shards_) {
    for (BackendLink& link : shard.links) link.link->shutdown();
  }
  started_ = false;
}

bool Router::await_backends(std::chrono::milliseconds timeout) const {
  const int want =
      static_cast<int>(shards_.size() * config_.cluster.num_servers);
  const auto deadline = Clock::now() + timeout;
  while (links_up_.load(std::memory_order_acquire) < want) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

net::RouterStatsResp Router::stats() const {
  net::RouterStatsResp s;
  s.routed_writes = counters_.routed_writes->value();
  s.routed_reads = counters_.routed_reads->value();
  s.cache_hits = counters_.cache_hits->value();
  s.cache_misses = counters_.cache_misses->value();
  s.cache_stale = counters_.cache_stale->value();
  s.cache_expired = counters_.cache_expired->value();
  s.cache_evictions = cache_.evictions();
  s.cache_entries = cache_.size();
  s.fallthroughs = counters_.fallthroughs->value();
  s.reroutes = counters_.reroutes->value();
  s.ring_remaps = counters_.ring_remaps->value();
  const std::size_t n = config_.cluster.num_servers;
  s.backend_ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.backend_ops.push_back(
        backend_ops_[i].load(std::memory_order_relaxed));
  }
  return s;
}

bool Router::handle_client_frame(std::size_t shard,
                                 const std::shared_ptr<net::Connection>& conn,
                                 erasure::Buffer payload) {
  // Requests are validated here on the shard thread; a hostile frame can
  // never reach a backend or the cache.
  const auto fits = [this](const auto& req) {
    return net::fits_cluster(req, config_.cluster.num_servers,
                             config_.cluster.num_objects,
                             config_.cluster.value_bytes);
  };
  switch (static_cast<net::ClientMsgType>(payload.data()[0])) {
    case net::ClientMsgType::kRouterStatsReq: {
      if (!net::decode_router_stats_req(std::move(payload))) return false;
      conn->send(net::encode_router_stats_resp(stats()));
      return true;
    }
    case net::ClientMsgType::kWriteReq: {
      std::optional<net::WriteReq> req =
          net::decode_write_req(std::move(payload));
      if (!req.has_value() || !fits(*req)) return false;
      counters_.routed_writes->inc();
      forward(shards_[shard],
              PendingOp{std::move(*req), conn, Clock::now(), 0});
      return true;
    }
    case net::ClientMsgType::kReadReq: {
      std::optional<net::ReadReq> req =
          net::decode_read_req(std::move(payload));
      if (!req.has_value() || !fits(*req)) return false;
      handle_read(shards_[shard], std::move(*req), conn);
      return true;
    }
    default:
      return false;
  }
}

void Router::handle_read(Shard& shard, net::ReadReq req,
                         const std::shared_ptr<net::Connection>& conn) {
  counters_.routed_reads->inc();
  const auto start = Clock::now();
  EdgeCache::Entry entry;
  switch (cache_.lookup(req.object, req.frontier, &entry)) {
    case EdgeCache::Outcome::kHit: {
      counters_.cache_hits->inc();
      counters_.cache_hit_ns->observe(elapsed_ns(start));
      net::ReadResp resp;
      resp.opid = req.opid;
      resp.tag = std::move(entry.tag);
      resp.vc = std::move(entry.clock);
      resp.cached = true;
      resp.value = std::move(entry.value);
      conn->send(net::encode_read_resp(resp));
      return;
    }
    case EdgeCache::Outcome::kMiss:
      counters_.cache_misses->inc();
      break;
    case EdgeCache::Outcome::kStale:
      counters_.cache_stale->inc();
      break;
    case EdgeCache::Outcome::kExpired:
      counters_.cache_expired->inc();
      break;
  }
  counters_.fallthroughs->inc();
  forward(shard, PendingOp{std::move(req), conn, start, kMaxReadReroutes});
}

void Router::forward(Shard& shard, PendingOp op) {
  const ObjectId object =
      std::visit([](const auto& req) { return req.object; }, op.req);
  const std::vector<std::size_t> cands =
      ring_.candidates(object, groups_.size());
  bool primary = true;
  for (const std::size_t gid : cands) {
    for (const NodeId node : groups_[gid]) {
      BackendLink& link = shard.links[node];
      if (!link.up) {
        primary = false;
        continue;
      }
      if (!primary) counters_.reroutes->inc();
      const OpId opid = shard.next_opid++;
      link.link->send(std::visit(
          [opid](const auto& req) { return forwarded(req, opid); }, op.req));
      backend_ops_[node].fetch_add(1, std::memory_order_relaxed);
      link.pending.emplace(opid, std::move(op));
      return;
    }
  }
  // No live backend can own this key: fail the op at the client (closing
  // the connection is the protocol's failure signal).
  CEC_LOG(kWarn) << "router: no live backend for object " << object
                 << ", failing client op";
  if (auto c = op.client_conn.lock()) c->close();
}

void Router::on_link_liveness(Shard& shard, NodeId node, bool down) {
  BackendLink& link = shard.links[node];
  link.up = !down;
  links_up_.fetch_add(down ? -1 : 1, std::memory_order_acq_rel);
  counters_.ring_remaps->inc();
  if (!down) return;
  auto pending = std::move(link.pending);
  link.pending.clear();
  for (auto& [opid, op] : pending) {
    if (std::holds_alternative<net::WriteReq>(op.req)) {
      // A write in flight at a dead backend may or may not have been
      // applied; retrying could apply it twice under a fresh tag. Fail it
      // at the client and let the session decide.
      if (auto c = op.client_conn.lock()) c->close();
      continue;
    }
    if (op.reroutes_left <= 0) {
      if (auto c = op.client_conn.lock()) c->close();
      continue;
    }
    op.reroutes_left -= 1;
    forward(shard, std::move(op));  // reads are idempotent: chase a survivor
  }
}

void Router::handle_backend_frame(BackendLink& link,
                                  const std::shared_ptr<net::Connection>& conn,
                                  erasure::Buffer payload) {
  const std::optional<std::uint8_t> type = net::peek_type(payload);
  if (!type.has_value()) {
    conn->close();
    return;
  }
  switch (static_cast<net::ClientMsgType>(*type)) {
    case net::ClientMsgType::kWriteResp: {
      std::optional<net::WriteResp> resp =
          net::decode_write_resp(std::move(payload));
      if (!resp.has_value()) break;
      const auto it = link.pending.find(resp->opid);
      if (it == link.pending.end()) return;  // late response: drop
      PendingOp op = std::move(it->second);
      link.pending.erase(it);
      auto* write = std::get_if<net::WriteReq>(&op.req);
      if (write == nullptr) return;  // backend type confusion: drop
      counters_.origin_write_ns->observe(elapsed_ns(op.start));
      // The witness clock is the write's own tag timestamp, not the
      // response clock: tags are unique (Lemma B.3) and the tag order
      // extends the clock order, so no other write can win at ts <= tag.ts
      // (see edge_cache.h).
      cache_.put(write->object, std::move(write->value), resp->tag,
                 resp->tag.ts);
      if (auto c = op.client_conn.lock()) {
        resp->opid = write->opid;
        c->send(net::encode_write_resp(*resp));
      }
      return;
    }
    case net::ClientMsgType::kReadResp: {
      std::optional<net::ReadResp> resp =
          net::decode_read_resp(std::move(payload));
      if (!resp.has_value()) break;
      const auto it = link.pending.find(resp->opid);
      if (it == link.pending.end()) return;  // late response: drop
      PendingOp op = std::move(it->second);
      link.pending.erase(it);
      const auto* read = std::get_if<net::ReadReq>(&op.req);
      if (read == nullptr) return;  // backend type confusion: drop
      counters_.origin_read_ns->observe(elapsed_ns(op.start));
      // A read fall-through refreshes the witness at the origin's clock
      // (Values and clocks are cheap to copy: refcounted / small).
      cache_.put(read->object, resp->value, resp->tag, resp->vc);
      if (auto c = op.client_conn.lock()) {
        resp->opid = read->opid;
        resp->cached = false;
        c->send(net::encode_read_resp(*resp));
      }
      return;
    }
    default:
      break;
  }
  CEC_LOG(kWarn) << "router: closing backend link to node "
                 << link.link->peer() << " after unexpected frame (type "
                 << static_cast<int>(*type) << ")";
  conn->close();
}

}  // namespace causalec::frontdoor
