#include "net/node_daemon.h"

#include <utility>

#include "common/expect.h"
#include "common/logging.h"
#include "net/frame.h"
#include "net/socket.h"

namespace causalec::net {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

NodeDaemon::NodeDaemon(erasure::CodePtr code, NodeDaemonConfig config)
    : code_(std::move(code)),
      config_(std::move(config)),
      loop_(config_.node, config_.server.obs, config_.gc_period,
            config_.snapshot_period) {
  const std::size_t n = code_->num_servers();
  CEC_CHECK(config_.node < n);
  CEC_CHECK(config_.shards >= 1);
  CEC_CHECK_MSG(config_.peers.size() == n,
                "peers list has " << config_.peers.size() << " entries for "
                                  << n << " servers");
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->loop = std::make_unique<EventLoop>();
    shards_.push_back(std::move(shard));
  }
  link_ptrs_.assign(n, nullptr);
  for (NodeId peer = 0; peer < n; ++peer) {
    if (peer == config_.node) continue;
    const auto addr = parse_host_port(config_.peers[peer]);
    CEC_CHECK_MSG(addr.has_value(),
                  "bad peer address '" << config_.peers[peer] << "'");
    EventLoop* loop = shards_[peer % shards_.size()]->loop.get();
    links_.push_back(std::make_unique<PeerLink>(
        loop, config_.node, peer, addr->first, addr->second,
        [this](NodeId who, bool down) {
          // Shard thread -> automaton thread.
          loop_.post([this, who, down] { server_->set_peer_down(who, down); });
        }));
    link_ptrs_[peer] = links_.back().get();
  }
  transport_ = std::make_unique<NetTransport>(link_ptrs_, &loop_);
  server_ = std::make_unique<causalec::Server>(config_.node, code_,
                                               config_.server,
                                               transport_.get());
  // A batch may have advanced the clock (applied writes, anti-entropy), so
  // parked routed requests get one retry after each.
  loop_.set_post_batch([this] { retry_parked(); });
  // Seed the opid counter from wall-clock seconds (see header); the mask
  // keeps bit 63 clear past 2038.
  const auto secs = std::chrono::duration_cast<std::chrono::seconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count();
  opid_counter_ = (static_cast<OpId>(secs) & 0x7FFFFFFFu) << 32;
}

NodeDaemon::~NodeDaemon() { stop(); }

void NodeDaemon::start() {
  CEC_CHECK(!started_);
  started_ = true;
  // Bind shard 0 first to resolve an ephemeral port, then the remaining
  // shards onto the same port; all set SO_REUSEPORT before bind so the
  // kernel spreads accepted connections across the shard listeners.
  const bool reuseport = shards_.size() > 1;
  shards_[0]->listener =
      listen_tcp(config_.listen_host, config_.listen_port, reuseport);
  CEC_CHECK_MSG(shards_[0]->listener.valid(),
                "cannot listen on " << config_.listen_host << ":"
                                    << config_.listen_port);
  listen_port_ = local_port(shards_[0]->listener.get());
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    shards_[i]->listener =
        listen_tcp(config_.listen_host, listen_port_, /*reuseport=*/true);
    CEC_CHECK_MSG(shards_[i]->listener.valid(),
                  "cannot bind shard " << i << " listener on port "
                                       << listen_port_);
  }
  // Restore durable state before any other thread exists: the replay runs
  // on this thread.
  if (!config_.data_dir.empty()) {
    backend_ = std::make_unique<persist::DirBackend>(config_.data_dir);
    std::string key = "s";
    key += std::to_string(config_.node);
    journal_ =
        std::make_unique<persist::Journal>(backend_.get(), std::move(key));
    server_->attach_journal(journal_.get());
    recovered_ = server_->restore_from_journal();
    if (recovered_) {
      CEC_LOG(kInfo) << "net: node " << config_.node
                     << " restored durable state from " << config_.data_dir;
    }
  }
  // The automaton loop runs before the shards can hand it work.
  loop_.start(*server_);
  for (auto& shard : shards_) shard->loop->start();
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->loop->post([this, s] {
      // Shard-local arena recycling for everything the loop thread
      // allocates (frame reassembly, response encoding). Installed once;
      // the loop thread's TLS reference keeps the core alive until join.
      s->pool.install();
      s->loop->watch(s->listener.get(), /*want_read=*/true,
                     /*want_write=*/false,
                     [this, s](std::uint32_t) { accept_ready(s); });
    });
  }
  for (auto& link : links_) link->start();
  // The rejoin digest goes out as the automaton's first real work; frames
  // to still-dialing peers queue in the PeerLink start-up grace window.
  if (recovered_) {
    loop_.post([this] { server_->begin_rejoin(); });
  }
  ready_.store(true, std::memory_order_release);
}

void NodeDaemon::stop() {
  if (!started_) return;
  ready_.store(false, std::memory_order_release);
  // IO first: shut-down links drop the automaton's protocol frames at
  // once, and once the loops are joined no new client tasks can arrive.
  for (auto& link : links_) link->shutdown();
  for (auto& shard : shards_) shard->loop->stop();
  loop_.stop();
  started_ = false;
}

void NodeDaemon::accept_ready(Shard* shard) {
  while (true) {
    ScopedFd fd = accept_nonblocking(shard->listener.get());
    if (!fd.valid()) return;
    auto conn = std::make_shared<Connection>(shard->loop.get(),
                                             std::move(fd));
    auto state = std::make_shared<InboundConn>();
    state->shard = shard;
    conn->open(
        [this, state](const std::shared_ptr<Connection>& c,
                      erasure::Buffer payload) {
          handle_inbound_frame(state, c, std::move(payload));
        },
        [](const std::shared_ptr<Connection>&) {});
  }
}

void NodeDaemon::handle_inbound_frame(
    const std::shared_ptr<InboundConn>& state,
    const std::shared_ptr<Connection>& conn, erasure::Buffer payload) {
  const std::optional<std::uint8_t> type = peek_type(payload);
  if (!type.has_value()) {
    conn->close();
    return;
  }
  if (!state->helloed) {
    const std::optional<Hello> hello = decode_hello(std::move(payload));
    if (!hello.has_value()) {
      CEC_LOG(kWarn) << "net: closing connection with malformed hello";
      conn->close();
      return;
    }
    if (hello->role == PeerRole::kServer &&
        (hello->node >= code_->num_servers() ||
         hello->node == config_.node)) {
      CEC_LOG(kWarn) << "net: closing peer connection claiming bogus node "
                     << hello->node;
      conn->close();
      return;
    }
    state->helloed = true;
    state->role = hello->role;
    state->peer_node = hello->node;
    return;
  }
  if (state->role == PeerRole::kServer) {
    if (*type < kClientProtoBase) {
      // A CausalEC protocol frame: attribute it to the channel's node and
      // hand the still-serialized bytes to the automaton (deserialization
      // happens there, aliasing this frame's arena).
      loop_.deliver_frame(state->peer_node, std::move(payload));
      return;
    }
    CEC_LOG(kWarn) << "net: peer " << state->peer_node
                   << " sent a client frame on a protocol link; closing";
    conn->close();
    return;
  }
  // Client connection. Requests are validated here on the shard thread so
  // a hostile frame can never reach (and abort) the automaton.
  switch (static_cast<ClientMsgType>(*type)) {
    case ClientMsgType::kPing: {
      // Answered on the shard thread: readiness probing must work even
      // while the automaton is busy replaying a journal.
      const std::optional<Ping> ping = decode_ping(std::move(payload));
      if (!ping.has_value()) break;
      conn->send(encode_frame(encode_pong(Pong{ping->token, ready()})));
      return;
    }
    case ClientMsgType::kWriteReq: {
      std::optional<WriteReq> req = decode_write_req(std::move(payload));
      if (!req.has_value()) break;
      if (req->object >= code_->num_objects() ||
          req->value.size() != code_->value_bytes()) {
        break;
      }
      state->shard->client_ops.fetch_add(1, std::memory_order_relaxed);
      loop_.post([this, req = std::move(*req), conn]() mutable {
        handle_write_req(std::move(req), conn);
      });
      return;
    }
    case ClientMsgType::kReadReq: {
      const std::optional<ReadReq> req = decode_read_req(std::move(payload));
      if (!req.has_value()) break;
      if (req->object >= code_->num_objects()) break;
      state->shard->client_ops.fetch_add(1, std::memory_order_relaxed);
      loop_.post([this, req = *req, conn] { handle_read_req(req, conn); });
      return;
    }
    case ClientMsgType::kStatsReq: {
      if (!decode_stats_req(std::move(payload))) break;
      loop_.post([this, conn] { handle_stats_req(conn); });
      return;
    }
    case ClientMsgType::kRoutedWriteReq: {
      std::optional<RoutedWriteReq> req =
          decode_routed_write_req(std::move(payload));
      if (!req.has_value()) break;
      if (req->object >= code_->num_objects() ||
          req->value.size() != code_->value_bytes() ||
          (req->frontier.size() != 0 &&
           req->frontier.size() != code_->num_servers())) {
        break;
      }
      state->shard->client_ops.fetch_add(1, std::memory_order_relaxed);
      ParkedOp op;
      op.is_write = true;
      op.opid = req->opid;
      op.client = req->client;
      op.object = req->object;
      op.frontier = std::move(req->frontier);
      op.value = std::move(req->value);
      op.conn = conn;
      loop_.post([this, op = std::move(op)]() mutable {
        handle_routed_op(std::move(op));
      });
      return;
    }
    case ClientMsgType::kRoutedReadReq: {
      std::optional<RoutedReadReq> req =
          decode_routed_read_req(std::move(payload));
      if (!req.has_value()) break;
      if (req->object >= code_->num_objects() ||
          (req->frontier.size() != 0 &&
           req->frontier.size() != code_->num_servers())) {
        break;
      }
      state->shard->client_ops.fetch_add(1, std::memory_order_relaxed);
      ParkedOp op;
      op.is_write = false;
      op.opid = req->opid;
      op.client = req->client;
      op.object = req->object;
      op.frontier = std::move(req->frontier);
      op.conn = conn;
      loop_.post([this, op = std::move(op)]() mutable {
        handle_routed_op(std::move(op));
      });
      return;
    }
    default:
      break;
  }
  CEC_LOG(kWarn) << "net: closing client connection after malformed frame "
                    "(type "
                 << static_cast<int>(*type) << ")";
  conn->close();
}

OpId NodeDaemon::next_daemon_opid() { return opid_counter_++; }

void NodeDaemon::handle_write_req(WriteReq req,
                                  std::shared_ptr<Connection> conn) {
  const OpId opid = next_daemon_opid();
  // Alg. 1 answers the client in the step that sends the write's app
  // messages, so the ack goes out first and the n-1 peer frames leave the
  // client's critical path. They are released whatever became of the ack.
  // Each peer channel stays FIFO: this thread is the only sender of
  // protocol frames, and the held ones go out before its next send.
  transport_->hold();
  const Tag tag =
      server_->client_write(req.client, opid, req.object,
                            std::move(req.value));
  WriteResp resp;
  resp.opid = req.opid;
  resp.tag = tag;
  resp.vc = server_->clock();
  conn->send(encode_frame(encode_write_resp(resp)));
  transport_->release_held();
}

void NodeDaemon::handle_read_req(ReadReq req,
                                 std::shared_ptr<Connection> conn) {
  const OpId opid = next_daemon_opid();
  server_->client_read(
      req.client, opid, req.object,
      // The callback fires on the automaton thread (possibly inline); a
      // connection that died meanwhile just drops the response.
      [conn = std::move(conn), client_opid = req.opid](
          const erasure::Value& value, const Tag& tag,
          const VectorClock& vc) {
        ReadResp resp;
        resp.opid = client_opid;
        resp.tag = tag;
        resp.vc = vc;
        resp.value = value;
        conn->send(encode_frame(encode_read_resp(resp)));
      });
}

bool NodeDaemon::frontier_satisfied(const VectorClock& frontier) const {
  if (frontier.size() == 0) return true;  // fresh session, no constraint
  return frontier.leq(server_->clock());
}

void NodeDaemon::handle_routed_op(ParkedOp op) {
  if (frontier_satisfied(op.frontier)) {
    serve_parked(std::move(op));
    return;
  }
  if (parked_.size() >= config_.max_parked) {
    // A full parking lot means either a hostile frontier flood or a badly
    // partitioned cluster; shed the new request rather than grow unbounded.
    CEC_LOG(kWarn) << "net: parked-op cap reached, shedding routed request";
    op.conn->close();
    return;
  }
  op.deadline = Clock::now() + config_.park_timeout;
  parked_.push_back(std::move(op));
}

void NodeDaemon::serve_parked(ParkedOp op) {
  // The clock now dominates the session frontier, so the response tag /
  // timestamp are guaranteed to extend the session's history: a write's
  // new tag strictly dominates the frontier on this node's component, and
  // a read's arbitration set contains every write the session has seen.
  if (op.is_write) {
    WriteReq req;
    req.opid = op.opid;
    req.client = op.client;
    req.object = op.object;
    req.value = std::move(op.value);
    handle_write_req(std::move(req), std::move(op.conn));
  } else {
    ReadReq req;
    req.opid = op.opid;
    req.client = op.client;
    req.object = op.object;
    handle_read_req(req, std::move(op.conn));
  }
}

void NodeDaemon::retry_parked() {
  if (parked_.empty()) return;
  const auto now = Clock::now();
  std::deque<ParkedOp> keep;
  while (!parked_.empty()) {
    ParkedOp op = std::move(parked_.front());
    parked_.pop_front();
    if (frontier_satisfied(op.frontier)) {
      serve_parked(std::move(op));
    } else if (op.deadline <= now) {
      // The frontier never materialized (dead peers, or a fabricated
      // clock): fail the op visibly instead of holding the slot forever.
      CEC_LOG(kWarn) << "net: routed request parked past its deadline";
      op.conn->close();
    } else {
      keep.push_back(std::move(op));
    }
  }
  parked_ = std::move(keep);
}

void NodeDaemon::handle_stats_req(std::shared_ptr<Connection> conn) {
  StatsResp s;
  s.node = config_.node;
  s.vc = server_->clock();
  const StorageStats st = server_->storage();
  s.history_entries = st.history_entries;
  s.inqueue_entries = st.inqueue_entries;
  s.readl_entries = st.readl_entries;
  const ServerCounters& c = server_->counters();
  s.writes = c.writes;
  s.reads = c.reads;
  s.error_events = c.error1_events + c.error2_events;
  s.recoveries = c.recoveries;
  s.shard_ops.reserve(shards_.size());
  for (const auto& shard : shards_) {
    s.shard_ops.push_back(shard->client_ops.load(std::memory_order_relaxed));
  }
  conn->send(encode_frame(encode_stats_resp(s)));
}

}  // namespace causalec::net
