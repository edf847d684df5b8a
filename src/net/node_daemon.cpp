#include "net/node_daemon.h"

#include <string>
#include <utility>

#include "common/expect.h"
#include "common/logging.h"
#include "net/socket.h"

namespace causalec::net {

namespace {

using Clock = std::chrono::steady_clock;

/// "s<node>": names the daemon's shard threads and prefixes its front
/// end's log lines.
std::string node_name(NodeId node) {
  std::string name = "s";
  name += std::to_string(node);
  return name;
}

}  // namespace

NodeDaemon::NodeDaemon(erasure::CodePtr code, NodeDaemonConfig config)
    : code_(std::move(code)),
      config_(std::move(config)),
      front_end_(
          node_name(config_.node), config_.shards,
          [this](const FrontEnd::Peer& peer,
                 const std::shared_ptr<Connection>& conn,
                 erasure::Buffer payload) {
            return handle_frame(peer, conn, std::move(payload));
          },
          [this](const Hello& hello) {
            // A peer must name another node of this cluster.
            return hello.role != PeerRole::kServer ||
                   (hello.node < code_->num_servers() &&
                    hello.node != config_.node);
          }),
      shard_ops_(config_.shards, 0),
      loop_(config_.node, config_.server.obs, config_.gc_period,
            config_.snapshot_period) {
  const std::size_t n = code_->num_servers();
  CEC_CHECK(config_.node < n);
  CEC_CHECK_MSG(config_.peers.size() == n,
                "peers list has " << config_.peers.size() << " entries for "
                                  << n << " servers");
  link_ptrs_.assign(n, nullptr);
  for (NodeId peer = 0; peer < n; ++peer) {
    if (peer == config_.node) continue;
    const auto addr = parse_host_port(config_.peers[peer]);
    CEC_CHECK_MSG(addr.has_value(),
                  "bad peer address '" << config_.peers[peer] << "'");
    links_.push_back(std::make_unique<PeerLink>(
        &loop_.event_loop(), peer, addr->first, addr->second,
        Hello{PeerRole::kServer, config_.node},
        [this](NodeId who, bool down) { server_->set_peer_down(who, down); }));
    link_ptrs_[peer] = links_.back().get();
  }
  // The Server sends through the loop's outbox; each round's end hands a
  // peer's batch to its link, one frame at a time, in send order.
  loop_.set_peer_sink([this](NodeId to,
                             std::span<runtime::AutomatonLoop::Envelope> batch) {
    CEC_CHECK(to < link_ptrs_.size() && link_ptrs_[to] != nullptr);
    for (auto& out : batch) link_ptrs_[to]->send(std::move(out.frame));
  });
  server_ = std::make_unique<causalec::Server>(config_.node, code_,
                                               config_.server,
                                               &loop_.transport());
  // A round may have advanced the clock (applied writes, anti-entropy), so
  // parked requests get one retry after each.
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
  front_end_.listen(config_.listen_host, config_.listen_port);
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
  // The automaton loop runs before the shards open connections on it.
  loop_.start(*server_);
  front_end_.start(&loop_.event_loop());
  for (auto& link : links_) link->start();
  // The rejoin digest goes out as the automaton's first real work; frames
  // to still-dialing peers queue in the PeerLink start-up grace window.
  if (recovered_) {
    loop_.post([this] { server_->begin_rejoin(); });
  }
  front_end_.set_ready(true);
}

void NodeDaemon::stop() {
  if (!started_) return;
  // The loops first: once they are joined nothing reads, sends or dials,
  // and the links, which the automaton's loop owns, close from here.
  front_end_.stop();
  loop_.stop();
  for (auto& link : links_) link->shutdown();
  started_ = false;
}

bool NodeDaemon::handle_frame(const FrontEnd::Peer& peer,
                              const std::shared_ptr<Connection>& conn,
                              erasure::Buffer payload) {
  const std::uint8_t type = payload.data()[0];
  if (peer.role == PeerRole::kServer) {
    // A CausalEC protocol frame, attributed to the node the channel's
    // Hello named and decoded here, aliasing the read's arena. Anything
    // else on a protocol link closes it.
    if (type >= kClientProtoBase) return false;
    loop_.dispatch_frame(peer.node, std::move(payload));
    return true;
  }
  // A client's request is decoded and checked against the cluster before
  // it can reach the Server, so a hostile frame closes its connection
  // instead of tripping a CEC_CHECK.
  const auto request = [&](auto req) {
    if (!req.has_value() ||
        !fits_cluster(*req, code_->num_servers(), code_->num_objects(),
                      code_->value_bytes())) {
      return false;
    }
    ++shard_ops_[peer.shard];
    handle_request(std::move(*req), conn);
    return true;
  };
  switch (static_cast<ClientMsgType>(type)) {
    case ClientMsgType::kWriteReq:
      return request(decode_write_req(std::move(payload)));
    case ClientMsgType::kReadReq:
      return request(decode_read_req(std::move(payload)));
    case ClientMsgType::kStatsReq:
      if (!decode_stats_req(std::move(payload))) return false;
      handle_stats_req(conn);
      return true;
    default:
      return false;
  }
}

OpId NodeDaemon::next_daemon_opid() { return opid_counter_++; }

bool NodeDaemon::frontier_satisfied(const VectorClock& frontier) const {
  if (frontier.size() == 0) return true;  // fresh session, no constraint
  return frontier.leq(server_->clock());
}

template <typename Req>
void NodeDaemon::handle_request(Req req, std::shared_ptr<Connection> conn) {
  // Once the clock dominates the session frontier, the response tag and
  // timestamp extend the session's history: a write's new tag strictly
  // dominates the frontier on this node's component, and a read's
  // arbitration set contains every write the session has seen.
  if (frontier_satisfied(req.frontier)) {
    serve(std::move(req), std::move(conn));
    return;
  }
  if (parked_.size() >= config_.max_parked) {
    // A full parking lot means either a hostile frontier flood or a badly
    // partitioned cluster; shed the new request rather than grow unbounded.
    CEC_LOG(kWarn) << "net: parked-op cap reached, shedding a request";
    conn->close();
    return;
  }
  parked_.push_back(ParkedOp{std::move(req), std::move(conn),
                             Clock::now() + config_.park_timeout});
}

void NodeDaemon::serve(WriteReq req, std::shared_ptr<Connection> conn) {
  const OpId opid = next_daemon_opid();
  // The ack goes out now; the write's app messages wait in the round's
  // outbox (runtime/automaton_loop.h), off the client's critical path.
  const Tag tag =
      server_->client_write(req.client, opid, req.object,
                            std::move(req.value));
  WriteResp resp;
  resp.opid = req.opid;
  resp.tag = tag;
  resp.vc = server_->clock();
  conn->send(encode_write_resp(resp));
}

void NodeDaemon::serve(ReadReq req, std::shared_ptr<Connection> conn) {
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
        conn->send(encode_read_resp(resp));
      });
}

void NodeDaemon::retry_parked() {
  if (parked_.empty()) return;
  const auto now = Clock::now();
  std::deque<ParkedOp> keep;
  while (!parked_.empty()) {
    ParkedOp op = std::move(parked_.front());
    parked_.pop_front();
    const VectorClock& frontier = std::visit(
        [](const auto& req) -> const VectorClock& { return req.frontier; },
        op.req);
    if (frontier_satisfied(frontier)) {
      std::visit(
          [&](auto& req) { serve(std::move(req), std::move(op.conn)); },
          op.req);
    } else if (op.deadline <= now) {
      // The frontier never materialized (dead peers, or a fabricated
      // clock): fail the op visibly instead of holding the slot forever.
      CEC_LOG(kWarn) << "net: request parked past its deadline";
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
  s.shard_ops = shard_ops_;
  conn->send(encode_stats_resp(s));
}

}  // namespace causalec::net
