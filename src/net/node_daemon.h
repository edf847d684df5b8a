// NodeDaemon: one CausalEC server automaton deployed on real sockets --
// the process core of the causalec_server tool, also embeddable in-process
// for tests (tests/net_loopback_test.cpp runs several under TSan).
//
// Thread model (DESIGN.md §11):
//   * `shards` event-loop threads, each owning a SO_REUSEPORT listener on
//     the same port (the kernel load-balances accepted connections across
//     shards) plus the outbound peer links assigned to it. Shard threads
//     do all socket reads, frame reassembly and client-request validation,
//     and drain write backlogs; frames are written by the thread that
//     sends them, so the automaton's acks and protocol frames reach the
//     sockets without a handoff;
//   * one runtime::AutomatonLoop thread hosting the single-threaded Server
//     -- the same driver as runtime/threaded_cluster: batched inbox, one
//     Apply/Encoding fixpoint per batch, wall-clock GC and snapshot
//     timers, phase metrics -- with parked routed requests retried after
//     every batch.
//
// Durability: a non-empty data_dir attaches a persist::DirBackend journal;
// on start, existing durable state is restored (Server::
// restore_from_journal) and an anti-entropy rejoin round (DESIGN.md §9) is
// posted as the automaton's first task -- the digest frames queue on the
// still-dialing peer links, so SIGKILL + exec restart converges without
// coordination.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "causalec/config.h"
#include "causalec/server.h"
#include "erasure/arena_pool.h"
#include "erasure/code.h"
#include "net/client_proto.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/net_transport.h"
#include "persist/backend.h"
#include "persist/journal.h"
#include "runtime/automaton_loop.h"

namespace causalec::net {

struct NodeDaemonConfig {
  NodeId node = 0;
  std::string listen_host = "127.0.0.1";
  /// 0 = ephemeral (shard 0 resolves it; see listen_port()).
  std::uint16_t listen_port = 0;
  /// host:port of every node, indexed by NodeId (the self entry is
  /// ignored). Size must equal the code's server count.
  std::vector<std::string> peers;
  /// Empty = no durability (crash-stop). Otherwise a directory for the
  /// persist::DirBackend journal of this node.
  std::string data_dir;
  std::size_t shards = 2;
  causalec::ServerConfig server;
  std::chrono::milliseconds gc_period{10};
  std::chrono::milliseconds snapshot_period{100};
  /// Routed requests whose frontier the clock does not yet dominate park on
  /// the automaton (DESIGN.md §12); the cap bounds what a hostile frontier
  /// can pin, and the timeout bounds how long (the connection is then
  /// closed, failing the op at the client).
  std::size_t max_parked = 1024;
  std::chrono::milliseconds park_timeout{5000};
};

class NodeDaemon {
 public:
  NodeDaemon(erasure::CodePtr code, NodeDaemonConfig config);
  ~NodeDaemon();

  NodeDaemon(const NodeDaemon&) = delete;
  NodeDaemon& operator=(const NodeDaemon&) = delete;

  /// Binds listeners, restores durable state if present, starts the shard
  /// loops + automaton thread, and begins dialing peers. Aborts on bind
  /// failure (a daemon that cannot listen has nothing to offer).
  void start();
  void stop();

  /// The resolved listening port (after start()).
  std::uint16_t listen_port() const { return listen_port_; }
  NodeId node() const { return config_.node; }
  /// True once start() completed (including any durable-state restore).
  bool ready() const { return ready_.load(std::memory_order_acquire); }
  /// True when start() restored pre-existing durable state.
  bool recovered() const { return recovered_; }

 private:
  struct Shard {
    std::unique_ptr<EventLoop> loop;
    ScopedFd listener;
    std::atomic<std::uint64_t> client_ops{0};
    /// Arena pool installed on this shard's loop thread (frame reassembly
    /// and response encoding allocate there). Outlives the loop: stop()
    /// joins loop threads before shards are destroyed.
    erasure::BufferPool pool;
  };

  /// Accepted-connection state (which kind of peer is on the other end).
  struct InboundConn {
    bool helloed = false;
    PeerRole role = PeerRole::kClient;
    NodeId peer_node = kNoNode;
    Shard* shard = nullptr;
  };

  /// A routed request waiting for the server clock to reach its session
  /// frontier (automaton thread only). The automaton loop wakes at least
  /// every gc_period and retries parked ops after every batch, so the
  /// retry latency after the clock advances is bounded by that period.
  struct ParkedOp {
    bool is_write = false;
    OpId opid = 0;  // client correlation id
    ClientId client = 0;
    ObjectId object = 0;
    VectorClock frontier;
    erasure::Value value;  // writes only
    std::shared_ptr<Connection> conn;
    std::chrono::steady_clock::time_point deadline;
  };

  // Shard-side plumbing (runs on shard loop threads).
  void accept_ready(Shard* shard);
  void handle_inbound_frame(const std::shared_ptr<InboundConn>& state,
                            const std::shared_ptr<Connection>& conn,
                            erasure::Buffer payload);

  // Automaton-side plumbing (runs on the loop thread).
  /// Acks the write before its peer fan-out (DESIGN.md §11).
  void handle_write_req(WriteReq req, std::shared_ptr<Connection> conn);
  void handle_read_req(ReadReq req, std::shared_ptr<Connection> conn);
  void handle_stats_req(std::shared_ptr<Connection> conn);
  void handle_routed_op(ParkedOp op);
  /// True when `frontier` (empty, or one entry per server) is dominated by
  /// the server clock -- the serve condition for routed requests.
  bool frontier_satisfied(const VectorClock& frontier) const;
  void serve_parked(ParkedOp op);
  /// Serves every parked op whose frontier the clock now dominates and
  /// fails (closes) the ones past their deadline.
  void retry_parked();
  OpId next_daemon_opid();

  erasure::CodePtr code_;
  NodeDaemonConfig config_;
  std::uint16_t listen_port_ = 0;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<PeerLink>> links_;
  std::vector<PeerLink*> link_ptrs_;  // indexed by NodeId; self = null
  std::unique_ptr<NetTransport> transport_;
  std::unique_ptr<causalec::Server> server_;

  std::unique_ptr<persist::DirBackend> backend_;
  std::unique_ptr<persist::Journal> journal_;
  bool recovered_ = false;

  std::deque<ParkedOp> parked_;  // automaton thread only

  std::atomic<bool> ready_{false};
  bool started_ = false;
  /// Daemon-assigned opids for client operations: seeded from wall-clock
  /// seconds so opids from before a process restart are never reused
  /// (stale responses in flight across the restart must miss the ReadL).
  /// Bit 63 stays clear -- that range is the server's internal-opid space.
  OpId opid_counter_ = 0;

  /// The automaton thread; declared last, after everything it touches.
  runtime::AutomatonLoop loop_;
};

}  // namespace causalec::net
