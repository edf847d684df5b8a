// NodeDaemon: one CausalEC server automaton deployed on real sockets --
// the process core of the causalec_server tool, also embeddable in-process
// for tests (tests/net_loopback_test.cpp runs several under TSan).
//
// Thread model (DESIGN.md §11): every socket has one owner thread, and in
// a daemon that is the automaton's.
//   * the `shards` event-loop threads of a net::FrontEnd (s<node>-shard<i>)
//     only accept: each owns a SO_REUSEPORT listener on the same port (the
//     kernel load-balances accepted connections across shards) and opens
//     every connection it accepts on the automaton's loop;
//   * one runtime::AutomatonLoop thread (s<node>-auto) hosts the
//     single-threaded Server -- the same driver as runtime/threaded_cluster:
//     one EventLoop, one Apply/Encoding fixpoint per round, wall-clock GC
//     and snapshot timers, phase metrics -- and serves every connection:
//     it runs the Hello, answers Pings, decodes and serves client requests
//     (parked ones are retried after every round) and dispatches peer
//     protocol frames, and it dials the outbound peer links and writes
//     each round's protocol frames to them when the round ends. A
//     client request is a step of the automaton, with no thread between
//     the socket and the Server.
//
// Durability: a non-empty data_dir attaches a persist::DirBackend journal;
// on start, existing durable state is restored (Server::
// restore_from_journal) and an anti-entropy rejoin round (DESIGN.md §9) is
// posted as the automaton's first task -- the digest frames queue on the
// still-dialing peer links, so SIGKILL + exec restart converges without
// coordination.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "causalec/config.h"
#include "causalec/server.h"
#include "erasure/code.h"
#include "net/client_proto.h"
#include "net/connection.h"
#include "net/front_end.h"
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
  /// Accept threads; every connection is served on the automaton's loop.
  std::size_t shards = 2;
  causalec::ServerConfig server;
  std::chrono::milliseconds gc_period{10};
  std::chrono::milliseconds snapshot_period{100};
  /// Requests whose frontier the clock does not yet dominate park on the
  /// automaton (DESIGN.md §12); the cap bounds what a hostile frontier can
  /// pin (a request beyond it closes its connection at once), and the
  /// timeout bounds how long (the connection is then closed, failing the
  /// op at the client).
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
  std::uint16_t listen_port() const { return front_end_.port(); }
  NodeId node() const { return config_.node; }
  /// True once start() completed (including any durable-state restore).
  bool ready() const { return front_end_.ready(); }
  /// True when start() restored pre-existing durable state.
  bool recovered() const { return recovered_; }

 private:
  /// A request waiting for the server clock to reach its session frontier
  /// (automaton thread only). The automaton loop wakes at least every
  /// gc_period and retries parked ops after every round, so the retry
  /// latency after the clock advances is bounded by that period.
  struct ParkedOp {
    std::variant<WriteReq, ReadReq> req;
    std::shared_ptr<Connection> conn;
    std::chrono::steady_clock::time_point deadline;
  };

  // Everything below runs on the automaton thread.
  /// Every frame after a connection's Hello, but a client's Ping: a peer's
  /// protocol frame is dispatched to the Server, a client's request
  /// decoded and served. False for anything malformed or out of place.
  bool handle_frame(const FrontEnd::Peer& peer,
                    const std::shared_ptr<Connection>& conn,
                    erasure::Buffer payload);
  /// Serves `req` when the clock dominates its frontier, else parks it.
  template <typename Req>
  void handle_request(Req req, std::shared_ptr<Connection> conn);
  /// Acks the write at once; its peer fan-out leaves at the end of the
  /// round (DESIGN.md §11).
  void serve(WriteReq req, std::shared_ptr<Connection> conn);
  void serve(ReadReq req, std::shared_ptr<Connection> conn);
  void handle_stats_req(std::shared_ptr<Connection> conn);
  /// True when `frontier` (empty, or one entry per server) is dominated by
  /// the server clock -- the serve condition for every request.
  bool frontier_satisfied(const VectorClock& frontier) const;
  /// Serves every parked op whose frontier the clock now dominates and
  /// fails (closes) the ones past their deadline.
  void retry_parked();
  OpId next_daemon_opid();

  erasure::CodePtr code_;
  NodeDaemonConfig config_;

  FrontEnd front_end_;
  /// Client requests per accepting shard (automaton thread only).
  std::vector<std::uint64_t> shard_ops_;
  std::vector<std::unique_ptr<PeerLink>> links_;
  std::vector<PeerLink*> link_ptrs_;  // indexed by NodeId; self = null
  std::unique_ptr<causalec::Server> server_;

  std::unique_ptr<persist::DirBackend> backend_;
  std::unique_ptr<persist::Journal> journal_;
  bool recovered_ = false;

  std::deque<ParkedOp> parked_;  // automaton thread only

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
