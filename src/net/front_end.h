// FrontEnd: the socket front end that NodeDaemon and frontdoor::Router
// share (DESIGN.md §11). It owns `shards` event-loop threads, each with a
// SO_REUSEPORT listener on the same port (the kernel load-balances
// accepted connections across them) and an arena pool installed on the
// loop thread, where frame reassembly and response encoding allocate.
//
// On each accepted connection it runs the Hello handshake and answers a
// client's Pings from its ready flag, both on the shard thread, so
// readiness probing works while the owner's automaton is still replaying a
// journal. Every other frame of a client goes to the owner's handler on
// the same shard thread; the owner validates it there, so a hostile frame
// never gets further than the shard. A connection whose Hello names a
// server can be taken over by the owner right after the Hello (a daemon
// moves it to its automaton's loop); shards then read client connections
// only.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "erasure/arena_pool.h"
#include "erasure/buffer.h"
#include "net/client_proto.h"
#include "net/connection.h"
#include "net/socket.h"
#include "runtime/event_loop.h"

namespace causalec::net {

class FrontEnd {
 public:
  /// What a connection's Hello said, and the shard that accepted it.
  struct Peer {
    PeerRole role = PeerRole::kClient;
    NodeId node = kNoNode;
    std::size_t shard = 0;
  };
  /// Shard thread: every non-empty frame after the Hello, except a client's
  /// Ping. Returns false for a malformed or unexpected frame; the
  /// connection is then logged and closed.
  using FrameHandler =
      std::function<bool(const Peer& peer,
                         const std::shared_ptr<Connection>& conn,
                         erasure::Buffer payload)>;
  /// Shard thread: false rejects a well-formed Hello (and closes the
  /// connection). Null accepts every Hello.
  using HelloCheck = std::function<bool(const Hello& hello)>;
  /// Shard thread, right after an accepted Hello that names server `node`:
  /// the owner takes the connection over (Connection::hand_off). Null
  /// leaves it on the shard, its frames going to the FrameHandler.
  using ServerHandoff = std::function<void(
      NodeId node, const std::shared_ptr<Connection>& conn)>;

  /// `name` prefixes the log lines ("net", "router").
  FrontEnd(std::string name, std::size_t shards, FrameHandler on_frame,
           HelloCheck accept_hello = nullptr,
           ServerHandoff take_server = nullptr);
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Binds every shard's listener on host:port: shard 0 resolves port 0,
  /// the others bind the port it got. Aborts on failure (an endpoint that
  /// cannot listen has nothing to offer).
  void listen(const std::string& host, std::uint16_t port);
  /// Starts the shard loops; each installs its arena pool, then accepts.
  void start();
  /// Clears the ready flag and joins the shard loops. Idempotent.
  void stop();

  std::size_t shards() const { return shards_.size(); }
  runtime::EventLoop* loop(std::size_t shard) const {
    return shards_[shard]->loop.get();
  }
  /// The resolved listening port (after listen()).
  std::uint16_t port() const { return port_; }

  /// What Pongs report. The owner sets it once its start() is complete.
  bool ready() const { return ready_.load(std::memory_order_acquire); }
  void set_ready(bool ready) {
    ready_.store(ready, std::memory_order_release);
  }

 private:
  struct Shard {
    std::unique_ptr<runtime::EventLoop> loop;
    ScopedFd listener;
    /// Installed on the loop thread. Outlives the loop: stop() joins loop
    /// threads before shards are destroyed.
    erasure::BufferPool pool;
  };

  /// Accepted-connection state (loop thread only).
  struct Inbound {
    bool helloed = false;
    Peer peer;
  };

  void accept_ready(std::size_t shard);
  void handle_frame(Inbound& in, const std::shared_ptr<Connection>& conn,
                    erasure::Buffer payload);

  const std::string name_;
  const FrameHandler on_frame_;
  const HelloCheck accept_hello_;
  const ServerHandoff take_server_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint16_t port_ = 0;
  std::atomic<bool> ready_{false};
};

}  // namespace causalec::net
