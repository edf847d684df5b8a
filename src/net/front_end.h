// FrontEnd: the socket front end that NodeDaemon and frontdoor::Router
// share (DESIGN.md §11). It owns `shards` event-loop threads, named
// <name>-shard<i>, each with a SO_REUSEPORT listener on the same port (the
// kernel load-balances accepted connections across them) and an arena pool
// installed on the loop thread.
//
// Every socket has one owner thread. A shard accepts a connection and
// opens it on the loop that serves it: the one start() names (a daemon
// passes its automaton's loop), or else the accepting shard (a router).
// That loop runs the Hello handshake, answers a client's Pings from the
// ready flag, and hands every other frame to the owner's handler, which
// validates it there, so a hostile frame never gets past the decoders.
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
  /// Serving loop: every non-empty frame after the Hello, except a
  /// client's Ping. Returns false for a malformed or unexpected frame; the
  /// connection is then logged and closed.
  using FrameHandler =
      std::function<bool(const Peer& peer,
                         const std::shared_ptr<Connection>& conn,
                         erasure::Buffer payload)>;
  /// Serving loop: false rejects a well-formed Hello (and closes the
  /// connection). Null accepts every Hello.
  using HelloCheck = std::function<bool(const Hello& hello)>;

  /// `name` prefixes the log lines and the shard threads' names ("s0",
  /// "router").
  FrontEnd(std::string name, std::size_t shards, FrameHandler on_frame,
           HelloCheck accept_hello = nullptr);
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Binds every shard's listener on host:port: shard 0 resolves port 0,
  /// the others bind the port it got. Aborts on failure (an endpoint that
  /// cannot listen has nothing to offer).
  void listen(const std::string& host, std::uint16_t port);
  /// Starts the shard loops; each installs its arena pool, then accepts.
  /// Accepted connections are served on `serve_on` (running, and
  /// outliving the front end's connections) when given, else on the shard
  /// that accepted them.
  void start(runtime::EventLoop* serve_on = nullptr);
  /// Clears the ready flag and joins the shard loops. Idempotent.
  void stop();

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

  /// Accepted-connection state (serving loop only).
  struct Inbound {
    bool helloed = false;
    Peer peer;
  };

  void accept_ready(std::size_t shard);
  /// Serving loop: registers `conn`, accepted by `shard`, and reads it.
  void open(const std::shared_ptr<Connection>& conn, std::size_t shard);
  void handle_frame(Inbound& in, const std::shared_ptr<Connection>& conn,
                    erasure::Buffer payload);

  const std::string name_;
  const FrameHandler on_frame_;
  const HelloCheck accept_hello_;
  std::vector<std::unique_ptr<Shard>> shards_;
  runtime::EventLoop* serve_on_ = nullptr;  // set by start()
  std::uint16_t port_ = 0;
  std::atomic<bool> ready_{false};
};

}  // namespace causalec::net
