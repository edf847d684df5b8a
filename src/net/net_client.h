// NetClient: a blocking, one-request-at-a-time client session against a
// causalec_server daemon or a causalec_router (frontdoor::RouterClient is
// this class). Each bench/test session thread owns one (as perfbench's
// net and router workloads do); nothing here is thread-safe.
//
// The client keeps the session's *causal frontier*: the component-wise
// merge of every response vector clock it has seen, sent with every
// request. A server parks a request until its clock dominates the
// frontier, and a router's edge cache serves only witnesses at or beyond
// it, so the session guarantees hold wherever the session's requests go;
// a session that stays on one daemon never parks. The frontier is the
// *entire* session state: frontier() extracts it and set_frontier()
// re-installs it on a fresh client (e.g. across a router restart), and
// the session's guarantees carry over.
//
// Responses carry the serving node's vector clock at the response point, so
// a caller can record consistency-checkable OpRecords (see client_proto.h).
//
// Each client owns an erasure::BufferPool, installed on the calling thread
// for the length of every call and then replaced by whatever pool the
// thread had: a request's Writer arena and the arenas its response is read
// into recycle across calls instead of costing two mallocs per operation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "causalec/tag.h"
#include "common/types.h"
#include "erasure/arena_pool.h"
#include "erasure/value.h"
#include "net/client_proto.h"
#include "net/frame.h"
#include "net/socket.h"

namespace causalec::net {

class NetClient {
 public:
  explicit NetClient(ClientId client) : client_(client) {}

  /// Connects ("host:port") and sends the client Hello. False on failure.
  bool connect(const std::string& host_port, int timeout_ms = 5000);

  bool connected() const { return fd_.valid(); }
  ClientId client() const { return client_; }

  /// Per-request receive timeout; a request that times out (or hits any
  /// socket/framing error) returns nullopt and closes the connection.
  void set_io_timeout_ms(int ms) { io_timeout_ms_ = ms; }

  // Each call issues one request and blocks for its response. `opid` is a
  // caller-chosen correlation id echoed back by the daemon or router. A
  // write or read response's clock is merged into the session frontier.
  std::optional<WriteResp> write(OpId opid, ObjectId object,
                                 erasure::Value value);
  std::optional<ReadResp> read(OpId opid, ObjectId object);
  std::optional<Pong> ping(std::uint64_t token);
  /// A daemon's counters (a router closes the connection).
  std::optional<StatsResp> stats();
  /// A router's counters (a daemon closes the connection).
  std::optional<RouterStatsResp> router_stats();

  /// The session's causal frontier (empty until the first response).
  const VectorClock& frontier() const { return frontier_; }
  /// Replaces the frontier wholesale -- session hand-off across router
  /// restarts, or tests forcing a frontier ahead of every clock.
  void set_frontier(VectorClock frontier) { frontier_ = std::move(frontier); }

 private:
  /// Sends `request` and decodes the next frame with `decode`; a response
  /// that fails to decode or to `match` closes the connection.
  template <typename Resp, typename Match>
  std::optional<Resp> call(erasure::Buffer request,
                           std::optional<Resp> (*decode)(erasure::Buffer),
                           Match match);
  /// Frames `payload` (net/frame.h) and writes it whole.
  bool send_payload(erasure::Buffer payload);
  /// The next complete payload frame, or nullopt on timeout/error.
  std::optional<erasure::Buffer> next_frame();
  /// Merges `vc` into the frontier (adopts it when the frontier is empty;
  /// ignores a clock whose size disagrees with the frontier's).
  void advance_frontier(const VectorClock& vc);
  void fail();

  ClientId client_;
  int io_timeout_ms_ = 10'000;
  VectorClock frontier_;
  erasure::BufferPool pool_;
  ScopedFd fd_;
  FrameReader reader_;  // declared after pool_: it holds pooled arenas
};

}  // namespace causalec::net
