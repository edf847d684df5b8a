// NetClient: a blocking, one-request-at-a-time client connection to a
// causalec_server daemon. Each bench/test client thread owns one (as
// perfbench's net workloads do); nothing here is thread-safe.
//
// Responses carry the serving node's vector clock at the response point, so
// a caller can record consistency-checkable OpRecords (see client_proto.h).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.h"
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
  // caller-chosen correlation id echoed back by the daemon.
  std::optional<WriteResp> write(OpId opid, ObjectId object,
                                 erasure::Value value);
  std::optional<ReadResp> read(OpId opid, ObjectId object);
  std::optional<Pong> ping(std::uint64_t token);
  std::optional<StatsResp> stats();

 private:
  bool send_payload(const std::vector<std::uint8_t>& payload);
  /// The next complete payload frame, or nullopt on timeout/error.
  std::optional<erasure::Buffer> next_frame();
  void fail();

  ClientId client_;
  int io_timeout_ms_ = 10'000;
  ScopedFd fd_;
  FrameReader reader_;
};

}  // namespace causalec::net
