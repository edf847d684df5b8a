// Client/control messages that share a framed connection with the CausalEC
// protocol frames. Encoded with the same wire primitives (wire::Writer /
// wire::SafeReader); distinguished from protocol frames by the type byte:
// protocol messages use 1..9 (causalec/codec.cpp), these use 64+.
//
//   hello             := 64 role:u8 node:u32    (first frame on every conn)
//   write_req         := 65 opid:u64 client:u64 object:u32 frontier value
//   read_req          := 66 opid:u64 client:u64 object:u32 frontier
//   ping              := 67 token:u64
//   stats_req         := 68
//   write_resp        := 69 opid:u64 tag vc
//   read_resp         := 70 opid:u64 tag vc cached:u8 value
//   pong              := 71 token:u64 ready:u8
//   stats_resp        := 72 node:u32 vc history:u64 inqueue:u64 readl:u64
//                        writes:u64 reads:u64 errors:u64 recoveries:u64
//                        shards:u32 shard_ops:u64[shards]
//   router_stats_req  := 76
//   router_stats_resp := 77 (counter block; see RouterStatsResp)
//
// Every request carries the client session's causal frontier -- the merge
// of every response vector clock the session has seen (DESIGN.md §12);
// empty for a fresh session. A server parks a request until its own clock
// dominates the frontier, so a session that moves between servers or
// routers keeps its guarantees; a session that stays on one server never
// parks, since that server's clock only grows. The router's edge cache
// serves a read only when frontier <= entry clock, and sets `cached` on
// the response. Types 73..75 are unused.
//
// Responses carry the issuing server's vector clock at the response point,
// which is exactly the timestamp the consistency checkers (Definition 6)
// need -- a remote client can therefore record checkable OpRecords.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "causalec/tag.h"
#include "common/types.h"
#include "erasure/buffer.h"
#include "erasure/value.h"

namespace causalec::net {

/// First type byte of the client/control range; payload first bytes below
/// this are CausalEC protocol frames.
inline constexpr std::uint8_t kClientProtoBase = 64;

enum class ClientMsgType : std::uint8_t {
  kHello = 64,
  kWriteReq = 65,
  kReadReq = 66,
  kPing = 67,
  kStatsReq = 68,
  kWriteResp = 69,
  kReadResp = 70,
  kPong = 71,
  kStatsResp = 72,
  kRouterStatsReq = 76,
  kRouterStatsResp = 77,
};

enum class PeerRole : std::uint8_t { kServer = 0, kClient = 1 };

struct Hello {
  PeerRole role = PeerRole::kClient;
  NodeId node = 0;  // server id for kServer; informational for kClient
};

struct WriteReq {
  OpId opid = 0;  // client correlation id, echoed in the response
  ClientId client = 0;
  ObjectId object = 0;
  /// The session's causal frontier: empty (a fresh session) or one entry
  /// per server. The serving node parks the request until its clock
  /// dominates it.
  VectorClock frontier;
  erasure::Value value;
};

struct ReadReq {
  OpId opid = 0;
  ClientId client = 0;
  ObjectId object = 0;
  VectorClock frontier;
};

struct Ping {
  std::uint64_t token = 0;
};

struct WriteResp {
  OpId opid = 0;
  Tag tag;
  VectorClock vc;
};

struct ReadResp {
  OpId opid = 0;
  Tag tag;
  VectorClock vc;
  /// True when a router answered from its edge cache without touching a
  /// backend (per-tier latency attribution in perfbench's router-zipf).
  bool cached = false;
  erasure::Value value;
};

struct Pong {
  std::uint64_t token = 0;
  bool ready = false;
};

struct StatsResp {
  NodeId node = 0;
  VectorClock vc;
  std::uint64_t history_entries = 0;
  std::uint64_t inqueue_entries = 0;
  std::uint64_t readl_entries = 0;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t error_events = 0;  // error1 + error2 (must stay 0)
  std::uint64_t recoveries = 0;
  /// Client operations handled per shard since process start.
  std::vector<std::uint64_t> shard_ops;
};

/// Front-door tier counters since router start (DESIGN.md §12). Cache
/// outcomes partition routed reads: hits serve locally; misses, stale
/// rejections (frontier ahead of the entry), and TTL expiries all fall
/// through to a backend.
struct RouterStatsResp {
  std::uint64_t routed_writes = 0;
  std::uint64_t routed_reads = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_stale = 0;
  std::uint64_t cache_expired = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t fallthroughs = 0;
  /// Requests sent somewhere other than the ring owner's first choice
  /// because a backend link was down.
  std::uint64_t reroutes = 0;
  /// Backend link up/down transitions (each changes effective ownership).
  std::uint64_t ring_remaps = 0;
  /// Requests forwarded per backend node since router start.
  std::vector<std::uint64_t> backend_ops;

  bool operator==(const RouterStatsResp&) const = default;
};

/// Whether a decoded request fits a cluster of `servers` servers storing
/// `objects` objects of `value_bytes` each: the object exists, the
/// frontier is empty or has one entry per server, and a write's value is
/// one object long. Daemons and routers check it on the thread that reads
/// the request, before it can reach an automaton, a backend or the cache.
bool fits_cluster(const WriteReq& req, std::size_t servers,
                  std::size_t objects, std::size_t value_bytes);
bool fits_cluster(const ReadReq& req, std::size_t servers,
                  std::size_t objects, std::size_t value_bytes);

/// The type byte of a payload frame, or nullopt when empty.
std::optional<std::uint8_t> peek_type(const erasure::Buffer& payload);

// Encoders produce the *payload*: Connection::send and NetClient add the
// length prefix (net/frame.h), with no copy, into the room Writer left
// for it in front of the payload.
erasure::Buffer encode_hello(const Hello& m);
erasure::Buffer encode_write_req(const WriteReq& m);
erasure::Buffer encode_read_req(const ReadReq& m);
erasure::Buffer encode_ping(const Ping& m);
erasure::Buffer encode_stats_req();
erasure::Buffer encode_write_resp(const WriteResp& m);
erasure::Buffer encode_read_resp(const ReadResp& m);
erasure::Buffer encode_pong(const Pong& m);
erasure::Buffer encode_stats_resp(const StatsResp& m);
erasure::Buffer encode_router_stats_req();
erasure::Buffer encode_router_stats_resp(const RouterStatsResp& m);

// Decoders: nullopt on malformed input (wrong type byte, truncation,
// hostile length fields) -- never abort; remote bytes are untrusted.
std::optional<Hello> decode_hello(erasure::Buffer payload);
std::optional<WriteReq> decode_write_req(erasure::Buffer payload);
std::optional<ReadReq> decode_read_req(erasure::Buffer payload);
std::optional<Ping> decode_ping(erasure::Buffer payload);
bool decode_stats_req(erasure::Buffer payload);
std::optional<WriteResp> decode_write_resp(erasure::Buffer payload);
std::optional<ReadResp> decode_read_resp(erasure::Buffer payload);
std::optional<Pong> decode_pong(erasure::Buffer payload);
std::optional<StatsResp> decode_stats_resp(erasure::Buffer payload);
bool decode_router_stats_req(erasure::Buffer payload);
std::optional<RouterStatsResp> decode_router_stats_resp(
    erasure::Buffer payload);

}  // namespace causalec::net
