#include "net/client_proto.h"

#include "causalec/wire_format.h"

namespace causalec::net {

namespace {

using wire::SafeReader;
using wire::Writer;

/// Per-frame caps derived from the bytes present, mirroring codec.cpp: a
/// corrupted count can never size an allocation beyond the frame itself.
std::size_t clock_cap(const SafeReader& r) { return r.remaining() / 8; }

/// Opens a reader and consumes the expected type byte; the reader is
/// latched failed on mismatch.
SafeReader open(erasure::Buffer payload, ClientMsgType expected) {
  SafeReader r(std::move(payload));
  if (r.u8() != static_cast<std::uint8_t>(expected)) {
    r.fail("unexpected message type byte");
  }
  return r;
}

}  // namespace

bool fits_cluster(const ReadReq& req, std::size_t servers,
                  std::size_t objects, std::size_t /*value_bytes*/) {
  return req.object < objects &&
         (req.frontier.size() == 0 || req.frontier.size() == servers);
}

bool fits_cluster(const WriteReq& req, std::size_t servers,
                  std::size_t objects, std::size_t value_bytes) {
  return req.object < objects &&
         (req.frontier.size() == 0 || req.frontier.size() == servers) &&
         req.value.size() == value_bytes;
}

std::optional<std::uint8_t> peek_type(const erasure::Buffer& payload) {
  if (payload.empty()) return std::nullopt;
  return payload.data()[0];
}

erasure::Buffer encode_hello(const Hello& m) {
  Writer w(8);
  w.u8(static_cast<std::uint8_t>(ClientMsgType::kHello));
  w.u8(static_cast<std::uint8_t>(m.role));
  w.u32(m.node);
  return w.take_frame();
}

erasure::Buffer encode_write_req(const WriteReq& m) {
  Writer w(40 + 8 * m.frontier.size() + m.value.size());
  w.u8(static_cast<std::uint8_t>(ClientMsgType::kWriteReq));
  w.u64(m.opid);
  w.u64(m.client);
  w.u32(m.object);
  w.clock(m.frontier);
  w.bytes(m.value);
  return w.take_frame();
}

erasure::Buffer encode_read_req(const ReadReq& m) {
  Writer w(32 + 8 * m.frontier.size());
  w.u8(static_cast<std::uint8_t>(ClientMsgType::kReadReq));
  w.u64(m.opid);
  w.u64(m.client);
  w.u32(m.object);
  w.clock(m.frontier);
  return w.take_frame();
}

erasure::Buffer encode_ping(const Ping& m) {
  Writer w(12);
  w.u8(static_cast<std::uint8_t>(ClientMsgType::kPing));
  w.u64(m.token);
  return w.take_frame();
}

erasure::Buffer encode_stats_req() {
  Writer w(1);
  w.u8(static_cast<std::uint8_t>(ClientMsgType::kStatsReq));
  return w.take_frame();
}

erasure::Buffer encode_write_resp(const WriteResp& m) {
  Writer w(32 + 8 * (m.vc.size() + m.tag.ts.size()));
  w.u8(static_cast<std::uint8_t>(ClientMsgType::kWriteResp));
  w.u64(m.opid);
  w.tag(m.tag);
  w.clock(m.vc);
  return w.take_frame();
}

erasure::Buffer encode_read_resp(const ReadResp& m) {
  Writer w(48 + 8 * (m.vc.size() + m.tag.ts.size()) + m.value.size());
  w.u8(static_cast<std::uint8_t>(ClientMsgType::kReadResp));
  w.u64(m.opid);
  w.tag(m.tag);
  w.clock(m.vc);
  w.u8(m.cached ? 1 : 0);
  w.bytes(m.value);
  return w.take_frame();
}

erasure::Buffer encode_pong(const Pong& m) {
  Writer w(12);
  w.u8(static_cast<std::uint8_t>(ClientMsgType::kPong));
  w.u64(m.token);
  w.u8(m.ready ? 1 : 0);
  return w.take_frame();
}

erasure::Buffer encode_stats_resp(const StatsResp& m) {
  Writer w(80 + 8 * (m.vc.size() + m.shard_ops.size()));
  w.u8(static_cast<std::uint8_t>(ClientMsgType::kStatsResp));
  w.u32(m.node);
  w.clock(m.vc);
  w.u64(m.history_entries);
  w.u64(m.inqueue_entries);
  w.u64(m.readl_entries);
  w.u64(m.writes);
  w.u64(m.reads);
  w.u64(m.error_events);
  w.u64(m.recoveries);
  w.u32(static_cast<std::uint32_t>(m.shard_ops.size()));
  for (const std::uint64_t v : m.shard_ops) w.u64(v);
  return w.take_frame();
}

erasure::Buffer encode_router_stats_req() {
  Writer w(1);
  w.u8(static_cast<std::uint8_t>(ClientMsgType::kRouterStatsReq));
  return w.take_frame();
}

erasure::Buffer encode_router_stats_resp(const RouterStatsResp& m) {
  Writer w(96 + 8 * m.backend_ops.size());
  w.u8(static_cast<std::uint8_t>(ClientMsgType::kRouterStatsResp));
  w.u64(m.routed_writes);
  w.u64(m.routed_reads);
  w.u64(m.cache_hits);
  w.u64(m.cache_misses);
  w.u64(m.cache_stale);
  w.u64(m.cache_expired);
  w.u64(m.cache_evictions);
  w.u64(m.cache_entries);
  w.u64(m.fallthroughs);
  w.u64(m.reroutes);
  w.u64(m.ring_remaps);
  w.u32(static_cast<std::uint32_t>(m.backend_ops.size()));
  for (const std::uint64_t v : m.backend_ops) w.u64(v);
  return w.take_frame();
}

std::optional<Hello> decode_hello(erasure::Buffer payload) {
  SafeReader r = open(std::move(payload), ClientMsgType::kHello);
  Hello m;
  const std::uint8_t role = r.u8();
  if (role > static_cast<std::uint8_t>(PeerRole::kClient)) return std::nullopt;
  m.role = static_cast<PeerRole>(role);
  m.node = r.u32();
  if (!r.done()) return std::nullopt;
  return m;
}

std::optional<WriteReq> decode_write_req(erasure::Buffer payload) {
  SafeReader r = open(std::move(payload), ClientMsgType::kWriteReq);
  WriteReq m;
  m.opid = r.u64();
  m.client = r.u64();
  m.object = r.u32();
  m.frontier = r.clock(clock_cap(r));
  m.value = r.bytes(r.remaining());
  if (!r.done()) return std::nullopt;
  return m;
}

std::optional<ReadReq> decode_read_req(erasure::Buffer payload) {
  SafeReader r = open(std::move(payload), ClientMsgType::kReadReq);
  ReadReq m;
  m.opid = r.u64();
  m.client = r.u64();
  m.object = r.u32();
  m.frontier = r.clock(clock_cap(r));
  if (!r.done()) return std::nullopt;
  return m;
}

std::optional<Ping> decode_ping(erasure::Buffer payload) {
  SafeReader r = open(std::move(payload), ClientMsgType::kPing);
  Ping m;
  m.token = r.u64();
  if (!r.done()) return std::nullopt;
  return m;
}

bool decode_stats_req(erasure::Buffer payload) {
  SafeReader r = open(std::move(payload), ClientMsgType::kStatsReq);
  return r.done();
}

std::optional<WriteResp> decode_write_resp(erasure::Buffer payload) {
  SafeReader r = open(std::move(payload), ClientMsgType::kWriteResp);
  WriteResp m;
  m.opid = r.u64();
  m.tag = r.tag(clock_cap(r));
  m.vc = r.clock(clock_cap(r));
  if (!r.done()) return std::nullopt;
  return m;
}

std::optional<ReadResp> decode_read_resp(erasure::Buffer payload) {
  SafeReader r = open(std::move(payload), ClientMsgType::kReadResp);
  ReadResp m;
  m.opid = r.u64();
  m.tag = r.tag(clock_cap(r));
  m.vc = r.clock(clock_cap(r));
  m.cached = r.u8() != 0;
  m.value = r.bytes(r.remaining());
  if (!r.done()) return std::nullopt;
  return m;
}

std::optional<Pong> decode_pong(erasure::Buffer payload) {
  SafeReader r = open(std::move(payload), ClientMsgType::kPong);
  Pong m;
  m.token = r.u64();
  m.ready = r.u8() != 0;
  if (!r.done()) return std::nullopt;
  return m;
}

std::optional<StatsResp> decode_stats_resp(erasure::Buffer payload) {
  SafeReader r = open(std::move(payload), ClientMsgType::kStatsResp);
  StatsResp m;
  m.node = r.u32();
  m.vc = r.clock(clock_cap(r));
  m.history_entries = r.u64();
  m.inqueue_entries = r.u64();
  m.readl_entries = r.u64();
  m.writes = r.u64();
  m.reads = r.u64();
  m.error_events = r.u64();
  m.recoveries = r.u64();
  const std::uint32_t shards = r.u32();
  if (shards > r.remaining() / 8) return std::nullopt;
  m.shard_ops.reserve(shards);
  for (std::uint32_t i = 0; i < shards; ++i) m.shard_ops.push_back(r.u64());
  if (!r.done()) return std::nullopt;
  return m;
}

bool decode_router_stats_req(erasure::Buffer payload) {
  SafeReader r = open(std::move(payload), ClientMsgType::kRouterStatsReq);
  return r.done();
}

std::optional<RouterStatsResp> decode_router_stats_resp(
    erasure::Buffer payload) {
  SafeReader r = open(std::move(payload), ClientMsgType::kRouterStatsResp);
  RouterStatsResp m;
  m.routed_writes = r.u64();
  m.routed_reads = r.u64();
  m.cache_hits = r.u64();
  m.cache_misses = r.u64();
  m.cache_stale = r.u64();
  m.cache_expired = r.u64();
  m.cache_evictions = r.u64();
  m.cache_entries = r.u64();
  m.fallthroughs = r.u64();
  m.reroutes = r.u64();
  m.ring_remaps = r.u64();
  const std::uint32_t backends = r.u32();
  if (backends > r.remaining() / 8) return std::nullopt;
  m.backend_ops.reserve(backends);
  for (std::uint32_t i = 0; i < backends; ++i) {
    m.backend_ops.push_back(r.u64());
  }
  if (!r.done()) return std::nullopt;
  return m;
}

}  // namespace causalec::net
