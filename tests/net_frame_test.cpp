// Frame reassembly property tests: every protocol message type pushed
// through the length-prefixed framer, split at EVERY byte boundary and
// coalesced back-to-back, must decode byte-identically to the in-process
// codec path -- including the optional trace-context trailer. Plus the
// malformed-frame battery: truncated, oversized, bad type byte, hostile
// counts; remote bytes must never abort the process.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "causalec/codec.h"
#include "causalec/messages.h"
#include "common/random.h"
#include "erasure/buffer.h"
#include "net/client_proto.h"
#include "net/frame.h"

namespace causalec::net {
namespace {

using erasure::Buffer;
using erasure::Value;

VectorClock random_clock(Rng& rng, std::size_t n) {
  VectorClock vc(n);
  for (std::size_t i = 0; i < n; ++i) vc.set(i, rng.next_below(1000));
  return vc;
}

Tag random_tag(Rng& rng, std::size_t n) {
  return Tag(random_clock(rng, n), rng.next_u64());
}

TagVector random_tagvec(Rng& rng, std::size_t k, std::size_t n) {
  TagVector tv;
  for (std::size_t i = 0; i < k; ++i) tv.push_back(random_tag(rng, n));
  return tv;
}

Value random_value(Rng& rng, std::size_t bytes) {
  Value v(bytes);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
  return v;
}

WireModel model() {
  ServerConfig config;
  return WireModel::make(config, 5, 3);
}

/// One instance of every protocol message type, with payloads big enough
/// that frames span multiple read chunks in the byte-at-a-time sweeps.
std::vector<sim::MessagePtr> sample_messages(bool traced) {
  Rng rng(traced ? 101 : 100);
  const WireModel wm = model();
  std::vector<sim::MessagePtr> out;
  out.push_back(
      std::make_unique<AppMessage>(2, random_value(rng, 96),
                                   random_tag(rng, 5), wm));
  out.push_back(std::make_unique<DelMessage>(1, random_tag(rng, 5), 3, true,
                                             wm));
  out.push_back(std::make_unique<ValInqMessage>(
      kLocalhost, 9001, 2, random_tagvec(rng, 3, 5), wm));
  out.push_back(std::make_unique<ValRespMessage>(
      7, 42, 0, random_value(rng, 128), random_tagvec(rng, 3, 5), wm));
  out.push_back(std::make_unique<ValRespEncodedMessage>(
      7, 43, 1, random_value(rng, 64), random_tagvec(rng, 3, 5),
      random_tagvec(rng, 3, 5), wm));
  out.push_back(std::make_unique<RecoverDigestMessage>(
      4, random_clock(rng, 5), wm));
  out.push_back(std::make_unique<RecoverDigestReplyMessage>(
      4, random_clock(rng, 5), wm));
  out.push_back(std::make_unique<RecoverPullMessage>(
      5, random_clock(rng, 5), wm));
  std::vector<RecoverPushMessage::HistoryItem> history;
  history.push_back({0, random_tag(rng, 5), random_value(rng, 32)});
  history.push_back({2, random_tag(rng, 5), random_value(rng, 48)});
  std::vector<RecoverPushMessage::InqueueItem> inqueue;
  inqueue.push_back({3, 1, random_tag(rng, 5), random_value(rng, 24)});
  std::vector<RecoverPushMessage::DelItem> dels;
  dels.push_back({1, 4, random_tag(rng, 5)});
  out.push_back(std::make_unique<RecoverPushMessage>(
      5, random_clock(rng, 5), std::move(history), std::move(inqueue),
      std::move(dels), wm));
  if (traced) {
    std::uint64_t next_id = 0xABCD;
    for (auto& m : out) {
      m->trace.trace_id = ++next_id;
      m->trace.span_id = next_id * 3;
    }
  }
  return out;
}

/// Feeds `frame` split into [0, split) and [split, size); returns every
/// completed payload.
std::vector<Buffer> reassemble_split(const Buffer& frame, std::size_t split) {
  FrameReader reader;
  if (split > 0) reader.feed(frame.slice(0, split));
  std::vector<Buffer> payloads;
  while (auto p = reader.next()) payloads.push_back(std::move(*p));
  if (split < frame.size()) {
    reader.feed(frame.slice(split, frame.size() - split));
  }
  while (auto p = reader.next()) payloads.push_back(std::move(*p));
  EXPECT_FALSE(reader.failed()) << reader.error();
  EXPECT_EQ(reader.buffered_bytes(), 0u);
  return payloads;
}

std::vector<std::uint8_t> bytes_of(const Buffer& b) {
  return {b.data(), b.data() + b.size()};
}

bool payload_equals(const Buffer& payload,
                    const std::vector<std::uint8_t>& expected) {
  return payload.size() == expected.size() &&
         (payload.empty() ||
          std::memcmp(payload.data(), expected.data(), payload.size()) == 0);
}

// -- The all-boundary split sweep -------------------------------------------

void run_split_sweep(bool traced) {
  for (const auto& message : sample_messages(traced)) {
    const Buffer payload = serialize_message_frame(*message);
    const std::vector<std::uint8_t> expected = bytes_of(payload);
    const Buffer frame = framed(payload);
    for (std::size_t split = 0; split <= frame.size(); ++split) {
      const std::vector<Buffer> payloads = reassemble_split(frame, split);
      ASSERT_EQ(payloads.size(), 1u)
          << message->type_name() << " split at " << split;
      ASSERT_TRUE(payload_equals(payloads[0], expected))
          << message->type_name() << " split at " << split;
      // Byte-identical to the in-process codec: decoding the reassembled
      // payload and re-serializing reproduces the original bytes exactly.
      std::string error;
      const sim::MessagePtr decoded =
          try_deserialize_message(payloads[0], &error);
      ASSERT_NE(decoded, nullptr)
          << message->type_name() << " split at " << split << ": " << error;
      EXPECT_EQ(bytes_of(serialize_message_frame(*decoded)), expected)
          << message->type_name() << " split at " << split;
      EXPECT_STREQ(decoded->type_name(), message->type_name());
      EXPECT_EQ(decoded->trace.trace_id, message->trace.trace_id);
      EXPECT_EQ(decoded->trace.span_id, message->trace.span_id);
    }
  }
}

TEST(NetFrameSweep, EveryMessageTypeAtEveryByteBoundary) {
  run_split_sweep(/*traced=*/false);
}

TEST(NetFrameSweep, TraceContextTrailerSurvivesEverySplit) {
  run_split_sweep(/*traced=*/true);
}

TEST(NetFrameSweep, ByteAtATimeReassembly) {
  for (const auto& message : sample_messages(/*traced=*/true)) {
    const Buffer payload = serialize_message_frame(*message);
    const std::vector<std::uint8_t> expected = bytes_of(payload);
    const Buffer frame = framed(payload);
    FrameReader reader;
    std::vector<Buffer> payloads;
    for (std::size_t i = 0; i < frame.size(); ++i) {
      reader.feed(frame.slice(i, 1));
      while (auto p = reader.next()) payloads.push_back(std::move(*p));
    }
    ASSERT_EQ(payloads.size(), 1u) << message->type_name();
    EXPECT_TRUE(payload_equals(payloads[0], expected))
        << message->type_name();
  }
}

// -- Coalesced back-to-back frames ------------------------------------------

TEST(NetFrameCoalesced, AllTypesInOneChunkDecodeInOrder) {
  const auto messages = sample_messages(/*traced=*/false);
  std::vector<std::vector<std::uint8_t>> expected;
  std::vector<std::uint8_t> stream;
  for (const auto& m : messages) {
    const Buffer payload = serialize_message_frame(*m);
    expected.push_back(bytes_of(payload));
    const Buffer frame = framed(payload);
    stream.insert(stream.end(), frame.data(), frame.data() + frame.size());
  }
  FrameReader reader;
  reader.feed(Buffer::adopt(std::move(stream)));
  for (std::size_t i = 0; i < expected.size(); ++i) {
    auto payload = reader.next();
    ASSERT_TRUE(payload.has_value()) << "frame " << i;
    EXPECT_TRUE(payload_equals(*payload, expected[i])) << "frame " << i;
    const sim::MessagePtr decoded = try_deserialize_message(*payload);
    ASSERT_NE(decoded, nullptr);
    EXPECT_STREQ(decoded->type_name(), messages[i]->type_name());
  }
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(NetFrameCoalesced, CoalescedStreamSplitAtEveryBoundary) {
  // Three frames concatenated, the stream cut at every byte: the reader
  // must always deliver exactly the three payloads regardless of where
  // the chunk boundary lands (mid-header, mid-body, between frames).
  Rng rng(7);
  const WireModel wm = model();
  std::vector<std::vector<std::uint8_t>> expected;
  std::vector<std::uint8_t> stream;
  const AppMessage app(0, random_value(rng, 40), random_tag(rng, 5), wm);
  const DelMessage del(1, random_tag(rng, 5), 2, false, wm);
  const ValInqMessage inq(9, 77, 1, random_tagvec(rng, 3, 5), wm);
  for (const sim::Message* m :
       {static_cast<const sim::Message*>(&app),
        static_cast<const sim::Message*>(&del),
        static_cast<const sim::Message*>(&inq)}) {
    const Buffer payload = serialize_message_frame(*m);
    expected.push_back(bytes_of(payload));
    const Buffer frame = framed(payload);
    stream.insert(stream.end(), frame.data(), frame.data() + frame.size());
  }
  const Buffer whole = Buffer::adopt(std::move(stream));
  for (std::size_t split = 0; split <= whole.size(); ++split) {
    const std::vector<Buffer> payloads = reassemble_split(whole, split);
    ASSERT_EQ(payloads.size(), 3u) << "split at " << split;
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(payload_equals(payloads[i], expected[i]))
          << "split at " << split << " frame " << i;
    }
  }
}

// -- Zero-copy: whole frames inside one chunk are slices, not copies --------

TEST(NetFrameZeroCopy, WholeFrameInOneChunkAliasesTheChunkArena) {
  Rng rng(8);
  const AppMessage app(0, random_value(rng, 64), random_tag(rng, 5),
                       model());
  const Buffer frame = framed(serialize_message_frame(app));
  FrameReader reader;
  reader.feed(frame);
  const std::uint64_t before = Buffer::alloc_stats().allocations;
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(Buffer::alloc_stats().allocations, before)
      << "completed frame inside one chunk must be a zero-copy slice";
  EXPECT_GE(payload->data(), frame.data());
  EXPECT_LE(payload->data() + payload->size(), frame.data() + frame.size());
}

// -- Framing: only the socket writers add the prefix ------------------------
//
// A wire::Writer leaves room for the length prefix in front of its payload,
// so framed() widens the payload's slice over it instead of copying; only a
// payload with something else in front of it is copied.

TEST(NetFrameFraming, WriterPayloadFramesInPlaceWithoutAnArena) {
  Rng rng(14);
  WriteResp m;
  m.opid = 9;
  m.tag = random_tag(rng, 5);
  m.vc = random_clock(rng, 5);
  const Buffer payload = encode_write_resp(m);
  const Buffer::AllocStats before = Buffer::alloc_stats();
  const Buffer frame = framed(payload);
  const Buffer::AllocStats after = Buffer::alloc_stats();
  EXPECT_EQ(after.allocations - before.allocations, 0u);
  EXPECT_EQ(after.recycled - before.recycled, 0u);
  EXPECT_EQ(frame.data() + kFrameHeaderBytes, payload.data());
  EXPECT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  FrameReader reader;
  reader.feed(frame);
  const auto out = reader.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(payload_equals(*out, bytes_of(payload)));
}

TEST(NetFrameFraming, ReceivedPayloadFramesInPlace) {
  // Two frames in one read: each payload the reader slices out still has
  // its own prefix in front of it.
  const Buffer chunk = Buffer::adopt(
      {2, 0, 0, 0, 0x43, 0x01, 3, 0, 0, 0, 0x44, 0x02, 0x03});
  FrameReader reader;
  reader.feed(chunk);
  for (const std::size_t at : {0u, 6u}) {
    const auto payload = reader.next();
    ASSERT_TRUE(payload.has_value());
    const Buffer frame = framed(*payload);
    EXPECT_EQ(frame.data(), chunk.data() + at);
    EXPECT_EQ(frame.size(), kFrameHeaderBytes + payload->size());
  }
}

TEST(NetFrameFraming, PayloadWithoutItsPrefixIsCopiedBehindOne) {
  const std::vector<std::uint8_t> want = {3, 0, 0, 0, 0x45, 0x01, 0x02};
  // Hand-built: nothing in front of the payload in its arena.
  const Buffer bare = Buffer::adopt({0x45, 0x01, 0x02});
  EXPECT_EQ(bytes_of(framed(bare)), want);
  // Four bytes in front that are not the payload's length.
  const Buffer arena = Buffer::adopt({9, 9, 9, 9, 9, 0x45, 0x01, 0x02});
  const Buffer inside = arena.slice(5, 3);
  const Buffer frame = framed(inside);
  EXPECT_EQ(bytes_of(frame), want);
  EXPECT_NE(frame.data() + kFrameHeaderBytes, inside.data());
}

// -- Malformed input --------------------------------------------------------

TEST(NetFrameMalformed, OversizedLengthPrefixFailsTheReader) {
  std::vector<std::uint8_t> header(4);
  const std::uint64_t huge = kMaxFrameBytes + 1;
  for (int i = 0; i < 4; ++i) {
    header[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(huge >> (8 * i));
  }
  FrameReader reader;
  reader.feed(Buffer::adopt(std::move(header)));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.failed());
  EXPECT_FALSE(reader.error().empty());
}

TEST(NetFrameMalformed, TruncatedBodyStaysPendingWithoutFailing) {
  Rng rng(9);
  const DelMessage del(0, random_tag(rng, 5), 1, false, model());
  const Buffer frame = framed(serialize_message_frame(del));
  FrameReader reader;
  reader.feed(frame.slice(0, frame.size() - 3));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.failed());
  EXPECT_GT(reader.buffered_bytes(), 0u);
  // The missing tail arrives: the frame completes.
  reader.feed(frame.slice(frame.size() - 3, 3));
  EXPECT_TRUE(reader.next().has_value());
}

TEST(NetFrameMalformed, BadTypeByteNeverAborts) {
  Rng rng(10);
  auto bytes = bytes_of(serialize_message_frame(
      AppMessage(0, random_value(rng, 16), random_tag(rng, 3), model())));
  bytes[0] = 57;  // not a protocol type byte
  std::string error;
  EXPECT_EQ(try_deserialize_message(Buffer::adopt(std::move(bytes)), &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(NetFrameMalformed, TruncatedMessagePayloadNeverAborts) {
  Rng rng(11);
  for (const auto& message : sample_messages(/*traced=*/false)) {
    auto bytes = bytes_of(serialize_message_frame(*message));
    // Every strict prefix must decode to null, not crash. (Prefixes that
    // happen to parse as a shorter valid encoding do not exist in this
    // format: every field is length-checked.)
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      std::string error;
      const auto out = try_deserialize_message(
          Buffer::adopt(std::vector<std::uint8_t>(
              bytes.begin(), bytes.begin() + static_cast<long>(len))),
          &error);
      EXPECT_EQ(out, nullptr)
          << message->type_name() << " prefix of " << len;
    }
  }
}

TEST(NetFrameMalformed, TrailingGarbageNeverAborts) {
  Rng rng(12);
  auto bytes = bytes_of(serialize_message_frame(
      DelMessage(0, random_tag(rng, 4), 1, false, model())));
  bytes.push_back(0x5A);  // not a full 16-byte trace trailer
  std::string error;
  EXPECT_EQ(try_deserialize_message(Buffer::adopt(std::move(bytes)), &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

// -- Client/control protocol ------------------------------------------------
//
// Every client/control message type gets the same battery: a field-by-field
// round trip, a wrong type byte, every strict prefix and one trailing byte
// decoding to nullopt, and each count field (clock sizes, value lengths,
// shard_ops, backend_ops) overwritten with a hostile value.

std::string describe(const Value& v) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const std::uint8_t b : v) h = (h ^ b) * 1099511628211ull;
  std::ostringstream os;
  os << v.size() << "B#" << std::hex << h;
  return os.str();
}

/// A field-by-field rendering of a message, so a round trip compares every
/// field and a failure prints both sides.
template <typename... Fields>
std::string fields(const char* name, const Fields&... f) {
  std::ostringstream os;
  os << name;
  ((os << ' ' << f), ...);
  return os.str();
}

std::string describe(const Hello& m) {
  return fields("hello", static_cast<int>(m.role), m.node);
}
std::string describe(const WriteReq& m) {
  return fields("write_req", m.opid, m.client, m.object, m.frontier,
                describe(m.value));
}
std::string describe(const ReadReq& m) {
  return fields("read_req", m.opid, m.client, m.object, m.frontier);
}
std::string describe(const Ping& m) { return fields("ping", m.token); }
std::string describe(const WriteResp& m) {
  return fields("write_resp", m.opid, m.tag, m.vc);
}
std::string describe(const ReadResp& m) {
  return fields("read_resp", m.opid, m.tag, m.vc, m.cached,
                describe(m.value));
}
std::string describe(const Pong& m) {
  return fields("pong", m.token, m.ready);
}
std::string describe(const StatsResp& m) {
  std::string out = fields("stats_resp", m.node, m.vc, m.history_entries,
                           m.inqueue_entries, m.readl_entries, m.writes,
                           m.reads, m.error_events, m.recoveries);
  for (const std::uint64_t v : m.shard_ops) out += ' ' + std::to_string(v);
  return out;
}
std::string describe(const RouterStatsResp& m) {
  std::string out = fields(
      "router_stats_resp", m.routed_writes, m.routed_reads, m.cache_hits,
      m.cache_misses, m.cache_stale, m.cache_expired, m.cache_evictions,
      m.cache_entries, m.fallthroughs, m.reroutes, m.ring_remaps);
  for (const std::uint64_t v : m.backend_ops) out += ' ' + std::to_string(v);
  return out;
}

/// Decoder output as text: nullopt when the decoder rejected the bytes.
template <typename M>
std::optional<std::string> text(const std::optional<M>& m) {
  if (!m.has_value()) return std::nullopt;
  return describe(*m);
}
std::optional<std::string> text(bool ok) {
  if (!ok) return std::nullopt;
  return std::string("ok");
}

/// Encoded sizes of the variable-length fields (see wire::Writer).
std::size_t clock_bytes(const VectorClock& vc) { return 4 + 8 * vc.size(); }
std::size_t tag_bytes(const Tag& t) { return clock_bytes(t.ts) + 8; }

/// A u32 count field inside an encoded message, and the count it holds.
struct CountField {
  std::size_t offset;
  std::uint32_t count;
};

/// One encoded message, its decoder, and what the decoder must return.
struct ProtoCase {
  std::vector<std::uint8_t> bytes;
  std::function<std::optional<std::string>(Buffer)> decode;
  std::string want;
  std::vector<CountField> counts;
};

template <typename M>
ProtoCase make_case(const M& m, Buffer (*encode)(const M&),
                    std::optional<M> (*decode)(Buffer),
                    std::vector<CountField> counts = {}) {
  return {bytes_of(encode(m)),
          [decode](Buffer b) { return text(decode(std::move(b))); },
          describe(m), std::move(counts)};
}

ProtoCase make_empty_case(Buffer (*encode)(), bool (*decode)(Buffer)) {
  return {bytes_of(encode()),
          [decode](Buffer b) { return text(decode(std::move(b))); }, "ok",
          {}};
}

/// Every client/control message type, with non-empty clocks, values,
/// frontiers and per-shard/per-backend arrays; requests also with the
/// empty frontier of a fresh session, and read responses both cached and
/// not.
std::vector<ProtoCase> client_proto_cases() {
  Rng rng(13);
  std::vector<ProtoCase> out;
  out.push_back(make_case(Hello{PeerRole::kServer, 3}, encode_hello,
                          decode_hello));
  for (const std::size_t servers : {5, 0}) {
    WriteReq m;
    m.opid = 42;
    m.client = 7;
    m.object = 2;
    m.frontier = random_clock(rng, servers);
    m.value = random_value(rng, 96);
    const auto frontier_count = static_cast<std::uint32_t>(servers);
    out.push_back(make_case(m, encode_write_req, decode_write_req,
                            {{21, frontier_count},
                             {21 + clock_bytes(m.frontier), 96}}));
  }
  for (const std::size_t servers : {5, 0}) {
    ReadReq m;
    m.opid = 44;
    m.client = 8;
    m.object = 1;
    m.frontier = random_clock(rng, servers);
    const auto frontier_count = static_cast<std::uint32_t>(servers);
    out.push_back(make_case(m, encode_read_req, decode_read_req,
                            {{21, frontier_count}}));
  }
  out.push_back(make_case(Ping{0xABCDEF0123ull}, encode_ping, decode_ping));
  out.push_back(make_empty_case(encode_stats_req, decode_stats_req));
  {
    WriteResp m;
    m.opid = 9;
    m.tag = random_tag(rng, 5);
    m.vc = random_clock(rng, 5);
    const std::size_t vc_at = 9 + tag_bytes(m.tag);
    out.push_back(make_case(m, encode_write_resp, decode_write_resp,
                            {{9, 5}, {vc_at, 5}}));
  }
  for (const bool cached : {true, false}) {
    ReadResp m;
    m.opid = 43;
    m.tag = random_tag(rng, 5);
    m.vc = random_clock(rng, 5);
    m.cached = cached;
    m.value = random_value(rng, 64);
    const std::size_t vc_at = 9 + tag_bytes(m.tag);
    const std::size_t value_at = vc_at + clock_bytes(m.vc) + 1;
    out.push_back(make_case(m, encode_read_resp, decode_read_resp,
                            {{9, 5}, {vc_at, 5}, {value_at, 64}}));
  }
  out.push_back(make_case(Pong{77, true}, encode_pong, decode_pong));
  {
    StatsResp m;
    m.node = 4;
    m.vc = random_clock(rng, 5);
    m.history_entries = 10;
    m.inqueue_entries = 2;
    m.readl_entries = 1;
    m.writes = 100;
    m.reads = 200;
    m.error_events = 5;
    m.recoveries = 3;
    m.shard_ops = {11, 22, 33};
    const std::size_t shards_at = encode_stats_resp(m).size() - 3 * 8 - 4;
    out.push_back(make_case(m, encode_stats_resp, decode_stats_resp,
                            {{5, 5}, {shards_at, 3}}));
  }
  out.push_back(make_empty_case(encode_router_stats_req,
                                decode_router_stats_req));
  {
    RouterStatsResp m;
    m.routed_writes = 1;
    m.routed_reads = 2;
    m.cache_hits = 3;
    m.cache_misses = 4;
    m.cache_stale = 5;
    m.cache_expired = 6;
    m.cache_evictions = 7;
    m.cache_entries = 8;
    m.fallthroughs = 9;
    m.reroutes = 10;
    m.ring_remaps = 11;
    m.backend_ops = {12, 13, 14, 15, 16};
    const std::size_t backends_at =
        encode_router_stats_resp(m).size() - 5 * 8 - 4;
    out.push_back(make_case(m, encode_router_stats_resp,
                            decode_router_stats_resp, {{backends_at, 5}}));
  }
  return out;
}

Buffer copy_of(const std::vector<std::uint8_t>& bytes, std::size_t len) {
  return Buffer::adopt(std::vector<std::uint8_t>(
      bytes.begin(), bytes.begin() + static_cast<long>(len)));
}

void put_u32(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint32_t get_u32(const std::vector<std::uint8_t>& bytes,
                      std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
  }
  return v;
}

TEST(NetClientProto, RoundTrips) {
  const std::vector<ProtoCase> cases = client_proto_cases();
  std::set<std::uint8_t> types;
  for (const ProtoCase& c : cases) {
    ASSERT_FALSE(c.bytes.empty());
    types.insert(c.bytes[0]);
    EXPECT_EQ(peek_type(copy_of(c.bytes, c.bytes.size())), c.bytes[0]);
    EXPECT_EQ(c.decode(copy_of(c.bytes, c.bytes.size())), c.want);
  }
  const std::set<std::uint8_t> all = {64, 65, 66, 67, 68, 69,
                                      70, 71, 72, 76, 77};
  EXPECT_EQ(types, all) << "every message type has a case";
  EXPECT_EQ(peek_type(Buffer()), std::nullopt);
}

TEST(NetClientProto, MalformedFramesDecodeToNullopt) {
  const std::vector<ProtoCase> cases = client_proto_cases();
  for (const ProtoCase& c : cases) {
    SCOPED_TRACE(c.want);
    // Another message's type byte.
    for (const ProtoCase& other : cases) {
      if (other.bytes[0] == c.bytes[0]) continue;
      std::vector<std::uint8_t> bytes = c.bytes;
      bytes[0] = other.bytes[0];
      EXPECT_EQ(c.decode(copy_of(bytes, bytes.size())), std::nullopt)
          << "type byte " << static_cast<int>(other.bytes[0]);
    }
    // Every strict prefix, and one trailing byte.
    for (std::size_t len = 0; len < c.bytes.size(); ++len) {
      EXPECT_EQ(c.decode(copy_of(c.bytes, len)), std::nullopt)
          << "prefix " << len;
    }
    std::vector<std::uint8_t> longer = c.bytes;
    longer.push_back(0);
    EXPECT_EQ(c.decode(copy_of(longer, longer.size())), std::nullopt)
        << "trailing byte";
    // Hostile counts: one entry more than the bytes hold, and the maximum.
    for (const CountField& f : c.counts) {
      ASSERT_EQ(get_u32(c.bytes, f.offset), f.count) << "offset " << f.offset;
      for (const std::uint32_t hostile : {f.count + 1, 0xFFFFFFFFu}) {
        std::vector<std::uint8_t> bytes = c.bytes;
        put_u32(bytes, f.offset, hostile);
        EXPECT_EQ(c.decode(copy_of(bytes, bytes.size())), std::nullopt)
            << "count " << hostile << " at offset " << f.offset;
      }
    }
  }
  // A Hello naming a role that does not exist.
  std::vector<std::uint8_t> hello =
      bytes_of(encode_hello(Hello{PeerRole::kClient, 0}));
  hello[1] = 2;
  EXPECT_FALSE(decode_hello(Buffer::adopt(std::move(hello))).has_value());
}

}  // namespace
}  // namespace causalec::net
