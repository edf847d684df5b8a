// Round-trip tests for the binary message codec.
#include <gtest/gtest.h>

#include <vector>

#include "causalec/codec.h"
#include "common/random.h"
#include "erasure/buffer.h"

namespace causalec {
namespace {

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

/// A message's serialized bytes as an owned vector, for tests that edit
/// them.
std::vector<std::uint8_t> bytes_of(const sim::Message& m) {
  const erasure::Buffer payload = serialize_message_frame(m);
  return {payload.data(), payload.data() + payload.size()};
}

WireModel model() {
  ServerConfig config;
  return WireModel::make(config, 5, 3);
}

TEST(CodecTest, AppRoundTrip) {
  Rng rng(1);
  AppMessage original(2, random_value(rng, 64), random_tag(rng, 5), model());
  const auto bytes = serialize_message_frame(original);
  const auto restored = deserialize_message(bytes);
  const auto* app = dynamic_cast<const AppMessage*>(restored.get());
  ASSERT_NE(app, nullptr);
  EXPECT_EQ(app->object, original.object);
  EXPECT_EQ(app->value, original.value);
  EXPECT_EQ(app->tag, original.tag);
  EXPECT_EQ(app->wire_bytes(), original.wire_bytes());
}

TEST(CodecTest, DelRoundTrip) {
  Rng rng(2);
  DelMessage original(1, random_tag(rng, 5), 3, true, model());
  const auto restored = deserialize_message(serialize_message_frame(original));
  const auto* del = dynamic_cast<const DelMessage*>(restored.get());
  ASSERT_NE(del, nullptr);
  EXPECT_EQ(del->object, 1u);
  EXPECT_EQ(del->origin, 3u);
  EXPECT_TRUE(del->forward);
  EXPECT_EQ(del->tag, original.tag);
  EXPECT_EQ(del->wire_bytes(), original.wire_bytes());
}

TEST(CodecTest, ValInqRoundTrip) {
  Rng rng(3);
  ValInqMessage original(kLocalhost, 9001, 2, random_tagvec(rng, 3, 5),
                         model());
  const auto restored = deserialize_message(serialize_message_frame(original));
  const auto* inq = dynamic_cast<const ValInqMessage*>(restored.get());
  ASSERT_NE(inq, nullptr);
  EXPECT_EQ(inq->client, kLocalhost);
  EXPECT_EQ(inq->opid, 9001u);
  EXPECT_EQ(inq->object, 2u);
  EXPECT_EQ(inq->wanted, original.wanted);
}

TEST(CodecTest, ValRespRoundTrip) {
  Rng rng(4);
  ValRespMessage original(7, 42, 0, random_value(rng, 128),
                          random_tagvec(rng, 3, 5), model());
  const auto restored = deserialize_message(serialize_message_frame(original));
  const auto* resp = dynamic_cast<const ValRespMessage*>(restored.get());
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->value, original.value);
  EXPECT_EQ(resp->requested, original.requested);
}

TEST(CodecTest, ValRespEncodedRoundTrip) {
  Rng rng(5);
  ValRespEncodedMessage original(7, 42, 1, random_value(rng, 256),
                                 random_tagvec(rng, 3, 5),
                                 random_tagvec(rng, 3, 5), model());
  const auto restored = deserialize_message(serialize_message_frame(original));
  const auto* enc =
      dynamic_cast<const ValRespEncodedMessage*>(restored.get());
  ASSERT_NE(enc, nullptr);
  EXPECT_EQ(enc->symbol, original.symbol);
  EXPECT_EQ(enc->symbol_tags, original.symbol_tags);
  EXPECT_EQ(enc->requested, original.requested);
  EXPECT_EQ(enc->wire_bytes(), original.wire_bytes());
}

TEST(CodecTest, EmptyValueAndZeroTags) {
  AppMessage original(0, Value{}, Tag::zero(4), model());
  const auto restored = deserialize_message(serialize_message_frame(original));
  const auto* app = dynamic_cast<const AppMessage*>(restored.get());
  ASSERT_NE(app, nullptr);
  EXPECT_TRUE(app->value.empty());
  EXPECT_TRUE(app->tag.is_zero());
}

TEST(CodecTest, RandomizedRoundTripSweep) {
  Rng rng(6);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t n = 2 + rng.next_below(10);
    const std::size_t k = 1 + rng.next_below(8);
    switch (rng.next_below(5)) {
      case 0: {
        AppMessage m(static_cast<ObjectId>(rng.next_below(k)),
                     random_value(rng, rng.next_below(512)),
                     random_tag(rng, n), model());
        const auto r = deserialize_message(serialize_message_frame(m));
        const auto* app = dynamic_cast<const AppMessage*>(r.get());
        ASSERT_NE(app, nullptr);
        EXPECT_EQ(app->value, m.value);
        EXPECT_EQ(app->tag, m.tag);
        break;
      }
      case 1: {
        DelMessage m(static_cast<ObjectId>(rng.next_below(k)),
                     random_tag(rng, n),
                     static_cast<NodeId>(rng.next_below(n)),
                     rng.next_bool(0.5), model());
        const auto r = deserialize_message(serialize_message_frame(m));
        const auto* del = dynamic_cast<const DelMessage*>(r.get());
        ASSERT_NE(del, nullptr);
        EXPECT_EQ(del->tag, m.tag);
        EXPECT_EQ(del->origin, m.origin);
        EXPECT_EQ(del->forward, m.forward);
        break;
      }
      case 2: {
        ValInqMessage m(rng.next_u64(), rng.next_u64(),
                        static_cast<ObjectId>(rng.next_below(k)),
                        random_tagvec(rng, k, n), model());
        const auto r = deserialize_message(serialize_message_frame(m));
        const auto* inq = dynamic_cast<const ValInqMessage*>(r.get());
        ASSERT_NE(inq, nullptr);
        EXPECT_EQ(inq->wanted, m.wanted);
        break;
      }
      case 3: {
        ValRespMessage m(rng.next_u64(), rng.next_u64(),
                         static_cast<ObjectId>(rng.next_below(k)),
                         random_value(rng, rng.next_below(512)),
                         random_tagvec(rng, k, n), model());
        const auto r = deserialize_message(serialize_message_frame(m));
        const auto* resp = dynamic_cast<const ValRespMessage*>(r.get());
        ASSERT_NE(resp, nullptr);
        EXPECT_EQ(resp->value, m.value);
        EXPECT_EQ(resp->requested, m.requested);
        break;
      }
      case 4: {
        ValRespEncodedMessage m(rng.next_u64(), rng.next_u64(),
                                static_cast<ObjectId>(rng.next_below(k)),
                                random_value(rng, rng.next_below(512)),
                                random_tagvec(rng, k, n),
                                random_tagvec(rng, k, n), model());
        const auto r = deserialize_message(serialize_message_frame(m));
        const auto* enc =
            dynamic_cast<const ValRespEncodedMessage*>(r.get());
        ASSERT_NE(enc, nullptr);
        EXPECT_EQ(enc->symbol, m.symbol);
        EXPECT_EQ(enc->symbol_tags, m.symbol_tags);
        EXPECT_EQ(enc->requested, m.requested);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Zero-copy deserialization: deserialize_message(erasure::Buffer) aliases
// value payloads into the frame arena instead of copying them out, and the
// refcount keeps that arena alive for as long as any decoded value needs it.
// ---------------------------------------------------------------------------

erasure::Buffer frame_of(const sim::Message& m) {
  return serialize_message_frame(m);
}

/// True when `v`'s bytes live inside `frame`'s arena (no copy was made).
bool aliases(const erasure::Buffer& frame, const Value& v) {
  return !v.empty() && v.data() >= frame.data() &&
         v.data() + v.size() <= frame.data() + frame.size();
}

TEST(CodecZeroCopy, ValuesAliasTheFrameWithoutAllocating) {
  Rng rng(9);
  AppMessage app(2, random_value(rng, 64), random_tag(rng, 5), model());
  ValRespMessage resp(7, 42, 0, random_value(rng, 128),
                      random_tagvec(rng, 3, 5), model());
  ValRespEncodedMessage enc(7, 43, 1, random_value(rng, 256),
                            random_tagvec(rng, 3, 5),
                            random_tagvec(rng, 3, 5), model());

  const erasure::Buffer frames[] = {frame_of(app), frame_of(resp),
                                    frame_of(enc)};
  const std::uint64_t before = erasure::Buffer::alloc_stats().allocations;
  const auto r0 = deserialize_message(frames[0]);
  const auto r1 = deserialize_message(frames[1]);
  const auto r2 = deserialize_message(frames[2]);
  EXPECT_EQ(erasure::Buffer::alloc_stats().allocations, before)
      << "zero-copy deserialization allocated a payload arena";

  const auto* rapp = dynamic_cast<const AppMessage*>(r0.get());
  const auto* rresp = dynamic_cast<const ValRespMessage*>(r1.get());
  const auto* renc = dynamic_cast<const ValRespEncodedMessage*>(r2.get());
  ASSERT_NE(rapp, nullptr);
  ASSERT_NE(rresp, nullptr);
  ASSERT_NE(renc, nullptr);
  EXPECT_EQ(rapp->value, app.value);
  EXPECT_EQ(rresp->value, resp.value);
  EXPECT_EQ(renc->symbol, enc.symbol);
  EXPECT_TRUE(aliases(frames[0], rapp->value));
  EXPECT_TRUE(aliases(frames[1], rresp->value));
  EXPECT_TRUE(aliases(frames[2], renc->symbol));
}

TEST(CodecZeroCopy, NonPayloadTypesDecodeFromFrames) {
  Rng rng(10);
  DelMessage del(1, random_tag(rng, 5), 3, true, model());
  ValInqMessage inq(kLocalhost, 9001, 2, random_tagvec(rng, 3, 5), model());
  const auto rdel = deserialize_message(frame_of(del));
  const auto rinq = deserialize_message(frame_of(inq));
  const auto* d = dynamic_cast<const DelMessage*>(rdel.get());
  const auto* q = dynamic_cast<const ValInqMessage*>(rinq.get());
  ASSERT_NE(d, nullptr);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(d->tag, del.tag);
  EXPECT_EQ(q->wanted, inq.wanted);
}

TEST(CodecZeroCopy, DecodedValueOutlivesTheFrameHandle) {
  Rng rng(11);
  const Value payload = random_value(rng, 96);
  AppMessage app(1, payload, random_tag(rng, 5), model());

  erasure::Buffer frame = frame_of(app);
  auto restored = deserialize_message(std::move(frame));
  frame = erasure::Buffer();  // drop the caller's last frame handle

  const auto* rapp = dynamic_cast<const AppMessage*>(restored.get());
  ASSERT_NE(rapp, nullptr);
  // The decoded value's shared arena keeps the frame bytes alive.
  EXPECT_EQ(rapp->value, payload);
  Value survivor = rapp->value;
  restored.reset();
  EXPECT_EQ(survivor, payload);
}

TEST(CodecZeroCopy, MutatingOneDecodedValueLeavesSiblingsIntact) {
  Rng rng(12);
  const Value payload = random_value(rng, 48);
  AppMessage app(0, payload, random_tag(rng, 4), model());
  const erasure::Buffer frame = frame_of(app);

  // Two messages decoded from one frame alias the same arena.
  auto a = deserialize_message(frame);
  auto b = deserialize_message(frame);
  auto* mut = dynamic_cast<AppMessage*>(a.get());
  const auto* other = dynamic_cast<const AppMessage*>(b.get());
  ASSERT_NE(mut, nullptr);
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(mut->value.data(), other->value.data());

  // Copy-on-write: the first mutation detaches, so neither the sibling
  // message nor the frame bytes change underneath anyone.
  mut->value[0] = static_cast<std::uint8_t>(payload[0] + 1);
  EXPECT_EQ(other->value, payload);
  EXPECT_NE(mut->value, payload);
  const auto reparsed = deserialize_message(frame);
  const auto* c = dynamic_cast<const AppMessage*>(reparsed.get());
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, payload);
}

TEST(CodecDeathTest, TruncatedBufferAborts) {
  Rng rng(7);
  AppMessage m(0, random_value(rng, 32), random_tag(rng, 3), model());
  auto bytes = bytes_of(m);
  bytes.resize(bytes.size() / 2);
  EXPECT_DEATH(deserialize_message(bytes), "truncated");
}

TEST(CodecDeathTest, TrailingBytesAbort) {
  Rng rng(8);
  AppMessage m(0, random_value(rng, 8), random_tag(rng, 3), model());
  auto bytes = bytes_of(m);
  bytes.push_back(0xFF);
  EXPECT_DEATH(deserialize_message(bytes), "trailing");
}

}  // namespace
}  // namespace causalec
