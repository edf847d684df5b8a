// TraceContext wire-format round-trips: every message type carries its
// trace context through serialize/deserialize, untraced frames are
// byte-identical to the pre-trace format, and old frames (no trailer)
// decode as "not traced".
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "causalec/codec.h"
#include "causalec/messages.h"
#include "causalec/wire_format.h"
#include "common/random.h"

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

/// One factory per message type; the fixture runs the same three checks
/// (traced round-trip, untraced byte-identity, chopped-trailer compat)
/// over all nine.
std::vector<std::function<sim::MessagePtr(Rng&)>> message_factories() {
  const WireModel wm = model();
  return {
      [wm](Rng& rng) -> sim::MessagePtr {
        return std::make_unique<AppMessage>(1, random_value(rng, 64),
                                            random_tag(rng, 5), wm);
      },
      [wm](Rng& rng) -> sim::MessagePtr {
        return std::make_unique<DelMessage>(2, random_tag(rng, 5), 3, true,
                                            wm);
      },
      [wm](Rng& rng) -> sim::MessagePtr {
        return std::make_unique<ValInqMessage>(7, 42, 1,
                                               random_tagvec(rng, 3, 5), wm);
      },
      [wm](Rng& rng) -> sim::MessagePtr {
        return std::make_unique<ValRespMessage>(7, 42, 1,
                                                random_value(rng, 64),
                                                random_tagvec(rng, 3, 5), wm);
      },
      [wm](Rng& rng) -> sim::MessagePtr {
        return std::make_unique<ValRespEncodedMessage>(
            7, 42, 1, random_value(rng, 64), random_tagvec(rng, 3, 5),
            random_tagvec(rng, 3, 5), wm);
      },
      [wm](Rng& rng) -> sim::MessagePtr {
        return std::make_unique<RecoverDigestMessage>(9, random_clock(rng, 5),
                                                      wm);
      },
      [wm](Rng& rng) -> sim::MessagePtr {
        return std::make_unique<RecoverDigestReplyMessage>(
            9, random_clock(rng, 5), wm);
      },
      [wm](Rng& rng) -> sim::MessagePtr {
        return std::make_unique<RecoverPullMessage>(9, random_clock(rng, 5),
                                                    wm);
      },
      [wm](Rng& rng) -> sim::MessagePtr {
        std::vector<RecoverPushMessage::HistoryItem> history;
        history.push_back({1, random_tag(rng, 5), random_value(rng, 64)});
        std::vector<RecoverPushMessage::InqueueItem> inqueue;
        inqueue.push_back({2, 0, random_tag(rng, 5), random_value(rng, 64)});
        std::vector<RecoverPushMessage::DelItem> dels;
        dels.push_back({1, 4, random_tag(rng, 5)});
        return std::make_unique<RecoverPushMessage>(
            9, random_clock(rng, 5), std::move(history), std::move(inqueue),
            std::move(dels), wm);
      },
  };
}

TEST(TraceContextTest, TracedRoundTripOnEveryMessageType) {
  Rng rng(31);
  std::size_t index = 0;
  for (const auto& make : message_factories()) {
    auto message = make(rng);
    message->trace.trace_id = 1000 + index;
    message->trace.span_id = 2000 + index;
    const auto bytes = serialize_message_frame(*message);
    const auto restored = deserialize_message(bytes);
    ASSERT_NE(restored, nullptr) << message->type_name();
    EXPECT_STREQ(restored->type_name(), message->type_name());
    EXPECT_TRUE(restored->trace.traced()) << message->type_name();
    EXPECT_EQ(restored->trace.trace_id, 1000 + index)
        << message->type_name();
    EXPECT_EQ(restored->trace.span_id, 2000 + index) << message->type_name();
    ++index;
  }
  EXPECT_EQ(index, 9u);
}

TEST(TraceContextTest, UntracedFrameIsByteIdenticalToTracedMinusTrailer) {
  // The trace context is a pure trailer: an untraced message serializes to
  // exactly the old frame format, and a traced frame is that plus 16 bytes.
  // This is what keeps old bundles / mixed-version peers compatible.
  for (const auto& make : message_factories()) {
    Rng rng_a(77);
    Rng rng_b(77);
    auto untraced = make(rng_a);
    auto traced = make(rng_b);  // same rng seed -> same payload
    traced->trace.trace_id = 5;
    traced->trace.span_id = 6;

    const auto untraced_bytes = bytes_of(*untraced);
    auto traced_bytes = bytes_of(*traced);
    ASSERT_EQ(traced_bytes.size(),
              untraced_bytes.size() + wire::kTraceContextBytes)
        << untraced->type_name();
    traced_bytes.resize(untraced_bytes.size());
    EXPECT_EQ(traced_bytes, untraced_bytes) << untraced->type_name();
  }
}

TEST(TraceContextTest, OldFrameWithoutTrailerDecodesAsNotTraced) {
  Rng rng(13);
  for (const auto& make : message_factories()) {
    auto message = make(rng);
    message->trace.trace_id = 99;
    message->trace.span_id = 100;
    auto bytes = bytes_of(*message);
    // Chop the trailer: this is exactly what a pre-trace writer emits.
    bytes.resize(bytes.size() - wire::kTraceContextBytes);
    const auto restored = deserialize_message(bytes);
    ASSERT_NE(restored, nullptr) << message->type_name();
    EXPECT_STREQ(restored->type_name(), message->type_name());
    EXPECT_FALSE(restored->trace.traced()) << message->type_name();
    EXPECT_EQ(restored->trace.trace_id, 0u);
    EXPECT_EQ(restored->trace.span_id, 0u);
  }
}

TEST(TraceContextTest, WireBytesUnaffectedByTraceContext) {
  // wire_bytes() is the simulated-network cost model; tracing must never
  // change it (chaos history hashes depend on it).
  Rng rng_a(5);
  Rng rng_b(5);
  for (const auto& make : message_factories()) {
    auto untraced = make(rng_a);
    auto traced = make(rng_b);
    traced->trace.trace_id = 1;
    traced->trace.span_id = 2;
    EXPECT_EQ(traced->wire_bytes(), untraced->wire_bytes())
        << untraced->type_name();
  }
}

}  // namespace
}  // namespace causalec
