// Flight-recorder unit tests: ring wrap, snapshot consistency against a
// concurrent writer, the JSON dump round-trip, and the replay-bundle
// embedding ("flight" arrays in causalec-chaos-bundle-v1).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "chaos/bundle.h"
#include "chaos/fault_plan.h"
#include "chaos/runner.h"
#include "obs/flight_recorder.h"

namespace causalec::obs {
namespace {

TEST(FlightRecorderTest, KeepsMostRecentEventsAfterWrap) {
  FlightRecorder recorder(8);
  EXPECT_EQ(recorder.capacity(), 8u);
  for (int i = 0; i < 20; ++i) {
    recorder.record(i, FlightKind::kApply, static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(recorder.recorded(), 20u);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first suffix of the stream: 12..19.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_ns, static_cast<std::int64_t>(12 + i));
    EXPECT_EQ(events[i].a, 12 + i);
    EXPECT_EQ(events[i].kind, FlightKind::kApply);
  }
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder recorder(100);
  EXPECT_EQ(recorder.capacity(), 128u);
}

TEST(FlightRecorderTest, RecordsAllFields) {
  FlightRecorder recorder(4);
  recorder.record(42, FlightKind::kClientWrite, 7, 9, 1234, 3);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ts_ns, 42);
  EXPECT_EQ(events[0].kind, FlightKind::kClientWrite);
  EXPECT_EQ(events[0].a, 7u);
  EXPECT_EQ(events[0].b, 9u);
  EXPECT_EQ(events[0].tag_sum, 1234u);
  EXPECT_EQ(events[0].tag_client, 3u);
}

TEST(FlightRecorderTest, SnapshotUnderConcurrentWriterNeverTears) {
  // A reader taking snapshots while a writer hammers the ring must only
  // ever see fully published events (the per-slot seqlock); a torn slot
  // would surface as an event whose fields disagree. Checking seq only
  // before the copy lets hundreds to tens of thousands of torn events
  // through in this many rounds.
  constexpr int kRounds = 400'000;
  FlightRecorder recorder(16);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint32_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      recorder.record(i, FlightKind::kMsgRecv, i, i + 1,
                      static_cast<std::uint64_t>(i) * 2, i % 7);
      ++i;
    }
  });
  // Start once the ring is full, or the rounds may all end before the
  // writer thread has recorded anything.
  while (recorder.recorded() < recorder.capacity()) std::this_thread::yield();
  std::uint64_t seen = 0;
  std::uint64_t torn = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (const FlightEvent& e : recorder.snapshot()) {
      ++seen;
      if (e.kind != FlightKind::kMsgRecv ||
          e.ts_ns != static_cast<std::int64_t>(e.a) || e.b != e.a + 1 ||
          e.tag_sum != static_cast<std::uint64_t>(e.a) * 2 ||
          e.tag_client != e.a % 7) {
        ++torn;
      }
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(torn, 0u) << "torn events among " << seen << " snapshotted";
}

TEST(FlightRecorderTest, JsonRoundTrip) {
  FlightRecorder recorder(8);
  recorder.record(10, FlightKind::kClientWrite, 1, 0, 5, 2);
  recorder.record(20, FlightKind::kGc, 3);
  recorder.record(30, FlightKind::kRecovery, 0, 4);
  const auto events = recorder.snapshot();
  const auto restored = flight_events_from_json(flight_events_to_json(events));
  ASSERT_EQ(restored.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(restored[i].ts_ns, events[i].ts_ns);
    EXPECT_EQ(restored[i].kind, events[i].kind);
    EXPECT_EQ(restored[i].a, events[i].a);
    EXPECT_EQ(restored[i].b, events[i].b);
    EXPECT_EQ(restored[i].tag_sum, events[i].tag_sum);
    EXPECT_EQ(restored[i].tag_client, events[i].tag_client);
  }
}

TEST(FlightRecorderTest, MalformedJsonYieldsEmpty) {
  EXPECT_TRUE(flight_events_from_json("not json").empty());
  EXPECT_TRUE(flight_events_from_json("{\"a\":1}").empty());
  EXPECT_TRUE(flight_events_from_json("[1,2,3]").empty());
}

TEST(FlightRecorderTest, ChaosRunCapturesPerNodeFlightDumps) {
  const chaos::FaultPlan plan = chaos::FaultPlan::generate(/*seed=*/3);
  const chaos::RunOutcome outcome = chaos::run_plan(plan);
  ASSERT_TRUE(outcome.ok);
  ASSERT_EQ(outcome.flight.size(), plan.workload.num_servers);
  for (const auto& node_events : outcome.flight) {
    EXPECT_FALSE(node_events.empty());
  }
}

TEST(FlightRecorderTest, BundleRoundTripsFlightDumps) {
  const chaos::FaultPlan plan = chaos::FaultPlan::generate(/*seed=*/3);
  const chaos::RunOutcome outcome = chaos::run_plan(plan);

  chaos::ReplayBundle bundle;
  bundle.plan = plan;
  bundle.history_hash = outcome.history_hash;
  bundle.flight = outcome.flight;
  const std::string json = bundle_to_json(bundle);
  const auto restored = chaos::bundle_from_json(json);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->flight.size(), bundle.flight.size());
  for (std::size_t s = 0; s < bundle.flight.size(); ++s) {
    ASSERT_EQ(restored->flight[s].size(), bundle.flight[s].size()) << s;
    for (std::size_t i = 0; i < bundle.flight[s].size(); ++i) {
      EXPECT_EQ(restored->flight[s][i].kind, bundle.flight[s][i].kind);
      EXPECT_EQ(restored->flight[s][i].ts_ns, bundle.flight[s][i].ts_ns);
      EXPECT_EQ(restored->flight[s][i].tag_sum, bundle.flight[s][i].tag_sum);
    }
  }
}

TEST(FlightRecorderTest, OldBundleWithoutFlightStillParses) {
  const chaos::FaultPlan plan = chaos::FaultPlan::generate(/*seed=*/3);
  chaos::ReplayBundle bundle;
  bundle.plan = plan;
  std::string json = bundle_to_json(bundle);
  // Strip the "flight" key the way an old writer would never emit it.
  const auto pos = json.find("\"flight\":[],");
  ASSERT_NE(pos, std::string::npos);
  json.erase(pos, std::strlen("\"flight\":[],"));
  const auto restored = chaos::bundle_from_json(json);
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->flight.empty());
}

}  // namespace
}  // namespace causalec::obs
