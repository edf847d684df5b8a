// End-to-end causal tracing: a traced run must export Chrome flow events
// ('s'/'f' pairs sharing an id across different node lanes) that stitch a
// client write's app multicast and a remote read's inquiry round into
// cross-node flows, read spans must carry the tag of the write they
// causally depend on, the per-phase histograms must fill, and the tracer's
// overflow counter must surface in both export formats.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "causalec/cluster.h"
#include "common/random.h"
#include "erasure/codes.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/threaded_cluster.h"
#include "sim/latency.h"

namespace causalec {
namespace {

using erasure::Value;
using sim::kMillisecond;
using sim::kSecond;

/// One flow endpoint parsed back out of the exported Chrome JSON.
struct FlowEndpoint {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t pid = 0;
};

struct ParsedTrace {
  std::vector<FlowEndpoint> starts;    // ph == "s"
  std::vector<FlowEndpoint> finishes;  // ph == "f"
  std::uint64_t dropped = 0;
};

/// Parses write_chrome_trace output; gtest-fails on malformed JSON.
ParsedTrace parse_chrome_flows(const std::string& json) {
  ParsedTrace parsed;
  const auto doc = obs::json_parse(json);
  EXPECT_TRUE(doc.has_value());
  if (!doc) return parsed;
  const auto* dropped = doc->find("causalecDropped");
  EXPECT_NE(dropped, nullptr);
  if (dropped) parsed.dropped = dropped->as_u64();
  const auto* events = doc->find("traceEvents");
  EXPECT_NE(events, nullptr);
  if (!events) return parsed;
  for (const obs::JsonValue& e : events->items()) {
    const auto* ph = e.find("ph");
    if (!ph || (ph->as_string() != "s" && ph->as_string() != "f")) continue;
    FlowEndpoint endpoint;
    endpoint.name = e.find("name")->as_string();
    endpoint.id = e.find("id")->as_u64();
    endpoint.pid = e.find("pid")->as_u64();
    if (ph->as_string() == "s") {
      parsed.starts.push_back(endpoint);
      // A flow start must sit on the lane of the sending node and carry
      // the binding id Chrome matches on.
      EXPECT_NE(endpoint.id, 0u);
    } else {
      parsed.finishes.push_back(endpoint);
      // 'f' events must bind to the enclosing slice ("bp":"e"), or the
      // viewer attaches the arrow to the wrong span.
      const auto* bp = e.find("bp");
      EXPECT_NE(bp, nullptr);
      if (bp) {
        EXPECT_EQ(bp->as_string(), "e");
      }
    }
  }
  return parsed;
}

/// Count of (start, finish) pairs for `name` whose ids match across two
/// DIFFERENT node lanes -- a rendered cross-node flow arrow.
std::size_t cross_node_flows(const ParsedTrace& parsed,
                             const std::string& name) {
  std::size_t flows = 0;
  for (const FlowEndpoint& s : parsed.starts) {
    if (s.name != name) continue;
    for (const FlowEndpoint& f : parsed.finishes) {
      if (f.name == name && f.id == s.id && f.pid != s.pid) {
        ++flows;
        break;
      }
    }
  }
  return flows;
}

TEST(ObsFlowTest, TracedSimRunExportsCrossNodeWriteAndReadFlows) {
  obs::Tracer tracer;
  ClusterConfig config;
  config.seed = 9;
  config.obs.tracer = &tracer;
  Cluster cluster(erasure::make_systematic_rs(5, 3, 64),
                  std::make_unique<sim::ConstantLatency>(5 * kMillisecond),
                  config);

  // One traced write, then a read at a parity server (no uncoded copy),
  // which must run the full remote inquiry round.
  cluster.make_client(0).write(0, Value(64, 0xAB));
  cluster.run_for(kSecond);
  int reads_done = 0;
  cluster.make_client(4).read(
      0, [&](const Value& v, const Tag&, const VectorClock&) {
        ++reads_done;
        EXPECT_EQ(v.size(), 64u);
      });
  cluster.run_for(kSecond);
  cluster.settle();
  ASSERT_EQ(reads_done, 1);

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  ASSERT_TRUE(obs::is_valid_json(out.str()));
  const ParsedTrace parsed = parse_chrome_flows(out.str());

  // The write's app multicast renders as >= 1 cross-node flow arrow.
  EXPECT_GE(cross_node_flows(parsed, "flow.app"), 1u);
  // The read's inquiry and at least one response render as flows too.
  EXPECT_GE(cross_node_flows(parsed, "flow.val_inq"), 1u);
  EXPECT_GE(cross_node_flows(parsed, "flow.val_resp") +
                cross_node_flows(parsed, "flow.val_resp_encoded"),
            1u);
  EXPECT_EQ(parsed.dropped, 0u);
}

TEST(ObsFlowTest, ReadSpanCarriesCausallyDependentWriteTag) {
  obs::Tracer tracer;
  ClusterConfig config;
  config.seed = 9;
  config.obs.tracer = &tracer;
  Cluster cluster(erasure::make_systematic_rs(5, 3, 64),
                  std::make_unique<sim::ConstantLatency>(kMillisecond),
                  config);

  const Tag written = cluster.make_client(0).write(0, Value(64, 0x11));
  cluster.settle();
  int reads_done = 0;
  cluster.make_client(4).read(
      0, [&](const Value&, const Tag& tag, const VectorClock&) {
        ++reads_done;
        EXPECT_EQ(tag, written);
      });
  cluster.settle();
  ASSERT_EQ(reads_done, 1);

  // The read's end event is annotated with the tag of the write the
  // returned version causally depends on.
  std::ostringstream expected;
  expected << written;
  bool found = false;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.name.rfind("read", 0) != 0) continue;
    for (const obs::TraceArg& arg : e.args) {
      if (arg.key == "dep_tag" && arg.value == expected.str()) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ObsFlowTest, SimPhaseHistogramsFill) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  ClusterConfig config;
  config.seed = 3;
  config.obs.tracer = &tracer;
  config.obs.metrics = &metrics;
  Cluster cluster(erasure::make_systematic_rs(5, 3, 64),
                  std::make_unique<sim::ConstantLatency>(kMillisecond),
                  config);

  Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    cluster.make_client(static_cast<NodeId>(rng.next_below(5)))
        .write(static_cast<ObjectId>(rng.next_below(3)),
               Value(64, static_cast<std::uint8_t>(i)));
    cluster.run_for(10 * kMillisecond);
  }
  cluster.settle();

  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_GT(snap.histograms.at("phase.apply_ns").count, 0u);
  EXPECT_GT(snap.histograms.at("phase.encode_ns").count, 0u);
}

TEST(ObsFlowTest, ThreadedClusterFlowsPhasesAndMailboxGauge) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  runtime::ThreadedClusterConfig config;
  config.gc_period = std::chrono::milliseconds(10);
  config.obs.tracer = &tracer;
  config.obs.metrics = &metrics;
  runtime::ThreadedCluster cluster(erasure::make_systematic_rs(5, 3, 32),
                                   config);

  for (int i = 0; i < 30; ++i) {
    cluster.write(static_cast<NodeId>(i % 5), /*client=*/1,
                  static_cast<ObjectId>(i % 3),
                  Value(32, static_cast<std::uint8_t>(i)));
  }
  for (ObjectId x = 0; x < 3; ++x) {
    const auto [value, tag] = cluster.read(/*at=*/4, /*client=*/2, x);
    EXPECT_EQ(value.size(), 32u);
  }
  ASSERT_TRUE(cluster.await_convergence(std::chrono::milliseconds(5000)));

  // Cross-node flows on the threaded runtime too (real threads, real
  // codec frames).
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  ASSERT_TRUE(obs::is_valid_json(out.str()));
  const ParsedTrace parsed = parse_chrome_flows(out.str());
  EXPECT_GE(cross_node_flows(parsed, "flow.app"), 1u);

  // Mailbox phase decomposition: queue wait, deserialize, and the
  // broadcast-serialize cost all observed samples.
  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_GT(snap.histograms.at("phase.queue_wait_ns").count, 0u);
  EXPECT_GT(snap.histograms.at("phase.deserialize_ns").count, 0u);
  EXPECT_GT(snap.histograms.at("phase.serialize_ns").count, 0u);
  // At least one node saw a non-empty mailbox and published its depth.
  bool gauge_found = false;
  for (const auto& [name, value] : snap.gauges) {
    if (name.rfind("runtime.mailbox_depth.s", 0) == 0) gauge_found = true;
  }
  EXPECT_TRUE(gauge_found);
}

TEST(ObsFlowTest, DroppedEventsSurfaceInBothExports) {
  // A tracer too small for the run must count the overflow and surface it
  // in the Chrome export ("causalecDropped") and the JSONL footer.
  obs::Tracer tracer(/*capacity=*/16);
  ClusterConfig config;
  config.seed = 2;
  config.obs.tracer = &tracer;
  Cluster cluster(erasure::make_systematic_rs(5, 3, 64),
                  std::make_unique<sim::ConstantLatency>(kMillisecond),
                  config);
  for (int i = 0; i < 10; ++i) {
    cluster.make_client(static_cast<NodeId>(i % 5))
        .write(static_cast<ObjectId>(i % 3),
               Value(64, static_cast<std::uint8_t>(i)));
    cluster.run_for(10 * kMillisecond);
  }
  cluster.settle();
  ASSERT_GT(tracer.dropped(), 0u);

  std::ostringstream chrome;
  tracer.write_chrome_trace(chrome);
  ASSERT_TRUE(obs::is_valid_json(chrome.str()));
  const auto doc = obs::json_parse(chrome.str());
  ASSERT_TRUE(doc.has_value());
  const auto* dropped = doc->find("causalecDropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->as_u64(), tracer.dropped());

  std::ostringstream jsonl;
  tracer.write_jsonl(jsonl);
  // The footer is the last non-empty line.
  std::string line, footer;
  std::istringstream lines(jsonl.str());
  while (std::getline(lines, line)) {
    if (!line.empty()) footer = line;
  }
  const auto footer_doc = obs::json_parse(footer);
  ASSERT_TRUE(footer_doc.has_value());
  const auto* footer_obj = footer_doc->find("footer");
  ASSERT_NE(footer_obj, nullptr);
  EXPECT_EQ(footer_obj->find("dropped")->as_u64(), tracer.dropped());
  EXPECT_EQ(footer_obj->find("events")->as_u64(), tracer.size());
}

}  // namespace
}  // namespace causalec
