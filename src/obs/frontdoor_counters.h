// Per-tier counters for the front-door tier (DESIGN.md §12), resolved once
// from a MetricsRegistry and then updated lock-free from every router shard
// thread (the registry mutex is only taken here, at resolve time).
//
// The cache outcome counters partition routed reads:
//   hits + misses + stale + expired == routed reads,
//   misses + stale + expired == fall-throughs reaching a backend.
// The latency histograms split the read path per tier: cache hits are
// answered on the router's shard thread; origin reads pay the extra hop
// plus the backend automaton.
#pragma once

#include "obs/metrics.h"

namespace causalec::obs {

struct FrontdoorCounters {
  Counter* routed_writes = nullptr;
  Counter* routed_reads = nullptr;
  Counter* cache_hits = nullptr;
  Counter* cache_misses = nullptr;
  Counter* cache_stale = nullptr;    // frontier ahead of the cached witness
  Counter* cache_expired = nullptr;  // TTL lapsed
  Counter* fallthroughs = nullptr;   // reads forwarded to a backend
  Counter* reroutes = nullptr;       // sent past a down ring owner
  Counter* ring_remaps = nullptr;    // backend link up/down transitions
  Histogram* cache_hit_ns = nullptr;     // router-side hit service time
  Histogram* origin_read_ns = nullptr;   // fall-through round trip
  Histogram* origin_write_ns = nullptr;  // routed write round trip

  static FrontdoorCounters resolve(MetricsRegistry& registry) {
    FrontdoorCounters c;
    c.routed_writes = &registry.counter("frontdoor.routed_writes");
    c.routed_reads = &registry.counter("frontdoor.routed_reads");
    c.cache_hits = &registry.counter("frontdoor.cache_hits");
    c.cache_misses = &registry.counter("frontdoor.cache_misses");
    c.cache_stale = &registry.counter("frontdoor.cache_stale");
    c.cache_expired = &registry.counter("frontdoor.cache_expired");
    c.fallthroughs = &registry.counter("frontdoor.fallthroughs");
    c.reroutes = &registry.counter("frontdoor.reroutes");
    c.ring_remaps = &registry.counter("frontdoor.ring_remaps");
    c.cache_hit_ns = &registry.histogram("frontdoor.cache_hit_ns");
    c.origin_read_ns = &registry.histogram("frontdoor.origin_read_ns");
    c.origin_write_ns = &registry.histogram("frontdoor.origin_write_ns");
    return c;
  }
};

}  // namespace causalec::obs
