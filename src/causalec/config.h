// Tunables for the CausalEC server.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "obs/obs.h"

namespace causalec {

/// Metadata accounting mode (Sec. 4.2): the algorithm always runs on vector
/// clocks internally; the "low-cost variant" charges Lamport-sized scalars
/// for inquiry / response / del message metadata. This knob affects only
/// wire-size accounting, never behavior.
enum class MetadataMode { kVectorClock, kLamport };

/// Read inquiry fan-out (footnote 14): broadcast val_inq to everyone, or
/// contact the closest recovery set first and fall back to a broadcast on
/// timeout.
enum class ReadFanout { kBroadcast, kNearestRecoverySet };

/// del-message dissemination (Sec. 4.2 variant (ii) / Appendix G): each
/// server fans its own dels out directly, or sends one del to a designated
/// leader that forwards to everyone (halving sender-side fan-out at the
/// price of an extra hop; assumes a non-halting leader).
enum class DelRouting { kDirect, kViaLeader };

/// Rejoin catch-up sizing (DESIGN.md §9/§5.2): pull missed state from every
/// live peer (the original behavior), or only from the repair-plan helper
/// set that suffices to rebuild this server's symbol, falling back to a
/// full pull when no plan exists. Any single up-to-date peer's push already
/// converges the rejoin (the §9 superset argument); straggler clocks
/// reported in digest replies trigger targeted extra pulls.
enum class RejoinCatchup { kPullAll, kRepairPlan };

struct ServerConfig {
  MetadataMode metadata = MetadataMode::kVectorClock;
  ReadFanout fanout = ReadFanout::kBroadcast;

  /// With kNearestRecoverySet: proximity[i] ranks server i (lower = closer
  /// to this server); empty means "use server-id order". Fallback broadcast
  /// fires after fanout_timeout_ns. While peers are known down
  /// (set_peer_down), a read asks the code for an object-repair plan that
  /// avoids them instead, so it does not wait out the timeout for a dead
  /// member (a degraded read).
  std::vector<double> proximity;
  std::int64_t fanout_timeout_ns = 500'000'000;  // 500 ms

  /// del dissemination topology (Appendix G variant (ii)).
  DelRouting del_routing = DelRouting::kDirect;
  NodeId del_leader = 0;

  /// Try to decode a freshly registered read from the local symbol before
  /// it sends any inquiry. The paper only decodes on response receipt; the
  /// local attempt lets internal reads at servers whose own symbol decodes
  /// the object (e.g. uncoded/systematic servers) complete with zero
  /// network traffic under either fan-out, cutting measured write cost
  /// roughly in half (see bench_geo_sim). Reads whose inquiry target set
  /// is empty are decoded locally regardless (liveness).
  bool opportunistic_local_decode = true;

  /// Suppress duplicate del(X, t) broadcasts from Garbage_Collection
  /// (Alg. 3 line 48) when the same tag was already sent. Behaviorally
  /// equivalent over reliable channels; matches the Sec. 4.2 cost analysis.
  bool dedupe_del_broadcasts = true;

  /// Keep DelL compacted: per (object, server) retain the maximal tag plus
  /// any tags >= tmax[X]. Preserves the S / Sbar / U computations exactly.
  bool compact_del_lists = true;

  /// Abort if a val_resp_encoded ever sets Error1/Error2 (the paper proves
  /// they stay 0; a violation means an implementation bug).
  bool strict_error_invariants = true;

  /// TEST-ONLY fault seam for the chaos harness's self-test: when true,
  /// Apply_InQueue ignores the cross-origin half of its causality predicate
  /// (Alg. 3 line 4's second conjunct), so an app message can be applied
  /// before the writes it causally depends on. This deliberately breaks
  /// causal consistency under message reordering; the chaos harness must
  /// detect it and shrink a reproducer. Never enable outside tests.
  bool unsafe_skip_apply_order_check = false;

  /// Which peers a rejoin round pulls from (see RejoinCatchup above).
  RejoinCatchup rejoin_catchup = RejoinCatchup::kRepairPlan;

  /// TEST-ONLY fault seam for the chaos harness's self-test: when true,
  /// begin_rejoin() skips the digest/pull/push catch-up entirely, so a
  /// recovered server rejoins with stale state (missed writes are never
  /// fetched, its clock gaps never close). The convergence and liveness
  /// checkers must detect this. Never enable outside tests.
  bool unsafe_skip_rejoin_catchup = false;

  /// Observability sinks (see obs/obs.h). Null members disable the
  /// corresponding instrumentation at the cost of one branch per site.
  obs::ObsHooks obs;

  /// Always-on flight recorder (obs/flight_recorder.h): a fixed ring of the
  /// 1024 most recent protocol events kept even when tracing/metrics are
  /// off, dumped into chaos replay bundles and by causalec_inspect. Cheap
  /// enough to leave on (bench_micro --obs gates the overhead at <= 5%);
  /// the off switch exists for that bench's baseline and for tests.
  bool flight_recorder = true;
};

}  // namespace causalec
