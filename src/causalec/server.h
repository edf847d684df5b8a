// The CausalEC server automaton (Algorithms 1, 2, 3).
//
// Transport-agnostic: the server emits messages through a Transport and is
// driven by on_message / internal-action entry points. The discrete-event
// cluster (cluster.h) hosts it on the simulator; any other runtime could.
//
// Clients are co-located with their server (the paper's C_s partition):
// client operations enter through direct calls and never touch the modeled
// network. Writes return synchronously (Property (I): writes are local);
// reads either return inline (local history / local decode) or complete
// later through the registered callback.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "causalec/config.h"
#include "causalec/del_list.h"
#include "causalec/history_list.h"
#include "causalec/inqueue.h"
#include "causalec/messages.h"
#include "causalec/read_list.h"
#include "causalec/tag.h"
#include "common/types.h"
#include "erasure/code.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "persist/image.h"
#include "persist/journal.h"
#include "sim/simulation.h"

namespace causalec {

/// Outbound interface the server needs from its runtime.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual void send(NodeId to, sim::MessagePtr message) = 0;

  /// Broadcast hook: deliver one logical message to every target. `make`
  /// builds a fresh MessagePtr per call (payload buffers are shared, so
  /// each call is cheap). The default is a per-target send; runtimes that
  /// serialize can override to encode the frame once and share the bytes
  /// across destinations (ThreadedCluster does).
  virtual void multicast(std::span<const NodeId> targets,
                         const std::function<sim::MessagePtr()>& make) {
    for (NodeId to : targets) send(to, make());
  }

  virtual void schedule_after(SimTime delta, std::function<void()> fn) = 0;
  virtual SimTime now() const = 0;
};

/// Point-in-time storage footprint of one server (Theorem 4.5 / Sec. 4.2
/// transient-cost accounting). Payload bytes only; metadata counted as
/// entry counts.
struct StorageStats {
  std::size_t codeword_bytes = 0;       // |M.val| -- the stable-state cost
  std::size_t history_bytes = 0;        // sum over X of |L[X]| payloads
  std::size_t history_entries = 0;
  std::size_t inqueue_bytes = 0;
  std::size_t inqueue_entries = 0;
  std::size_t readl_entries = 0;
  std::size_t dell_entries = 0;
};

/// Operation counters for benches and tests.
struct ServerCounters {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t reads_served_from_history = 0;
  std::uint64_t reads_served_local_decode = 0;
  std::uint64_t reads_registered_remote = 0;
  std::uint64_t internal_reads_started = 0;
  std::uint64_t reencodes = 0;
  std::uint64_t val_inq_handled = 0;
  std::uint64_t val_resp_sent = 0;
  std::uint64_t val_resp_encoded_sent = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t history_entries_collected = 0;
  std::uint64_t error1_events = 0;  // stays 0 in every correct execution
  std::uint64_t error2_events = 0;  // stays 0 in every correct execution
  // Crash-recovery accounting (DESIGN.md §9).
  std::uint64_t recoveries = 0;            // begin_rejoin() calls
  std::uint64_t rejoin_pushes_sent = 0;
  std::uint64_t rejoin_pushes_received = 0;
  std::uint64_t catchup_bytes = 0;         // wire bytes of received pushes
  std::uint64_t catchup_history_entries = 0;
  std::uint64_t stale_app_dropped = 0;     // duplicate/covered app messages
  // Repair-plan consumers (DESIGN.md §5.4).
  std::uint64_t degraded_reads = 0;     // fan-outs routed by an object plan
  std::uint64_t repair_plan_hits = 0;   // successful plan lookups (any kind)
  std::uint64_t repair_bytes = 0;       // bytes the chosen plans move
  std::uint64_t rejoin_helper_pulls = 0;  // pulls sent to plan helpers only
};

class Server final : public sim::Actor {
 public:
  Server(NodeId id, erasure::CodePtr code, ServerConfig config,
         Transport* transport);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  NodeId id() const { return id_; }
  const erasure::Code& code() const { return *code_; }

  // -- Client-facing operations (Alg. 1) ----------------------------------

  /// Local write (Alg. 1, on receive <write>); returns the write's tag
  /// (the acknowledgement is synchronous -- Property (I)).
  Tag client_write(ClientId client, OpId opid, ObjectId object,
                   erasure::Value value);

  /// Read (Alg. 1, on receive <read>). The callback fires exactly once --
  /// possibly inline when the read is served locally.
  void client_read(ClientId client, OpId opid, ObjectId object,
                   ReadCallback callback);

  // -- Runtime entry points ------------------------------------------------

  void on_message(NodeId from, sim::MessagePtr message) override;

  /// Handler dispatch without the trailing internal-action fixpoint.
  /// Batch-draining runtimes (runtime/threaded_cluster.cpp) dispatch every
  /// message of a mailbox batch through this and then run the fixpoint
  /// once; on_message == dispatch_message + run_internal_actions.
  void dispatch_message(NodeId from, sim::MessagePtr message);

  /// Apply_InQueue + Encoding, run to a fixed point. Invoked automatically
  /// after every message receipt; exposed for tests.
  void run_internal_actions();

  /// Garbage_Collection (Alg. 3). Drive from a periodic timer.
  void run_garbage_collection();

  // -- Crash recovery (DESIGN.md §9) ---------------------------------------

  /// Snapshot of the complete durable protocol state (ReadL excluded --
  /// pending-read callbacks cannot survive a restart).
  persist::ServerImage capture_image() const;

  /// The restart step shared by every runtime: reset to the attached
  /// journal's snapshot and replay its WAL with this server's own sends
  /// suppressed (they reached the network before the crash), so the
  /// pre-crash state is reproduced exactly. Then move the internal-read
  /// opids past any pre-crash read whose replies are still in flight, and
  /// checkpoint so a second crash does not replay the WAL again. Returns
  /// false, changing nothing, when the journal holds no state (the server
  /// never accepted an input). Call while no other thread drives the
  /// server; follow with begin_rejoin().
  bool restore_from_journal();

  /// Saves capture_image() into the attached journal (no-op without one);
  /// runtimes call it on their snapshot cadence.
  void checkpoint();

  /// Journal to record accepted writes and dispatched messages into; null
  /// (the default) disables durability. Not owned.
  void attach_journal(persist::Journal* journal) { journal_ = journal; }
  bool durable() const { return journal_ != nullptr; }

  /// Start an anti-entropy rejoin round: broadcast a state digest, pull
  /// missed writes from every live peer, and converge without replaying
  /// history. Call after restore_from_journal, with the transport live.
  void begin_rejoin();

  bool recovering() const { return recovering_; }
  std::uint64_t recovery_epoch() const { return recovery_epoch_; }

  /// Liveness view of a peer, fed by the hosting runtime (Cluster forwards
  /// halt/recover events). A nonzero down mask switches eligible read
  /// fan-outs onto object-repair plans and shrinks rejoin helper sets;
  /// an empty mask leaves every pre-repair code path untouched.
  void set_peer_down(NodeId peer, bool down);
  std::uint32_t peer_down_mask() const { return peer_down_mask_; }

  // -- Introspection -------------------------------------------------------

  const VectorClock& clock() const { return vc_; }
  const Tag& codeword_tag(ObjectId object) const { return m_tags_[object]; }
  const erasure::Symbol& codeword_value() const { return m_val_; }
  const HistoryList& history(ObjectId object) const { return lists_[object]; }
  const DelList& del_list(ObjectId object) const { return dels_[object]; }
  const InQueue& inqueue() const { return inqueue_; }
  const ReadList& read_list() const { return reads_; }
  const Tag& tmax(ObjectId object) const { return tmax_[object]; }
  StorageStats storage() const;
  const ServerCounters& counters() const { return counters_; }

  /// Always-on ring of recent protocol events (config.flight_recorder);
  /// dumped into chaos replay bundles, on recovery restart, and by
  /// causalec_inspect.
  const obs::FlightRecorder& flight_recorder() const { return flight_; }

 private:
  // Restart halves (restore_from_journal runs them around the WAL replay).
  /// Reset to initial state, then (when `image` is non-null) load the
  /// snapshot. Must describe this same (node, n, k, value_bytes). Arms the
  /// stale-app guard so duplicate deliveries after recovery are dropped.
  void restore_image(const persist::ServerImage* image);
  /// Closes the replay window: drops reads registered during replay (their
  /// inquiries were never sent; the Encoding action re-issues what it
  /// needs).
  void end_restore();

  /// Every outbound message leaves through these two, which drop it while
  /// the WAL replays (the pre-crash run already sent it).
  void send(NodeId to, sim::MessagePtr message) {
    if (!muted_) transport_->send(to, std::move(message));
  }
  void multicast(std::span<const NodeId> targets,
                 const std::function<sim::MessagePtr()>& make) {
    if (!muted_) transport_->multicast(targets, make);
  }

  // Message handlers (Alg. 1 line 44, Alg. 2).
  void handle_app(NodeId from, const AppMessage& msg);
  void handle_del(NodeId from, const DelMessage& msg);
  void handle_val_inq(NodeId from, const ValInqMessage& msg);
  void handle_val_resp(NodeId from, const ValRespMessage& msg);
  void handle_val_resp_encoded(NodeId from, const ValRespEncodedMessage& msg);

  // Rejoin catch-up handlers (DESIGN.md §9).
  void handle_recover_digest(NodeId from, const RecoverDigestMessage& msg);
  void handle_recover_digest_reply(NodeId from,
                                   const RecoverDigestReplyMessage& msg);
  void handle_recover_pull(NodeId from, const RecoverPullMessage& msg);
  void handle_recover_push(NodeId from, const RecoverPushMessage& msg);
  /// Build and send a push of everything `target_vc` does not cover.
  void send_recover_push(NodeId to, std::uint64_t epoch,
                         const VectorClock& target_vc);
  /// Pull targets for a rejoin round: the symbol-repair helper set when
  /// config_.rejoin_catchup is kRepairPlan and a plan exists, else all
  /// live-looking peers (the kPullAll behavior).
  std::uint32_t rejoin_pull_targets();
  void send_recover_pull(NodeId to);
  /// All expected pushes arrived: chase straggler clocks seen in digest
  /// replies (a peer uniquely holding writes we miss) or finish.
  void maybe_finish_rejoin();
  /// Deadline: escalate a helper-set round to a full pull once, then give
  /// up and finish with whatever arrived (the pre-repair behavior).
  void rejoin_deadline(std::uint64_t epoch);
  void finish_rejoin();

  // Internal actions (Alg. 3).
  bool apply_inqueue_step();   // one Apply_InQueue; true if it applied
  bool encoding_step();        // one Encoding pass; true if state changed

  // Pending-read plumbing.
  void complete_pending_read(PendingRead& read, const erasure::Value& value,
                             const Tag& value_tag);
  void try_decode_pending_read(OpId opid);
  void register_read(PendingRead read);
  void retry_pending_read(OpId opid);
  void send_val_inq_to(const std::vector<NodeId>& targets,
                       const PendingRead& read);
  /// Non-const: a degraded fan-out (down peers + repair plan) bumps the
  /// repair counters as a side effect.
  std::vector<NodeId> initial_fanout_targets(const PendingRead& read);

  // del bookkeeping.
  void record_del(ObjectId object, const Tag& tag);  // own DelL entry
  void send_del_to_containing(ObjectId object, const Tag& tag);
  void broadcast_del(ObjectId object, const Tag& tag, bool dedupe);

  OpId next_internal_opid();

  /// Current time for observability timestamps; 0 when obs is off so the
  /// hot path never pays the virtual now() call.
  SimTime obs_now() const {
    return obs_enabled_ ? transport_->now() : 0;
  }

  /// Attaches trace context to an outbound message: `trace_id` names the
  /// client operation the message belongs to, the freshly minted span id
  /// binds the 's'/'f' flow pair the routers emit for this send edge.
  void stamp_trace(sim::Message& message, std::uint64_t trace_id) {
    if (tracer_ == nullptr || trace_id == 0) return;
    message.trace.trace_id = trace_id;
    message.trace.span_id = tracer_->new_id();
  }

  /// Flight-recorder entry (no-op when config.flight_recorder is false).
  void flight(obs::FlightKind kind, std::uint32_t a = 0, std::uint32_t b = 0,
              const Tag* tag = nullptr) {
    if (!flight_on_) return;
    flight_.record(transport_->now(), kind, a, b,
                   tag != nullptr ? tag->ts.sum() : 0,
                   tag != nullptr ? static_cast<std::uint32_t>(tag->id) : 0);
  }

  // Cold observability emitters, one per hot-path site. Kept out of line and
  // never inlined: the trace-argument construction otherwise bloats
  // client_write/client_read enough to measurably slow them down even when
  // observability is disabled and the code never runs. Call only under
  // `if (obs_enabled_)` so the disabled cost is one predictable branch.
  [[gnu::noinline]] void obs_write_done(ObjectId object, ClientId client,
                                        std::size_t bytes, SimTime t0,
                                        std::uint64_t trace_id);
  [[gnu::noinline]] void obs_read_done(ObjectId object, SimTime t0,
                                       const char* path, const Tag& tag);
  [[gnu::noinline]] std::uint64_t obs_read_remote_begin(ObjectId object,
                                                        OpId opid, SimTime t0);
  [[gnu::noinline]] std::uint64_t obs_read_internal_begin(ObjectId object,
                                                          SimTime t0);
  [[gnu::noinline]] void obs_reencode(ObjectId object);

  /// R = { i : X in X_i } (the servers whose encoding depends on X).
  const std::vector<NodeId>& containing_servers(ObjectId object) const {
    return containing_[object];
  }

  NodeId id_;
  erasure::CodePtr code_;
  ServerConfig config_;
  Transport* transport_;
  WireModel wire_;
  std::size_t n_;  // number of servers
  std::size_t k_;  // number of objects

  // -- Algorithm state (Fig. 3) --------------------------------------------
  VectorClock vc_;
  InQueue inqueue_;
  std::vector<HistoryList> lists_;   // L[X]
  std::vector<DelList> dels_;       // DelL[X]
  erasure::Symbol m_val_;            // M.val
  TagVector m_tags_;                 // M.tagvec
  ReadList reads_;                   // ReadL
  TagVector tmax_;                   // tmax[X]

  // -- Implementation bookkeeping ------------------------------------------
  std::uint64_t internal_opid_counter_ = 0;
  std::vector<std::vector<NodeId>> containing_;  // per object
  std::vector<NodeId> others_;                   // every node but this one
  // Last tag broadcast to *all* nodes per object (del dedupe, DESIGN note 6).
  TagVector last_del_broadcast_all_;
  ServerCounters counters_;
  bool in_internal_actions_ = false;

  // -- Crash-recovery state (DESIGN.md §9) ---------------------------------
  persist::Journal* journal_ = nullptr;  // not owned; null = no durability
  bool muted_ = false;  // true while restore_from_journal replays the WAL
  bool recovering_ = false;
  /// Counts rejoin rounds; nonzero also arms the stale-app guard (a server
  /// that has ever restored may see duplicate deliveries).
  std::uint64_t recovery_epoch_ = 0;
  std::vector<bool> rejoin_waiting_;  // peers yet to push this round
  std::size_t rejoin_waiting_count_ = 0;
  SimTime rejoin_started_at_ = 0;
  // Repair-plan rejoin bookkeeping (all reset by begin_rejoin).
  std::uint32_t rejoin_pull_mask_ = 0;   // peers this round pulls from
  std::uint32_t rejoin_pulled_ = 0;      // peers already sent a pull
  std::uint32_t rejoin_reply_seen_ = 0;  // peers whose digest reply arrived
  std::vector<VectorClock> rejoin_reply_vcs_;  // their reported clocks
  bool rejoin_escalated_ = false;        // deadline already widened the pull

  /// Runtime liveness view (set_peer_down); bit j set = peer j down.
  std::uint32_t peer_down_mask_ = 0;

  // -- Observability (null/false when disabled) ----------------------------
  obs::Tracer* tracer_ = nullptr;
  bool obs_enabled_ = false;
  /// Trace id of the client operation (or inbound message) currently being
  /// processed; 0 when untraced. Outbound sends inherit it via stamp_trace.
  std::uint64_t active_trace_ = 0;
  // Handles resolved once at construction; updates are lock-free.
  obs::Counter* m_writes_ = nullptr;
  obs::Counter* m_reads_ = nullptr;
  obs::Counter* m_reads_remote_ = nullptr;
  obs::Counter* m_reencodes_ = nullptr;
  obs::Counter* m_gc_collected_ = nullptr;
  obs::Histogram* m_read_latency_ = nullptr;
  obs::Histogram* m_write_bytes_ = nullptr;
  obs::Counter* m_recoveries_ = nullptr;
  obs::Counter* m_catchup_bytes_ = nullptr;
  obs::Counter* m_repair_bytes_ = nullptr;
  obs::Counter* m_repair_plan_hits_ = nullptr;
  obs::Counter* m_degraded_reads_ = nullptr;
  obs::Histogram* m_recovery_duration_ = nullptr;
  // Per-phase latency decomposition (steady-clock wall time, both runtimes).
  obs::Histogram* m_phase_apply_ = nullptr;
  obs::Histogram* m_phase_encode_ = nullptr;
  obs::Histogram* m_phase_persist_ = nullptr;

  // -- Flight recorder (always on; see config.flight_recorder) -------------
  obs::FlightRecorder flight_;
  bool flight_on_ = true;
};

}  // namespace causalec
