#include "causalec/server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>

#include "causalec/codec.h"
#include "common/logging.h"

namespace causalec {

namespace {

/// Internal-read opids live in their own half of the id space so they can
/// never collide with client-generated opids.
constexpr OpId kInternalOpidBase = OpId{1} << 63;

/// Opid range skipped per restore so post-restart internal reads can never
/// collide with pre-crash reads whose responses are still in flight.
constexpr std::uint64_t kOpidRecoverySkip = std::uint64_t{1} << 20;

/// Crash-recovery rejoin (DESIGN.md §9): a recovering server finishes its
/// catch-up round when every peer has pushed, or after this long when some
/// peers are themselves down (they push on their own rejoin later).
constexpr SimTime kRejoinTimeoutNs = 1'000'000'000;  // 1 s

/// Wall-clock nanoseconds for the per-phase latency histograms. Phase
/// durations are real elapsed time on both runtimes (simulated time never
/// advances inside an activation, so it cannot decompose one).
std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Small stable code for the flight recorder's msg_recv events; matches the
/// codec's MsgType numbering.
std::uint32_t msg_type_code(const sim::Message& m) {
  const char* n = m.type_name();
  if (std::strcmp(n, "app") == 0) return 1;
  if (std::strcmp(n, "del") == 0) return 2;
  if (std::strcmp(n, "val_inq") == 0) return 3;
  if (std::strcmp(n, "val_resp") == 0) return 4;
  if (std::strcmp(n, "val_resp_encoded") == 0) return 5;
  if (std::strcmp(n, "recover_digest") == 0) return 6;
  if (std::strcmp(n, "recover_digest_reply") == 0) return 7;
  if (std::strcmp(n, "recover_pull") == 0) return 8;
  if (std::strcmp(n, "recover_push") == 0) return 9;
  return 0;
}

std::string tag_string(const Tag& tag) {
  std::ostringstream out;
  out << tag;
  return out.str();
}

}  // namespace

Server::Server(NodeId id, erasure::CodePtr code, ServerConfig config,
               Transport* transport)
    : id_(id),
      code_(std::move(code)),
      config_(std::move(config)),
      transport_(transport),
      wire_(WireModel::make(config_, code_->num_servers(),
                            code_->num_objects())),
      n_(code_->num_servers()),
      k_(code_->num_objects()),
      vc_(n_),
      m_val_(code_->zero_symbol(id)),
      m_tags_(zero_tag_vector(k_, n_)),
      tmax_(zero_tag_vector(k_, n_)),
      last_del_broadcast_all_(zero_tag_vector(k_, n_)) {
  CEC_CHECK(transport_ != nullptr);
  CEC_CHECK(id_ < n_);
  tracer_ = config_.obs.tracer;
  obs_enabled_ = config_.obs.any();
  flight_on_ = config_.flight_recorder;
  if (obs::MetricsRegistry* metrics = config_.obs.metrics) {
    m_writes_ = &metrics->counter("server.writes");
    m_reads_ = &metrics->counter("server.reads");
    m_reads_remote_ = &metrics->counter("server.reads_remote");
    m_reencodes_ = &metrics->counter("server.reencodes");
    m_gc_collected_ = &metrics->counter("server.gc_collected");
    m_read_latency_ = &metrics->histogram("server.read_latency_ns");
    m_write_bytes_ = &metrics->histogram("server.write_bytes");
    m_recoveries_ = &metrics->counter("server.recoveries");
    m_catchup_bytes_ = &metrics->counter("server.catchup_bytes");
    m_repair_bytes_ = &metrics->counter("server.repair_bytes");
    m_repair_plan_hits_ = &metrics->counter("server.repair_plan_hits");
    m_degraded_reads_ = &metrics->counter("server.degraded_reads");
    m_recovery_duration_ = &metrics->histogram("server.recovery_duration_ns");
    m_phase_apply_ = &metrics->histogram("phase.apply_ns");
    m_phase_encode_ = &metrics->histogram("phase.encode_ns");
    m_phase_persist_ = &metrics->histogram("phase.persist_ns");
  }
  for (NodeId j = 0; j < n_; ++j) {
    if (j != id_) others_.push_back(j);
  }
  lists_.reserve(k_);
  dels_.reserve(k_);
  containing_.resize(k_);
  for (std::size_t x = 0; x < k_; ++x) {
    lists_.emplace_back(n_, code_->value_bytes());
    dels_.emplace_back(n_);
    for (NodeId j = 0; j < n_; ++j) {
      if (code_->contains(j, static_cast<ObjectId>(x))) {
        containing_[x].push_back(j);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cold observability emitters (declared noinline in server.h; see there).
// ---------------------------------------------------------------------------

void Server::obs_write_done(ObjectId object, ClientId client,
                            std::size_t bytes, SimTime t0,
                            std::uint64_t trace_id) {
  if (m_writes_ != nullptr) {
    m_writes_->inc();
    m_write_bytes_->observe(bytes);
  }
  if (tracer_ != nullptr) {
    tracer_->complete("write", id_, t0, transport_->now() - t0,
                      {{"object", std::uint64_t{object}},
                       {"client", std::uint64_t{client}},
                       {"trace", trace_id}});
  }
}

void Server::obs_read_done(ObjectId object, SimTime t0, const char* path,
                           const Tag& tag) {
  if (tracer_ != nullptr) {
    tracer_->complete("read", id_, t0, transport_->now() - t0,
                      {{"object", std::uint64_t{object}},
                       {"path", path},
                       {"dep_tag", tag_string(tag)}});
  }
  if (m_read_latency_ != nullptr) {
    m_read_latency_->observe(
        static_cast<std::uint64_t>(transport_->now() - t0));
  }
}

std::uint64_t Server::obs_read_remote_begin(ObjectId object, OpId opid,
                                            SimTime t0) {
  if (m_reads_remote_ != nullptr) m_reads_remote_->inc();
  if (tracer_ == nullptr) return 0;
  return tracer_->begin_async(
      "read.remote", id_, t0,
      {{"object", std::uint64_t{object}}, {"opid", std::uint64_t{opid}}});
}

std::uint64_t Server::obs_read_internal_begin(ObjectId object, SimTime t0) {
  if (tracer_ == nullptr) return 0;
  return tracer_->begin_async("read.internal", id_, t0,
                              {{"object", std::uint64_t{object}}});
}

void Server::obs_reencode(ObjectId object) {
  if (m_reencodes_ != nullptr) m_reencodes_->inc();
  if (tracer_ != nullptr) {
    tracer_->instant("reencode", id_, transport_->now(),
                     {{"object", std::uint64_t{object}}});
  }
}

// ---------------------------------------------------------------------------
// Client operations (Algorithm 1).
// ---------------------------------------------------------------------------

Tag Server::client_write(ClientId client, OpId opid, ObjectId object,
                         erasure::Value value) {
  (void)opid;  // the synchronous ack needs no correlation
  CEC_CHECK(object < k_);
  CEC_CHECK(value.size() == code_->value_bytes());
  // Journal the input, not the effects: replaying the same writes in the
  // same order reproduces the same tags and multicast deterministically.
  if (journal_ != nullptr && journal_->recording()) {
    const std::int64_t pt0 = m_phase_persist_ != nullptr ? wall_ns() : 0;
    journal_->record_client_write(client, opid, object, value);
    if (m_phase_persist_ != nullptr) m_phase_persist_->observe(wall_ns() - pt0);
  }
  // A batching runtime dispatches messages and runs the fixpoint later.
  // Apply them before the tag is taken: the fixpoint at the end of this
  // call would otherwise move them into the clock past the write's tag.
  if (!inqueue_.empty()) run_internal_actions();
  ++counters_.writes;
  const SimTime obs_t0 = obs_now();
  active_trace_ = tracer_ != nullptr ? tracer_->new_id() : 0;

  vc_.increment(id_);
  Tag tag(vc_, client);
  lists_[object].insert(tag, value);
  flight(obs::FlightKind::kClientWrite, object, 0, &tag);

  // Alg. 1 lines 7-9: answer every pending *external* read on this object
  // with the fresh (causally newest local) value.
  std::vector<OpId> to_complete;
  for (auto& read : reads_.all()) {
    if (!read.is_internal() && read.object == object) {
      to_complete.push_back(read.opid);
    }
  }
  for (OpId completed : to_complete) {
    if (PendingRead* read = reads_.find(completed)) {
      complete_pending_read(*read, value, tag);
      reads_.remove(completed);
    }
  }

  // Alg. 1 line 6: propagate to every other node. Every AppMessage shares
  // the one payload buffer, and serializing runtimes encode it once.
  multicast(others_, [&] {
    auto msg = std::make_unique<AppMessage>(object, value, tag, wire_);
    stamp_trace(*msg, active_trace_);
    return msg;
  });

  if (obs_enabled_) {
    obs_write_done(object, client, value.size(), obs_t0, active_trace_);
  }
  run_internal_actions();  // Encoding picks the new version up eagerly
  return tag;
}

void Server::client_read(ClientId client, OpId opid, ObjectId object,
                         ReadCallback callback) {
  CEC_CHECK(object < k_);
  CEC_CHECK(callback != nullptr);
  ++counters_.reads;
  const SimTime obs_t0 = obs_now();
  if (m_reads_ != nullptr) m_reads_->inc();
  flight(obs::FlightKind::kClientRead, object,
         static_cast<std::uint32_t>(opid));

  // Alg. 1 line 11: serve from the history list when it is at least as new
  // as the encoded version (the zero tag acts as the virtual initial entry).
  const Tag highest = lists_[object].highest_tag();
  if (highest >= m_tags_[object]) {
    ++counters_.reads_served_from_history;
    const auto value = lists_[object].lookup(highest);
    CEC_CHECK(value.has_value());
    flight(obs::FlightKind::kReadDone, object, 0, &highest);
    if (obs_enabled_) obs_read_done(object, obs_t0, "history", highest);
    callback(*value, highest, vc_);
    return;
  }

  // Alg. 1 line 13: local decode when {s} is a recovery set.
  if (code_->is_local(id_, object)) {
    ++counters_.reads_served_local_decode;
    const NodeId self[] = {id_};
    const erasure::Symbol syms[] = {m_val_};
    erasure::Value value = code_->decode(object, self, syms);
    flight(obs::FlightKind::kReadDone, object, 0, &m_tags_[object]);
    if (obs_enabled_) {
      obs_read_done(object, obs_t0, "local_decode", m_tags_[object]);
    }
    callback(value, m_tags_[object], vc_);
    return;
  }

  // Alg. 1 lines 16-18: register and inquire.
  ++counters_.reads_registered_remote;
  PendingRead read;
  read.client = client;
  read.opid = opid;
  read.object = object;
  read.requested = m_tags_;
  read.symbols.assign(n_, std::nullopt);
  read.symbols[id_] = m_val_;
  read.callback = std::move(callback);
  read.broadcast = config_.fanout == ReadFanout::kBroadcast;
  read.started_at = obs_t0;
  if (obs_enabled_) {
    read.trace_id = obs_read_remote_begin(object, opid, obs_t0);
  }
  active_trace_ = read.trace_id;
  register_read(std::move(read));
}

// ---------------------------------------------------------------------------
// Message dispatch.
// ---------------------------------------------------------------------------

void Server::on_message(NodeId from, sim::MessagePtr message) {
  dispatch_message(from, std::move(message));
  run_internal_actions();
}

void Server::dispatch_message(NodeId from, sim::MessagePtr message) {
  if (journal_ != nullptr && journal_->recording()) {
    const std::int64_t pt0 = m_phase_persist_ != nullptr ? wall_ns() : 0;
    journal_->record_message(from, serialize_message_frame(*message).span());
    if (m_phase_persist_ != nullptr) m_phase_persist_->observe(wall_ns() - pt0);
  }
  // Handlers run in the trace context of the inbound message; outbound
  // sends they perform inherit it through stamp_trace(active_trace_).
  active_trace_ = message->trace.trace_id;
  flight(obs::FlightKind::kMsgRecv, from, msg_type_code(*message));
  if (auto* app = dynamic_cast<AppMessage*>(message.get())) {
    handle_app(from, *app);
  } else if (auto* del = dynamic_cast<DelMessage*>(message.get())) {
    handle_del(from, *del);
  } else if (auto* inq = dynamic_cast<ValInqMessage*>(message.get())) {
    handle_val_inq(from, *inq);
  } else if (auto* resp = dynamic_cast<ValRespMessage*>(message.get())) {
    handle_val_resp(from, *resp);
  } else if (auto* enc = dynamic_cast<ValRespEncodedMessage*>(message.get())) {
    handle_val_resp_encoded(from, *enc);
  } else if (auto* dig = dynamic_cast<RecoverDigestMessage*>(message.get())) {
    handle_recover_digest(from, *dig);
  } else if (auto* reply =
                 dynamic_cast<RecoverDigestReplyMessage*>(message.get())) {
    handle_recover_digest_reply(from, *reply);
  } else if (auto* pull = dynamic_cast<RecoverPullMessage*>(message.get())) {
    handle_recover_pull(from, *pull);
  } else if (auto* push = dynamic_cast<RecoverPushMessage*>(message.get())) {
    handle_recover_push(from, *push);
  } else {
    CEC_CHECK_MSG(false, "unknown message type " << message->type_name());
  }
}

void Server::handle_app(NodeId from, const AppMessage& msg) {
  if (recovery_epoch_ > 0) {
    // After a restore, a version can arrive twice (once from the WAL replay
    // and again from a late channel delivery or a rejoin push). A covered
    // or duplicate tag must not re-queue: the apply predicate can never
    // fire for it again, so the entry would pin the queue forever.
    if (msg.tag.ts[from] <= vc_[from]) {
      ++counters_.stale_app_dropped;
      lists_[msg.object].insert(msg.tag, msg.value);  // idempotent
      return;
    }
    if (inqueue_.contains(msg.tag)) {
      ++counters_.stale_app_dropped;
      return;
    }
  }
  inqueue_.insert(InQueue::Entry{from, msg.object, msg.value, msg.tag});
}

void Server::handle_del(NodeId from, const DelMessage& msg) {
  (void)from;
  dels_[msg.object].add(msg.origin, msg.tag);
  collect_if_floor_rose(msg.object);
  // Appendix G variant (ii): the leader fans forwarded dels out to
  // everyone on the origin's behalf.
  if (msg.forward && id_ == config_.del_leader) {
    std::vector<NodeId> targets;
    for (NodeId j : others_) {
      if (j != msg.origin) targets.push_back(j);
    }
    multicast(targets, [&] {
      auto fwd = std::make_unique<DelMessage>(msg.object, msg.tag, msg.origin,
                                              /*forward=*/false, wire_);
      stamp_trace(*fwd, active_trace_);
      return fwd;
    });
  }
}

void Server::handle_val_inq(NodeId from, const ValInqMessage& msg) {
  ++counters_.val_inq_handled;
  const ObjectId object = msg.object;
  const SimTime obs_t0 = obs_now();

  // Alg. 2 line 4: uncoded response when the wanted version is in our list.
  if (const auto value = lists_[object].lookup(msg.wanted[object])) {
    ++counters_.val_resp_sent;
    auto resp = std::make_unique<ValRespMessage>(msg.client, msg.opid, object,
                                                 *value, msg.wanted, wire_);
    stamp_trace(*resp, active_trace_);
    send(from, std::move(resp));
    if (tracer_ != nullptr) {
      tracer_->complete("val_inq", id_, obs_t0, transport_->now() - obs_t0,
                        {{"object", std::uint64_t{object}},
                         {"from", std::uint64_t{from}},
                         {"resp", "uncoded"}});
    }
    return;
  }

  // Alg. 2 lines 6-14: re-encode our codeword symbol toward the wanted
  // versions where the history list allows it. The "apply wanted" step runs
  // only when the "cancel current" step succeeded (DESIGN.md note 2). All
  // per-object transforms drain through one fused reencode_batch pass, so
  // each symbol row is streamed once instead of once per object. The held
  // Values keep the spans alive until the batch executes.
  erasure::Symbol resp_val = m_val_;
  TagVector resp_tags = m_tags_;
  std::vector<erasure::Value> held;
  std::vector<erasure::Code::ReencodeEntry> entries;
  for (ObjectId x : code_->support(id_)) {
    if (resp_tags[x] == msg.wanted[x]) continue;
    const auto current = lists_[x].lookup(resp_tags[x]);
    if (!current) continue;  // case (iii): leave this object's version as is
    const auto wanted_value = lists_[x].lookup(msg.wanted[x]);
    held.push_back(*current);
    const std::span<const std::uint8_t> old_span = held.back();
    if (wanted_value) {
      held.push_back(*wanted_value);
      entries.push_back({x, old_span, held.back()});
      resp_tags[x] = msg.wanted[x];
    } else {
      entries.push_back({x, old_span, {}});
      resp_tags[x] = Tag::zero(n_);
    }
  }
  code_->reencode_batch(id_, resp_val, entries);
  ++counters_.val_resp_encoded_sent;
  auto enc = std::make_unique<ValRespEncodedMessage>(
      msg.client, msg.opid, object, std::move(resp_val), std::move(resp_tags),
      msg.wanted, wire_);
  stamp_trace(*enc, active_trace_);
  send(from, std::move(enc));
  if (tracer_ != nullptr) {
    tracer_->complete("val_inq", id_, obs_t0, transport_->now() - obs_t0,
                      {{"object", std::uint64_t{object}},
                       {"from", std::uint64_t{from}},
                       {"resp", "encoded"}});
  }
}

void Server::handle_val_resp(NodeId from, const ValRespMessage& msg) {
  (void)from;
  PendingRead* read = reads_.find(msg.opid);
  if (read == nullptr) return;  // already served
  CEC_DCHECK(read->client == msg.client && read->object == msg.object);
  complete_pending_read(*read, msg.value, msg.requested[msg.object]);
  reads_.remove(msg.opid);
}

void Server::handle_val_resp_encoded(NodeId from,
                                     const ValRespEncodedMessage& msg) {
  PendingRead* read = reads_.find(msg.opid);
  if (read == nullptr) return;  // already served
  CEC_DCHECK(read->client == msg.client && read->object == msg.object);

  // Alg. 2 lines 15-27: re-encode the sender's symbol to the requested
  // versions using *our* history list. The symbol lives in the sender's
  // space W_j, so re-encoding uses the sender's coefficients (DESIGN note
  // 1). The per-object transforms are collected first and drained through
  // one fused reencode_batch pass -- and when any Error1/Error2 fires, the
  // result would be discarded anyway, so the batch is skipped entirely.
  bool error = false;
  std::vector<erasure::Value> held;
  std::vector<erasure::Code::ReencodeEntry> entries;
  for (ObjectId x : code_->support(from)) {
    if (msg.requested[x] == msg.symbol_tags[x]) continue;
    const auto current = lists_[x].lookup(msg.symbol_tags[x]);
    if (!current) {
      ++counters_.error1_events;
      CEC_CHECK_MSG(!config_.strict_error_invariants,
                    "Error1 raised at server "
                        << id_ << " for object X" << x << " from server "
                        << from << " opid " << msg.opid << " internal="
                        << (msg.client == kLocalhost) << " symbol_tag "
                        << msg.symbol_tags[x] << " requested "
                        << msg.requested[x] << " my M.tag " << m_tags_[x]
                        << " (symbol tag not in history; Lemma D.1 violated)");
      error = true;
      continue;
    }
    const auto wanted_value = lists_[x].lookup(msg.requested[x]);
    if (!wanted_value) {
      ++counters_.error2_events;
      CEC_CHECK_MSG(!config_.strict_error_invariants,
                    "Error2 raised at server "
                        << id_ << " for object X" << x
                        << " (requested tag not in history; Lemma D.2 "
                           "violated)");
      error = true;
      continue;
    }
    held.push_back(*current);
    const std::span<const std::uint8_t> old_span = held.back();
    held.push_back(*wanted_value);
    entries.push_back({x, old_span, held.back()});
  }
  if (error) return;  // leave the read pending for other responders

  erasure::Symbol modified = msg.symbol;
  code_->reencode_batch(from, modified, entries);
  read->symbols[from] = std::move(modified);
  try_decode_pending_read(msg.opid);
}

// ---------------------------------------------------------------------------
// Internal actions (Algorithm 3).
// ---------------------------------------------------------------------------

void Server::run_internal_actions() {
  if (in_internal_actions_) return;  // re-entrancy via client callbacks
  in_internal_actions_ = true;
  bool progress = true;
  while (progress) {
    progress = false;
    while (apply_inqueue_step()) progress = true;
    if (encoding_step()) progress = true;
  }
  in_internal_actions_ = false;
}

bool Server::apply_inqueue_step() {
  if (inqueue_.empty()) return false;
  // Alg. 3 line 4: the causality predicate. Scanning (rather than testing
  // only the head) is needed for liveness -- see InQueue::pop_first_applicable.
  auto popped = inqueue_.pop_first_applicable([&](const InQueue::Entry& e) {
    const NodeId j = e.origin;
    if (e.tag.ts[j] != vc_[j] + 1) return false;
    if (config_.unsafe_skip_apply_order_check) return true;  // test-only seam
    for (NodeId p = 0; p < n_; ++p) {
      if (p != j && e.tag.ts[p] > vc_[p]) return false;
    }
    return true;
  });
  if (!popped) return false;
  const std::int64_t pt0 = m_phase_apply_ != nullptr ? wall_ns() : 0;
  InQueue::Entry entry = std::move(*popped);
  const NodeId j = entry.origin;
  vc_.set(j, entry.tag.ts[j]);
  lists_[entry.object].insert(entry.tag, entry.value);
  flight(obs::FlightKind::kApply, entry.object, j, &entry.tag);

  // Alg. 3 lines 8-12: clear pending reads this version can serve.
  std::vector<OpId> external_done;
  std::vector<OpId> internal_done;
  for (const auto& read : reads_.all()) {
    if (read.object != entry.object) continue;
    if (!read.is_internal() && read.requested[entry.object] <= entry.tag) {
      external_done.push_back(read.opid);
    } else if (read.is_internal() &&
               read.requested[entry.object] == entry.tag) {
      internal_done.push_back(read.opid);
    }
  }
  for (OpId opid : external_done) {
    if (PendingRead* read = reads_.find(opid)) {
      complete_pending_read(*read, entry.value, entry.tag);
      reads_.remove(opid);
    }
  }
  for (OpId opid : internal_done) {
    if (tracer_ != nullptr) {
      if (PendingRead* read = reads_.find(opid);
          read != nullptr && read->trace_id != 0) {
        tracer_->end_async("read.internal", id_, transport_->now(),
                           read->trace_id, {{"via", "inqueue"}});
      }
    }
    reads_.remove(opid);  // the value just landed in L[X]
  }
  if (m_phase_apply_ != nullptr) m_phase_apply_->observe(wall_ns() - pt0);
  return true;
}

bool Server::encoding_step() {
  bool changed = false;

  // Objects this server stores (Alg. 3 lines 15-25). All objects whose
  // history allows the current -> newest transform are collected first and
  // re-encoded through one fused reencode_batch pass (each symbol row
  // streamed once per Encoding action, not once per object); the per-object
  // bookkeeping (tags, dels, observability) runs after the batch.
  struct PendingReencode {
    ObjectId object;
    erasure::Value current;  // keeps the span alive until the batch runs
    erasure::Value newest;
    Tag highest;
  };
  std::vector<PendingReencode> batch;
  for (ObjectId x : code_->support(id_)) {
    const Tag highest = lists_[x].highest_tag();
    if (!(highest > m_tags_[x])) continue;
    const auto current = lists_[x].lookup(m_tags_[x]);
    if (current) {
      const auto newest = lists_[x].lookup(highest);
      CEC_CHECK(newest.has_value());
      batch.push_back({x, *current, *newest, highest});
    } else if (!reads_.has_internal_for(x, m_tags_[x])) {
      // Alg. 3 lines 22-25: recover the currently-encoded version via an
      // internal read so a later Encoding can re-encode away from it.
      ++counters_.internal_reads_started;
      PendingRead read;
      read.client = kLocalhost;
      read.opid = next_internal_opid();
      read.object = x;
      read.requested = m_tags_;
      read.symbols.assign(n_, std::nullopt);
      read.symbols[id_] = m_val_;
      read.broadcast = config_.fanout == ReadFanout::kBroadcast;
      read.started_at = obs_now();
      if (obs_enabled_) {
        read.trace_id = obs_read_internal_begin(x, read.started_at);
      }
      register_read(std::move(read));
      // The internal read may have completed synchronously from our own
      // symbol; if the needed version just landed in L[X], loop again so
      // the re-encode branch above runs.
      if (lists_[x].contains(m_tags_[x])) changed = true;
    }
  }

  if (!batch.empty()) {
    const std::int64_t pt0 = m_phase_encode_ != nullptr ? wall_ns() : 0;
    std::vector<erasure::Code::ReencodeEntry> entries;
    entries.reserve(batch.size());
    for (const PendingReencode& p : batch) {
      entries.push_back({p.object, p.current, p.newest});
    }
    code_->reencode_batch(id_, m_val_, entries);
    if (m_phase_encode_ != nullptr) {
      m_phase_encode_->observe(wall_ns() - pt0);
    }
    for (const PendingReencode& p : batch) {
      m_tags_[p.object] = p.highest;
      ++counters_.reencodes;
      flight(obs::FlightKind::kEncode, p.object, 0, &p.highest);
      if (obs_enabled_) obs_reencode(p.object);
      record_del(p.object, p.highest);
      // Peers learn the tag at this server's next GC tick (DESIGN.md §2,
      // note 11). Only where every server stores X, or where the leader
      // forwards it to everyone, can a receiver act on it sooner: then it
      // is announced now, and the tick's announcement is deduped.
      if (containing_servers(p.object).size() == n_ ||
          config_.del_routing == DelRouting::kViaLeader) {
        broadcast_del(p.object, p.highest,
                      /*dedupe=*/config_.dedupe_del_broadcasts);
      }
    }
    changed = true;
  }

  // Bookkeeping for objects this server does not store (lines 26-32).
  for (ObjectId x = 0; x < k_; ++x) {
    if (code_->contains(id_, x)) continue;
    const Tag highest = lists_[x].highest_tag();
    if (!(highest > m_tags_[x])) continue;
    const auto& containing = containing_servers(x);
    const auto floor_r = dels_[x].floor_of(containing);
    if (!floor_r) continue;
    // max(U & Ubar): the highest tag in L[X] that is covered by every
    // containing server's del announcements and exceeds M.tagvec[X].
    const auto candidate = lists_[x].highest_leq(*floor_r);
    if (!candidate || !(*candidate > m_tags_[x])) continue;
    m_tags_[x] = *candidate;
    record_del(x, *candidate);
    broadcast_del(x, *candidate, /*dedupe=*/config_.dedupe_del_broadcasts);
    changed = true;
  }
  return changed;
}

void Server::run_garbage_collection() {
  ++counters_.gc_runs;
  active_trace_ = 0;  // timer-driven: no client operation to attribute to
  const SimTime obs_t0 = obs_now();
  std::uint64_t total_removed = 0;
  for (ObjectId x = 0; x < k_; ++x) {
    total_removed += collect(x, /*tick=*/true);

    // Lines 45-48: a containing server announces its own encoded tag to
    // everyone; non-containing servers take max(U) over those entries
    // (DESIGN.md §2, note 11).
    if (code_->contains(id_, x) && !m_tags_[x].is_zero()) {
      broadcast_del(x, m_tags_[x], /*dedupe=*/config_.dedupe_del_broadcasts);
    }

    if (config_.compact_del_lists) dels_[x].compact(tmax_[x]);
  }
  flight(obs::FlightKind::kGc, static_cast<std::uint32_t>(total_removed));
  if (tracer_ != nullptr) {
    tracer_->complete("gc", id_, obs_t0, transport_->now() - obs_t0,
                      {{"removed", total_removed}});
  }
  run_internal_actions();
}

std::size_t Server::collect(ObjectId x, bool tick) {
  // tmax[X] = max(S) (Alg. 3 lines 36-37); monotone by construction.
  if (dels_[x].floor_above(tmax_[x])) tmax_[x] = *dels_[x].floor_all();
  const Tag& tm = tmax_[x];
  CEC_DCHECK(tm <= m_tags_[x]);  // invariant (Sec. 3)

  // Protected tags T (line 39): requested tags of any pending read.
  keep_.clear();
  for (const auto& read : reads_.all()) {
    if (read.requested[x] < m_tags_[x]) keep_.push_back(&read.requested[x]);
  }
  std::sort(keep_.begin(), keep_.end(),
            [](const Tag* a, const Tag* b) { return *a < *b; });

  // Lines 40-41, at the tick only: once every server announced exactly the
  // encoded tag and nothing newer is held, erase through tmax[X], the
  // encoded version included; internal reads would re-fetch it if it went
  // at the floor (DESIGN.md §2, note 12). Lines 42-43: a server that does
  // not store X and has moved past tmax[X] erases through it too. Line 44:
  // otherwise strictly below it.
  const bool full = tick && tm == m_tags_[x] &&
                    dels_[x].has_exact_from_all(tm) &&
                    lists_[x].highest_tag() <= tm;
  const bool through = full || (tm < m_tags_[x] && !code_->contains(id_, x));
  const std::size_t removed = lists_[x].erase_prefix(tm, through, keep_);
  counters_.history_entries_collected += removed;
  if (m_gc_collected_ != nullptr && removed > 0) m_gc_collected_->inc(removed);
  return removed;
}

void Server::collect_if_floor_rose(ObjectId x) {
  if (dels_[x].floor_above(tmax_[x])) collect(x, /*tick=*/false);
}

// ---------------------------------------------------------------------------
// Crash recovery (DESIGN.md §9).
// ---------------------------------------------------------------------------

persist::ServerImage Server::capture_image() const {
  persist::ServerImage image;
  image.node = id_;
  image.num_servers = static_cast<std::uint32_t>(n_);
  image.num_objects = static_cast<std::uint32_t>(k_);
  image.value_bytes = static_cast<std::uint32_t>(code_->value_bytes());
  image.vc = vc_;
  image.m_val = m_val_;
  image.m_tags = m_tags_;
  image.tmax = tmax_;
  image.last_del_broadcast_all = last_del_broadcast_all_;
  image.internal_opid_counter = internal_opid_counter_;
  for (ObjectId x = 0; x < k_; ++x) {
    for (const auto& [tag, value] : lists_[x].entries()) {
      image.history.push_back({x, tag, value});
    }
    for (NodeId s = 0; s < n_; ++s) {
      for (const Tag& tag : dels_[x].entries_from(s)) {
        image.dels.push_back({x, s, tag});
      }
    }
  }
  for (const auto& e : inqueue_.entries()) {
    image.inqueue.push_back({e.origin, e.object, e.tag, e.value});
  }
  return image;
}

void Server::restore_image(const persist::ServerImage* image) {
  vc_ = VectorClock(n_);
  inqueue_ = InQueue{};
  lists_.clear();
  dels_.clear();
  for (std::size_t x = 0; x < k_; ++x) {
    lists_.emplace_back(n_, code_->value_bytes());
    dels_.emplace_back(n_);
  }
  m_val_ = code_->zero_symbol(id_);
  m_tags_ = zero_tag_vector(k_, n_);
  reads_ = ReadList{};
  tmax_ = zero_tag_vector(k_, n_);
  last_del_broadcast_all_ = zero_tag_vector(k_, n_);
  recovering_ = false;
  if (recovery_epoch_ == 0) recovery_epoch_ = 1;  // arm the stale-app guard

  std::uint64_t counter_base = 0;
  if (image != nullptr) {
    CEC_CHECK_MSG(image->node == id_ && image->num_servers == n_ &&
                      image->num_objects == k_ &&
                      image->value_bytes == code_->value_bytes(),
                  "restore_image: snapshot does not describe server " << id_);
    vc_ = image->vc;
    m_val_ = image->m_val;
    m_tags_ = image->m_tags;
    tmax_ = image->tmax;
    last_del_broadcast_all_ = image->last_del_broadcast_all;
    counter_base = image->internal_opid_counter;
    for (const auto& e : image->history) {
      lists_[e.object].insert(e.tag, e.value);
    }
    for (const auto& e : image->dels) dels_[e.object].add(e.server, e.tag);
    for (const auto& e : image->inqueue) {
      inqueue_.insert(InQueue::Entry{e.origin, e.object, e.value, e.tag});
    }
  }
  // restore_from_journal adds the recovery skip after replay: replayed
  // internal reads must get their pre-crash opids, or the journaled
  // replies to them miss ReadL.
  internal_opid_counter_ = counter_base;
}

bool Server::restore_from_journal() {
  CEC_CHECK_MSG(journal_ != nullptr, "restore_from_journal: no journal");
  const persist::RecoveredState recovered = journal_->load();
  CEC_CHECK_MSG(recovered.error.empty(),
                "restore_from_journal: " << recovered.error);
  if (!recovered.image.has_value() && recovered.wal.empty()) return false;
  // Post-mortem: the last protocol events before the crash, logged before
  // replay starts reusing the ring (a fresh process has none).
  if (flight_.recorded() > 0) {
    obs::log_flight_tail(static_cast<int>(id_), flight_);
  }
  restore_image(recovered.image ? &*recovered.image : nullptr);
  const bool was_recording = journal_->recording();
  journal_->set_recording(false);
  muted_ = true;
  for (const auto& record : recovered.wal) {
    if (record.kind == persist::WalRecord::Kind::kMessage) {
      on_message(record.from, deserialize_message(record.payload));
    } else {
      client_write(record.client, record.opid, record.object,
                   erasure::Value(record.payload));
    }
  }
  muted_ = false;
  journal_->set_recording(was_recording);
  end_restore();
  internal_opid_counter_ += kOpidRecoverySkip;
  checkpoint();
  return true;
}

void Server::end_restore() { reads_ = ReadList{}; }

void Server::checkpoint() {
  if (journal_ != nullptr) journal_->save_snapshot(capture_image());
}

void Server::set_peer_down(NodeId peer, bool down) {
  CEC_CHECK(peer < n_);
  if (down) {
    peer_down_mask_ |= 1u << peer;
  } else {
    peer_down_mask_ &= ~(1u << peer);
  }
}

std::uint32_t Server::rejoin_pull_targets() {
  std::uint32_t all = 0;
  for (NodeId j : others_) all |= 1u << j;
  if (config_.rejoin_catchup != RejoinCatchup::kRepairPlan) return all;
  // The helper set sufficient to rebuild our codeword symbol also suffices
  // for write catch-up: any single live up-to-date member's push converges
  // the round (the §9 superset argument), and maybe_finish_rejoin chases
  // clocks only a non-helper advertised.
  const std::uint32_t erased = peer_down_mask_ | (1u << id_);
  const auto plan = code_->plan_symbol_repair(id_, erased);
  if (!plan.has_value() || (plan->helper_mask & all) == 0) return all;
  ++counters_.repair_plan_hits;
  counters_.repair_bytes += plan->fetch_bytes;
  if (m_repair_plan_hits_ != nullptr) {
    m_repair_plan_hits_->inc();
    m_repair_bytes_->inc(plan->fetch_bytes);
  }
  return plan->helper_mask & all;
}

void Server::begin_rejoin() {
  ++counters_.recoveries;
  if (m_recoveries_ != nullptr) m_recoveries_->inc();
  ++recovery_epoch_;
  if (config_.unsafe_skip_rejoin_catchup) return;  // test-only fault seam
  if (others_.empty()) return;  // single-server cluster: nothing to pull
  recovering_ = true;
  rejoin_started_at_ = transport_->now();
  rejoin_pull_mask_ = rejoin_pull_targets();
  rejoin_pulled_ = 0;
  rejoin_reply_seen_ = 0;
  rejoin_reply_vcs_.assign(n_, VectorClock(n_));
  rejoin_escalated_ = false;
  rejoin_waiting_.assign(n_, false);
  rejoin_waiting_count_ = 0;
  for (NodeId j : others_) {
    if (!(rejoin_pull_mask_ >> j & 1)) continue;
    rejoin_waiting_[j] = true;
    ++rejoin_waiting_count_;
  }
  const std::uint64_t epoch = recovery_epoch_;
  // The whole rejoin round (digest, replies, pulls, pushes) is one flow.
  active_trace_ = tracer_ != nullptr ? tracer_->new_id() : 0;
  flight(obs::FlightKind::kRecovery, /*phase=*/0,
         static_cast<std::uint32_t>(epoch));
  // The digest still goes to everyone: every reply reports a peer clock
  // (input to the straggler chase) and triggers the symmetric push to
  // behind peers. Only the pulls are narrowed to the helper set.
  multicast(others_, [&] {
    auto msg = std::make_unique<RecoverDigestMessage>(epoch, vc_, wire_);
    stamp_trace(*msg, active_trace_);
    return msg;
  });
  // Peers that are themselves down never push; widen a narrowed round once
  // at the deadline, then finish with whatever arrived (they push to us
  // when their own rejoin runs).
  transport_->schedule_after(kRejoinTimeoutNs, [this, epoch] {
    if (recovering_ && recovery_epoch_ == epoch) rejoin_deadline(epoch);
  });
  if (tracer_ != nullptr) {
    tracer_->instant("rejoin.begin", id_, transport_->now(),
                     {{"epoch", epoch}});
  }
}

void Server::handle_recover_digest(NodeId from,
                                   const RecoverDigestMessage& msg) {
  flight(obs::FlightKind::kRecovery, /*phase=*/1,
         static_cast<std::uint32_t>(msg.epoch));
  auto reply = std::make_unique<RecoverDigestReplyMessage>(msg.epoch, vc_,
                                                           wire_);
  stamp_trace(*reply, active_trace_);
  send(from, std::move(reply));
}

void Server::handle_recover_digest_reply(NodeId from,
                                         const RecoverDigestReplyMessage& msg) {
  if (!recovering_ || msg.epoch != recovery_epoch_) return;
  flight(obs::FlightKind::kRecovery, /*phase=*/2,
         static_cast<std::uint32_t>(msg.epoch));
  if (from < n_) {
    rejoin_reply_seen_ |= 1u << from;
    rejoin_reply_vcs_[from] = msg.vc;
  }
  // Pull only from the helper set; other replies are recorded for the
  // straggler chase in maybe_finish_rejoin.
  if ((rejoin_pull_mask_ >> from & 1) && !(rejoin_pulled_ >> from & 1)) {
    send_recover_pull(from);
  }
  // The peer may be missing writes too (an app multicast of ours lost to
  // the crash window); push it anything its clock does not cover.
  bool behind = false;
  for (NodeId j = 0; j < n_; ++j) {
    if (msg.vc[j] < vc_[j]) {
      behind = true;
      break;
    }
  }
  if (behind) send_recover_push(from, msg.epoch, msg.vc);
}

void Server::send_recover_pull(NodeId to) {
  rejoin_pulled_ |= 1u << to;
  std::uint32_t all = 0;
  for (NodeId j : others_) all |= 1u << j;
  if (rejoin_pull_mask_ != all) ++counters_.rejoin_helper_pulls;
  if (!rejoin_waiting_[to]) {
    rejoin_waiting_[to] = true;
    ++rejoin_waiting_count_;
  }
  auto pull = std::make_unique<RecoverPullMessage>(recovery_epoch_, vc_,
                                                   wire_);
  stamp_trace(*pull, active_trace_);
  send(to, std::move(pull));
}

void Server::handle_recover_pull(NodeId from, const RecoverPullMessage& msg) {
  send_recover_push(from, msg.epoch, msg.vc);
}

void Server::send_recover_push(NodeId to, std::uint64_t epoch,
                               const VectorClock& target_vc) {
  std::vector<RecoverPushMessage::HistoryItem> history;
  std::vector<RecoverPushMessage::InqueueItem> inq;
  std::vector<RecoverPushMessage::DelItem> dels;
  for (ObjectId x = 0; x < k_; ++x) {
    for (const auto& [tag, value] : lists_[x].entries()) {
      if (!tag.ts.leq(target_vc)) history.push_back({x, tag, value});
    }
    // All del announcements travel (compaction keeps them small): they let
    // the receiver's GC and non-containing bookkeeping resume immediately.
    for (NodeId s = 0; s < n_; ++s) {
      for (const Tag& tag : dels_[x].entries_from(s)) {
        dels.push_back({x, s, tag});
      }
    }
  }
  for (const auto& e : inqueue_.entries()) {
    if (!e.tag.ts.leq(target_vc)) {
      inq.push_back({e.origin, e.object, e.tag, e.value});
    }
  }
  ++counters_.rejoin_pushes_sent;
  auto push = std::make_unique<RecoverPushMessage>(
      epoch, vc_, std::move(history), std::move(inq), std::move(dels), wire_);
  stamp_trace(*push, active_trace_);
  send(to, std::move(push));
}

void Server::handle_recover_push(NodeId from, const RecoverPushMessage& msg) {
  // Merging is safe at any server, recovering or not: pushed history
  // entries are valid versions, del announcements are monotone facts, and
  // every write the sender's clock covers is either pushed here, already
  // applied locally, or globally encoded (its value retrievable through the
  // ordinary read machinery) -- the superset argument of DESIGN.md §9.
  for (const auto& h : msg.history) {
    if (!lists_[h.object].contains(h.tag)) {
      ++counters_.catchup_history_entries;
    }
    lists_[h.object].insert(h.tag, h.value);
  }
  for (const auto& d : msg.dels) dels_[d.object].add(d.server, d.tag);
  for (const auto& q : msg.inqueue) {
    if (q.tag.ts[q.origin] <= vc_[q.origin]) {
      lists_[q.object].insert(q.tag, q.value);  // already applied here
    } else if (!inqueue_.contains(q.tag)) {
      inqueue_.insert(InQueue::Entry{q.origin, q.object, q.value, q.tag});
    }
  }
  vc_.merge(msg.vc);
  // Entries the merged clock now covers can never satisfy the apply
  // predicate again; absorb their values into the history lists instead.
  for (auto& e : inqueue_.extract_if([&](const InQueue::Entry& entry) {
         return entry.tag.ts[entry.origin] <= vc_[entry.origin];
       })) {
    lists_[e.object].insert(e.tag, e.value);
  }
  for (ObjectId x = 0; x < k_; ++x) collect_if_floor_rose(x);

  if (recovering_ && msg.epoch == recovery_epoch_) {
    ++counters_.rejoin_pushes_received;
    counters_.catchup_bytes += msg.wire_bytes();
    if (m_catchup_bytes_ != nullptr) m_catchup_bytes_->inc(msg.wire_bytes());
    if (from < rejoin_waiting_.size() && rejoin_waiting_[from]) {
      rejoin_waiting_[from] = false;
      --rejoin_waiting_count_;
      if (rejoin_waiting_count_ == 0) maybe_finish_rejoin();
    }
  }
}

void Server::maybe_finish_rejoin() {
  if (!recovering_ || rejoin_waiting_count_ != 0) return;
  // Straggler chase: a peer outside the pull set whose digest reply
  // advertised a clock component our merged clock still misses uniquely
  // holds writes no helper pushed (e.g. an app multicast lost to the crash
  // window). Pull from each such peer once before declaring convergence.
  bool pulled = false;
  for (NodeId j : others_) {
    if (!(rejoin_reply_seen_ >> j & 1) || (rejoin_pulled_ >> j & 1)) continue;
    const VectorClock& peer = rejoin_reply_vcs_[j];
    for (NodeId i = 0; i < n_; ++i) {
      if (peer[i] > vc_[i]) {
        send_recover_pull(j);
        pulled = true;
        break;
      }
    }
  }
  if (!pulled) finish_rejoin();
}

void Server::rejoin_deadline(std::uint64_t epoch) {
  if (!recovering_ || recovery_epoch_ != epoch) return;
  std::uint32_t all = 0;
  for (NodeId j : others_) all |= 1u << j;
  if (!rejoin_escalated_ && rejoin_pull_mask_ != all) {
    // A narrowed round missed its deadline (a helper was down or slow):
    // widen once to every peer not yet pulled, exactly the kPullAll shape.
    rejoin_escalated_ = true;
    rejoin_pull_mask_ = all;
    bool pulled = false;
    for (NodeId j : others_) {
      if (rejoin_pulled_ >> j & 1) continue;
      send_recover_pull(j);
      pulled = true;
    }
    if (pulled) {
      transport_->schedule_after(kRejoinTimeoutNs, [this, epoch] {
        if (recovering_ && recovery_epoch_ == epoch) rejoin_deadline(epoch);
      });
      return;
    }
  }
  finish_rejoin();
}

void Server::finish_rejoin() {
  recovering_ = false;
  flight(obs::FlightKind::kRecovery, /*phase=*/3,
         static_cast<std::uint32_t>(recovery_epoch_));
  const SimTime duration = transport_->now() - rejoin_started_at_;
  if (m_recovery_duration_ != nullptr) {
    m_recovery_duration_->observe(static_cast<std::uint64_t>(duration));
  }
  if (tracer_ != nullptr) {
    tracer_->complete("rejoin", id_, rejoin_started_at_, duration,
                      {{"pushes", counters_.rejoin_pushes_received},
                       {"bytes", counters_.catchup_bytes}});
  }
  // Catch-up filled L with everything peers still hold; Encoding now
  // re-encodes toward the newest versions. Internal reads can always fetch
  // a still-encoded old version: our frozen del announcements blocked its
  // collection everywhere while we were down.
  run_internal_actions();
}

// ---------------------------------------------------------------------------
// Pending-read plumbing.
// ---------------------------------------------------------------------------

void Server::complete_pending_read(PendingRead& read,
                                   const erasure::Value& value,
                                   const Tag& value_tag) {
  flight(obs::FlightKind::kReadDone, read.object, 0, &value_tag);
  if (read.is_internal()) {
    if (tracer_ != nullptr && read.trace_id != 0) {
      tracer_->end_async("read.internal", id_, transport_->now(),
                         read.trace_id,
                         {{"via", "decode"}, {"dep_tag", tag_string(value_tag)}});
      read.trace_id = 0;
    }
    lists_[read.object].insert(value_tag, value);
  } else {
    CEC_CHECK(read.callback != nullptr);
    if (tracer_ != nullptr && read.trace_id != 0) {
      // dep_tag: the write this read causally depends on (the returned
      // version); req_tag: the version the inquiry round requested.
      tracer_->end_async(
          "read.remote", id_, transport_->now(), read.trace_id,
          {{"dep_tag", tag_string(value_tag)},
           {"req_tag", tag_string(read.requested[read.object])}});
      read.trace_id = 0;
    }
    if (m_read_latency_ != nullptr) {
      m_read_latency_->observe(
          static_cast<std::uint64_t>(transport_->now() - read.started_at));
    }
    read.callback(value, value_tag, vc_);
  }
}

void Server::try_decode_pending_read(OpId opid) {
  PendingRead* read = reads_.find(opid);
  if (read == nullptr) return;
  std::vector<NodeId> servers;
  std::vector<erasure::Symbol> symbols;
  for (NodeId s = 0; s < n_; ++s) {
    if (read->symbols[s].has_value()) {
      servers.push_back(s);
      symbols.push_back(*read->symbols[s]);
    }
  }
  if (!code_->is_recovery_set(read->object, servers)) return;
  const erasure::Value value = code_->decode(read->object, servers, symbols);
  complete_pending_read(*read, value, read->requested[read->object]);
  reads_.remove(opid);
}

void Server::register_read(PendingRead read) {
  const OpId opid = read.opid;
  const bool escalate = !read.broadcast;
  reads_.add(std::move(read));

  // The local symbol recorded at registration may already form a recovery
  // set (e.g. an internal read at a server whose own symbol decodes the
  // object): such a read completes here and inquires nowhere.
  if (config_.opportunistic_local_decode) {
    try_decode_pending_read(opid);
    if (reads_.find(opid) == nullptr) return;
  }
  const PendingRead& stored = *reads_.find(opid);
  const std::vector<NodeId> targets = initial_fanout_targets(stored);
  send_val_inq_to(targets, stored);
  // Mandatory when the fan-out chose a recovery set with no remote members.
  if (targets.empty()) try_decode_pending_read(opid);

  if (escalate && reads_.find(opid) != nullptr) {
    // Footnote 14: fall back to a broadcast if the chosen recovery set does
    // not produce an answer in time (e.g. one of its members crashed).
    // Re-sending the *original* inquiry would be unsound: the garbage-
    // collection protections (Lemmas D.1/D.2) only cover inquiries sent at
    // the moment their requested tag vector was M.tagvec, so a late inquiry
    // with stale tags can be unanswerable. Instead the pending read is
    // dropped and restarted with fresh tags and full broadcast.
    transport_->schedule_after(config_.fanout_timeout_ns,
                               [this, opid] { retry_pending_read(opid); });
  }
}

void Server::retry_pending_read(OpId opid) {
  PendingRead* pending = reads_.find(opid);
  if (pending == nullptr) return;  // served already
  const ClientId client = pending->client;
  const ObjectId object = pending->object;
  const SimTime started_at = pending->started_at;
  const std::uint64_t trace_id = pending->trace_id;
  ReadCallback callback = std::move(pending->callback);
  pending->trace_id = 0;  // span ownership moves to the retry (or the end
                          // emitted below); the removal must not end it
  reads_.remove(opid);

  if (client != kLocalhost) {
    // Re-enter the full read path (the history list may serve it by now);
    // if it registers again, it registers as a broadcast. The opid is
    // server-generated: the client correlates through its callback.
    const Tag highest = lists_[object].highest_tag();
    if (highest >= m_tags_[object]) {
      const auto value = lists_[object].lookup(highest);
      CEC_CHECK(value.has_value());
      if (tracer_ != nullptr && trace_id != 0) {
        tracer_->end_async("read.remote", id_, transport_->now(), trace_id,
                           {{"via", "retry_history"}});
      }
      if (m_read_latency_ != nullptr) {
        m_read_latency_->observe(
            static_cast<std::uint64_t>(transport_->now() - started_at));
      }
      callback(*value, highest, vc_);
      return;
    }
    PendingRead retry;
    retry.client = client;
    retry.opid = next_internal_opid();
    retry.object = object;
    retry.requested = m_tags_;
    retry.symbols.assign(n_, std::nullopt);
    retry.symbols[id_] = m_val_;
    retry.callback = std::move(callback);
    retry.broadcast = true;
    // The retry continues the original operation: same span, same start.
    retry.started_at = started_at;
    retry.trace_id = trace_id;
    register_read(std::move(retry));
    return;
  }

  // Internal read: recreate with fresh tags (and full broadcast) only if
  // the Encoding action still needs the currently-encoded version.
  if (tracer_ != nullptr && trace_id != 0) {
    tracer_->end_async("read.internal", id_, transport_->now(), trace_id,
                       {{"via", "retry"}});
  }
  const Tag highest = lists_[object].highest_tag();
  if (highest > m_tags_[object] && !lists_[object].contains(m_tags_[object]) &&
      !reads_.has_internal_for(object, m_tags_[object])) {
    PendingRead retry;
    retry.client = kLocalhost;
    retry.opid = next_internal_opid();
    retry.object = object;
    retry.requested = m_tags_;
    retry.symbols.assign(n_, std::nullopt);
    retry.symbols[id_] = m_val_;
    retry.broadcast = true;
    retry.started_at = obs_now();
    if (tracer_ != nullptr) {
      retry.trace_id = tracer_->begin_async(
          "read.internal", id_, retry.started_at,
          {{"object", std::uint64_t{object}}, {"retry", 1}});
    }
    register_read(std::move(retry));
  }
  run_internal_actions();
}

void Server::send_val_inq_to(const std::vector<NodeId>& targets,
                             const PendingRead& read) {
  if (targets.empty()) return;
  for ([[maybe_unused]] NodeId j : targets) CEC_DCHECK(j != id_);
  multicast(targets, [&] {
    auto msg = std::make_unique<ValInqMessage>(read.client, read.opid,
                                               read.object, read.requested,
                                               wire_);
    // Inquiries continue the read's own trace (the async span id doubles as
    // the flow trace id), so write flows and read flows stay distinct even
    // when an inquiry is sent from inside another message's handler.
    stamp_trace(*msg, read.trace_id);
    return msg;
  });
}

std::vector<NodeId> Server::initial_fanout_targets(const PendingRead& read) {
  const ObjectId object = read.object;
  std::vector<NodeId> targets;
  if (read.broadcast) {
    for (NodeId j = 0; j < n_; ++j) {
      if (j != id_) targets.push_back(j);
    }
    return targets;
  }
  // Degraded read: with peers known down, the proximity pick below could
  // choose a recovery set containing a dead member and eat the full
  // fanout_timeout_ns before the footnote-14 broadcast. Ask the code for a
  // repair-minimal surviving set instead; fall back to the proximity pick
  // when no plan survives the erasure pattern.
  if (peer_down_mask_ != 0) {
    const std::uint32_t erased = peer_down_mask_ & ~(1u << id_);
    if (const auto plan = code_->plan_object_repair(object, erased, id_)) {
      ++counters_.degraded_reads;
      ++counters_.repair_plan_hits;
      counters_.repair_bytes += plan->fetch_bytes;
      if (m_degraded_reads_ != nullptr) {
        m_degraded_reads_->inc();
        m_repair_plan_hits_->inc();
        m_repair_bytes_->inc(plan->fetch_bytes);
      }
      flight(obs::FlightKind::kDegradedRead, object, plan->helper_mask);
      for (NodeId j = 0; j < n_; ++j) {
        if (j != id_ && (plan->helper_mask >> j & 1)) targets.push_back(j);
      }
      return targets;
    }
  }
  // Pick the recovery set with the smallest worst-member proximity
  // (excluding ourselves -- our own symbol is already in hand).
  const auto proximity = [&](NodeId j) {
    if (j < config_.proximity.size()) return config_.proximity[j];
    return static_cast<double>(j);
  };
  const std::vector<erasure::RecoverySet>& sets =
      code_->recovery_sets(object);
  double best_cost = -1;
  const erasure::RecoverySet* best = nullptr;
  for (const auto& set : sets) {
    double cost = 0;
    for (NodeId j : set) {
      if (j != id_) cost = std::max(cost, proximity(j));
    }
    if (best == nullptr || cost < best_cost) {
      best = &set;
      best_cost = cost;
    }
  }
  CEC_CHECK(best != nullptr);
  for (NodeId j : *best) {
    if (j != id_) targets.push_back(j);
  }
  return targets;
}

// ---------------------------------------------------------------------------
// del bookkeeping.
// ---------------------------------------------------------------------------

void Server::record_del(ObjectId object, const Tag& tag) {
  dels_[object].add(id_, tag);
  flight(obs::FlightKind::kDelRecord, object, 0, &tag);
  collect_if_floor_rose(object);
}

void Server::broadcast_del(ObjectId object, const Tag& tag, bool dedupe) {
  if (dedupe && !(tag > last_del_broadcast_all_[object])) return;
  last_del_broadcast_all_[object] = tag;
  if (config_.del_routing == DelRouting::kViaLeader &&
      id_ != config_.del_leader) {
    auto msg = std::make_unique<DelMessage>(object, tag, id_,
                                            /*forward=*/true, wire_);
    stamp_trace(*msg, active_trace_);
    send(config_.del_leader, std::move(msg));
    return;
  }
  multicast(others_, [&] {
    auto msg = std::make_unique<DelMessage>(object, tag, id_,
                                            /*forward=*/false, wire_);
    stamp_trace(*msg, active_trace_);
    return msg;
  });
}

OpId Server::next_internal_opid() {
  return kInternalOpidBase | (static_cast<OpId>(id_) << 40) |
         internal_opid_counter_++;
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

StorageStats Server::storage() const {
  StorageStats stats;
  stats.codeword_bytes = m_val_.size();
  for (ObjectId x = 0; x < k_; ++x) {
    stats.history_bytes += lists_[x].payload_bytes();
    stats.history_entries += lists_[x].size();
    stats.dell_entries += dels_[x].total_entries();
  }
  stats.inqueue_bytes = inqueue_.payload_bytes();
  stats.inqueue_entries = inqueue_.size();
  stats.readl_entries = reads_.size();
  return stats;
}

}  // namespace causalec
