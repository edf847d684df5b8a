#include "runtime/automaton_loop.h"

#include <string>
#include <utility>

#include "causalec/codec.h"
#include "common/expect.h"
#include "common/logging.h"

namespace causalec::runtime {

AutomatonLoop::AutomatonLoop(NodeId id, const obs::ObsHooks& obs,
                             std::chrono::milliseconds gc_period,
                             std::chrono::milliseconds snapshot_period)
    : id_(id), gc_period_(gc_period), snapshot_period_(snapshot_period) {
  tracer_ = obs.tracer;
  if (obs::MetricsRegistry* metrics = obs.metrics) {
    m_queue_wait_ = &metrics->histogram("phase.queue_wait_ns");
    m_deserialize_ = &metrics->histogram("phase.deserialize_ns");
    m_serialize_ = &metrics->histogram("phase.serialize_ns");
    m_mailbox_depth_ =
        &metrics->gauge("runtime.mailbox_depth.s" + std::to_string(id));
  }
  metrics_ = obs.metrics;
  loop_.set_after_round([this] { end_round(); });
  loop_.set_round_end([this] { flush_outbox(); });
}

AutomatonLoop::~AutomatonLoop() { stop(); }

void AutomatonLoop::start(Server& server) {
  server_ = &server;
  loop_.schedule_after(gc_period_, [this] { collect_garbage(); });
  if (server.durable()) {
    loop_.schedule_after(snapshot_period_, [this] { checkpoint(); });
  }
  loop_.start([this] {
    std::string name = "s";
    name += std::to_string(id_);
    name += "-auto";
    set_thread_name(name);
    set_log_thread_node(static_cast<int>(id_));
    pool_.install();
  });
  // Opened once the loop takes posts, so every batch gets its drain task.
  std::lock_guard<std::mutex> lock(inbox_mu_);
  inbox_open_ = true;
}

void AutomatonLoop::stop() {
  std::vector<Inbound> dropped;  // destroyed outside the lock
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    inbox_open_ = false;
    dropped.swap(inbox_);
  }
  loop_.stop();
  inbox_due_ = false;
  unsettled_ = 0;
  outbox_.clear();
  for (auto& sends : sends_) sends.clear();
}

void AutomatonLoop::post(std::function<void()> task) {
  loop_.post(std::move(task));
}

void AutomatonLoop::deliver(NodeId from, std::span<Envelope> batch) {
  if (batch.empty()) return;
  const SimTime enqueued_at = m_queue_wait_ != nullptr ? now() : 0;
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    if (!inbox_open_) return;
    first = inbox_.empty();
    for (Envelope& in : batch) {
      inbox_.push_back(Inbound{from, std::move(in.frame), std::move(in.message),
                               enqueued_at});
    }
  }
  // One task per inbox batch wakes the loop and marks the inbox due; the
  // batch, with every message that joins it meanwhile, is drained at the
  // end of that round, after the round's tasks.
  if (first) loop_.post([this] { inbox_due_ = true; });
}

void AutomatonLoop::drain_inbox() {
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    draining_.swap(inbox_);
  }
  for (Inbound& in : draining_) {
    if (m_queue_wait_ != nullptr) {
      m_queue_wait_->observe(static_cast<std::uint64_t>(now() - in.enqueued_at));
    }
    sim::MessagePtr message = std::move(in.message);
    if (message == nullptr) {
      message = decode(in.from, std::move(in.frame));
      if (message == nullptr) continue;
    }
    dispatch(in.from, std::move(message));
  }
  draining_.clear();
}

void AutomatonLoop::dispatch_frame(NodeId from, erasure::Buffer frame) {
  if (m_queue_wait_ != nullptr) {
    // The frame waited, since the round's wait returned, behind the
    // round's tasks and the frames read before it.
    m_queue_wait_->observe(static_cast<std::uint64_t>(
        (EventLoop::Clock::now() - loop_.round_start()).count()));
  }
  sim::MessagePtr message = decode(from, std::move(frame));
  if (message != nullptr) dispatch(from, std::move(message));
}

void AutomatonLoop::dispatch(NodeId from, sim::MessagePtr message) {
  if (tracer_ != nullptr) trace_deliver(from, *message);
  server_->dispatch_message(from, std::move(message));
  ++unsettled_;
}

void AutomatonLoop::end_round() {
  if (inbox_due_) {
    inbox_due_ = false;
    drain_inbox();
  }
  if (unsettled_ != 0) {
    if (m_mailbox_depth_ != nullptr) {
      // Messages the round found waiting: queue buildup shows here before
      // it becomes tail latency.
      m_mailbox_depth_->set(static_cast<std::int64_t>(unsettled_));
    }
    unsettled_ = 0;
    // One Apply/Encoding fixpoint for the whole round.
    server_->run_internal_actions();
  }
  if (post_batch_) post_batch_();
}

void AutomatonLoop::OutboxTransport::send(NodeId to,
                                          sim::MessagePtr message) {
  loop_->queue(std::span(&to, 1), std::move(message));
}

void AutomatonLoop::OutboxTransport::multicast(
    std::span<const NodeId> targets,
    const std::function<sim::MessagePtr()>& make) {
  if (!loop_->serialize_) {
    for (NodeId to : targets) send(to, make());
    return;
  }
  // One message for every target: serialized once at the flush, and every
  // target's batch shares the frame's arena.
  if (!targets.empty()) loop_->queue(targets, make());
}

void AutomatonLoop::queue(std::span<const NodeId> targets,
                          sim::MessagePtr message) {
  CEC_DCHECK(loop_.on_loop_thread());
  const auto index = static_cast<std::uint32_t>(outbox_.size());
  outbox_.push_back(Envelope{{}, std::move(message)});
  for (NodeId to : targets) {
    CEC_DCHECK(to != id_);
    if (to >= sends_.size()) sends_.resize(to + 1);
    sends_[to].push_back(index);
  }
}

void AutomatonLoop::flush_outbox() {
  if (outbox_.empty()) return;
  if (serialize_) {
    for (Envelope& out : outbox_) out.frame = serialize(*out.message);
  }
  const bool noted = tracer_ != nullptr || metrics_ != nullptr;
  for (NodeId to = 0; to < sends_.size(); ++to) {
    std::vector<std::uint32_t>& sends = sends_[to];
    if (sends.empty()) continue;
    for (const std::uint32_t index : sends) {
      Envelope& out = outbox_[index];
      if (noted) note_send(to, *out.message);
      // Without the codec every entry has one target and moves out whole.
      batch_.push_back(serialize_ ? Envelope{out.frame, nullptr}
                                  : std::move(out));
    }
    sends.clear();
    if (peer_sink_) peer_sink_(to, batch_);
    batch_.clear();
  }
  outbox_.clear();
}

void AutomatonLoop::collect_garbage() {
  // Re-armed first, so the period runs from this firing, not from the end
  // of the collection.
  loop_.schedule_after(gc_period_, [this] { collect_garbage(); });
  server_->run_garbage_collection();
}

void AutomatonLoop::checkpoint() {
  loop_.schedule_after(snapshot_period_, [this] { checkpoint(); });
  server_->checkpoint();
}

erasure::Buffer AutomatonLoop::serialize(const sim::Message& message) const {
  if (m_serialize_ == nullptr) return serialize_message_frame(message);
  const SimTime t0 = now();
  erasure::Buffer frame = serialize_message_frame(message);
  m_serialize_->observe(static_cast<std::uint64_t>(now() - t0));
  return frame;
}

void AutomatonLoop::schedule_after(SimTime delta_ns, std::function<void()> fn) {
  loop_.schedule_after(std::chrono::nanoseconds(delta_ns), std::move(fn));
}

SimTime AutomatonLoop::now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             EventLoop::Clock::now().time_since_epoch())
      .count();
}

sim::MessagePtr AutomatonLoop::decode(NodeId from, erasure::Buffer frame) {
  const SimTime t0 = m_deserialize_ != nullptr ? now() : 0;
  std::string error;
  sim::MessagePtr message = try_deserialize_message(std::move(frame), &error);
  if (m_deserialize_ != nullptr) {
    m_deserialize_->observe(static_cast<std::uint64_t>(now() - t0));
  }
  if (message == nullptr) {
    CEC_LOG(kWarn) << "node " << id_ << ": dropping malformed frame from node "
                   << from << ": " << error;
  }
  return message;
}

void AutomatonLoop::note_send(NodeId to, const sim::Message& message) {
  const std::size_t bytes = message.wire_bytes();
  if (metrics_ != nullptr) {
    const char* type = message.type_name();
    metrics_->counter("net.messages").inc();
    metrics_->counter("net.bytes").inc(bytes);
    metrics_->counter(std::string("net.messages.") + type).inc();
    metrics_->counter(std::string("net.bytes.") + type).inc(bytes);
  }
  if (tracer_ != nullptr) {
    const SimTime now_ns = now();
    tracer_->instant("msg.send", id_, now_ns,
                     {{"to", std::uint64_t{to}},
                      {"type", message.type_name()},
                      {"bytes", std::uint64_t{bytes}}});
    if (message.trace.traced()) {
      // A multicast shares one span id: one start, one finish per receiver.
      tracer_->flow_start(std::string("flow.") + message.type_name(), id_,
                          now_ns, message.trace.span_id,
                          {{"trace", message.trace.trace_id}});
    }
  }
}

void AutomatonLoop::trace_deliver(NodeId from, const sim::Message& message) {
  const SimTime now_ns = now();
  tracer_->instant("msg.deliver", id_, now_ns,
                   {{"from", std::uint64_t{from}},
                    {"type", message.type_name()},
                    {"bytes", std::uint64_t{message.wire_bytes()}}});
  if (message.trace.traced()) {
    tracer_->flow_finish(std::string("flow.") + message.type_name(), id_,
                         now_ns, message.trace.span_id,
                         {{"trace", message.trace.trace_id}});
  }
}

}  // namespace causalec::runtime
