#include "runtime/automaton_loop.h"

#include <algorithm>
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
}

AutomatonLoop::~AutomatonLoop() { stop(); }

void AutomatonLoop::start(Server& server) {
  CEC_CHECK_MSG(!thread_.joinable(), "AutomatonLoop " << id_
                                                      << " is already running");
  server_ = &server;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = false;
  }
  thread_ = std::thread([this] { run(); });
}

void AutomatonLoop::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Destroyed outside the locks: a dropped closure may own anything.
  std::deque<std::function<void()>> dropped_tasks;
  std::vector<Inbound> dropped_frames;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dropped_tasks.swap(tasks_);
  }
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    dropped_frames.swap(inbox_);
    inbox_ready_.store(false, std::memory_order_release);
  }
  timers_.clear();
}

void AutomatonLoop::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    tasks_.push_back(std::move(task));
  }
  cv_.notify_all();
}

void AutomatonLoop::deliver_frame(NodeId from, erasure::Buffer frame) {
  enqueue(Inbound{from, std::move(frame), nullptr,
                  m_queue_wait_ != nullptr ? now() : 0});
}

void AutomatonLoop::deliver_message(NodeId from, sim::MessagePtr message) {
  enqueue(Inbound{from, {}, std::move(message),
                  m_queue_wait_ != nullptr ? now() : 0});
}

/// Producer side of the inbox. The data lock (`inbox_mu_`) is disjoint from
/// the consumer's wait lock (`mu_`); the empty lock_guard on `mu_` fences
/// against the lost-wakeup race (the consumer either sees `inbox_ready_` in
/// its predicate or is already waiting when we notify).
void AutomatonLoop::enqueue(Inbound in) {
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    inbox_.push_back(std::move(in));
    inbox_ready_.store(true, std::memory_order_release);
  }
  { std::lock_guard<std::mutex> lock(mu_); }
  cv_.notify_all();
}

erasure::Buffer AutomatonLoop::serialize(const sim::Message& message) const {
  if (m_serialize_ == nullptr) return serialize_message_frame(message);
  const SimTime t0 = now();
  erasure::Buffer frame = serialize_message_frame(message);
  m_serialize_->observe(static_cast<std::uint64_t>(now() - t0));
  return frame;
}

void AutomatonLoop::schedule_after(SimTime delta_ns, std::function<void()> fn) {
  timers_.push_back(
      {Clock::now() + std::chrono::nanoseconds(delta_ns), std::move(fn)});
}

SimTime AutomatonLoop::now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void AutomatonLoop::run() {
  set_log_thread_node(static_cast<int>(id_));
  // Node-local arena recycling: payload buffers allocated while the server
  // handles its messages come from (and return to) this pool, so the
  // steady-state data path stops malloc'ing. A restarted loop gets a fresh
  // pool; the old one folds its counters on close.
  erasure::BufferPool buffer_pool;
  erasure::BufferPool::ScopedInstall pool_installed(buffer_pool);
  auto next_gc = Clock::now() + gc_period_;
  auto next_snapshot = Clock::now() + snapshot_period_;
  std::deque<std::function<void()>> tasks;
  std::vector<Inbound> inbound;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      auto deadline = next_gc;
      if (server_->durable()) deadline = std::min(deadline, next_snapshot);
      for (const Timer& timer : timers_) {
        deadline = std::min(deadline, timer.at);
      }
      cv_.wait_until(lock, deadline, [this] {
        return stop_ || !tasks_.empty() ||
               inbox_ready_.load(std::memory_order_acquire);
      });
      if (stop_) return;
      tasks.swap(tasks_);
    }
    {
      std::lock_guard<std::mutex> lock(inbox_mu_);
      inbound.swap(inbox_);
      inbox_ready_.store(false, std::memory_order_release);
    }
    for (auto& task : tasks) task();
    tasks.clear();
    if (!inbound.empty()) dispatch(inbound);
    if (post_batch_) post_batch_();
    const auto now = Clock::now();
    fire_due_timers(now);
    if (now >= next_gc) {
      server_->run_garbage_collection();
      next_gc = now + gc_period_;
    }
    if (server_->durable() && now >= next_snapshot) {
      server_->checkpoint();
      next_snapshot = now + snapshot_period_;
    }
  }
}

void AutomatonLoop::dispatch(std::vector<Inbound>& batch) {
  if (m_mailbox_depth_ != nullptr) {
    // Depth the drain found waiting: queue buildup shows here before it
    // becomes tail latency.
    m_mailbox_depth_->set(static_cast<std::int64_t>(batch.size()));
  }
  for (Inbound& in : batch) {
    if (m_queue_wait_ != nullptr) {
      m_queue_wait_->observe(static_cast<std::uint64_t>(now() - in.enqueued_at));
    }
    sim::MessagePtr message = std::move(in.message);
    if (message == nullptr) {
      message = decode(in.from, std::move(in.frame));
      if (message == nullptr) continue;
    }
    if (tracer_ != nullptr) trace_deliver(in.from, *message);
    server_->dispatch_message(in.from, std::move(message));
  }
  // One Apply/Encoding fixpoint for the whole batch.
  server_->run_internal_actions();
  batch.clear();
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

void AutomatonLoop::fire_due_timers(Clock::time_point now) {
  // A fired timer may schedule another; it lands at the back and is
  // checked in this same pass.
  for (std::size_t i = 0; i < timers_.size();) {
    if (timers_[i].at <= now) {
      auto fn = std::move(timers_[i].fn);
      timers_.erase(timers_.begin() + static_cast<std::ptrdiff_t>(i));
      fn();
    } else {
      ++i;
    }
  }
}

}  // namespace causalec::runtime
