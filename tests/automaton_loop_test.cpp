// The contract of runtime::AutomatonLoop, the driver thread both threaded
// runtimes share (DESIGN.md §5.3): what a stopped loop does with tasks,
// frames and timers, what stop() throws away, when the post-batch hook
// runs, that a client write behind a batch of frames tags them, that an
// inbox batch waits for the round's tasks, that a burst of frames from
// other threads is dispatched in full, and how a round's outbox leaves:
// one batch per peer in send order, at the end of the round, the GC
// tick's round included. The fixture's loop drives a real Server whose
// outbound traffic goes nowhere; peer messages are app writes, so the
// server's clock counts the ones it applied.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "causalec/codec.h"
#include "causalec/messages.h"
#include "causalec/server.h"
#include "erasure/codes.h"
#include "obs/trace.h"
#include "runtime/automaton_loop.h"

namespace causalec::runtime {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kServers = 5;
constexpr std::size_t kObjects = 3;
constexpr std::size_t kValueBytes = 64;

/// Outbound messages are dropped; timers and the clock are the loop's.
class LoopTransport final : public Transport {
 public:
  explicit LoopTransport(AutomatonLoop* loop) : loop_(loop) {}
  void send(NodeId, sim::MessagePtr) override {}
  void schedule_after(SimTime delta, std::function<void()> fn) override {
    loop_->schedule_after(delta, std::move(fn));
  }
  SimTime now() const override { return AutomatonLoop::now(); }

 private:
  AutomatonLoop* loop_;
};

/// The `seq`-th write of peer `from`: applicable once the server applied
/// that peer's seq-1 earlier writes.
sim::MessagePtr app_from(NodeId from, std::uint64_t seq) {
  VectorClock ts(kServers);
  ts.set(from, seq);
  return std::make_unique<AppMessage>(
      static_cast<ObjectId>(seq % kObjects),
      erasure::Value(kValueBytes, static_cast<std::uint8_t>(seq)),
      Tag(std::move(ts), 100 + from), WireModel{});
}

erasure::Buffer app_frame(NodeId from, std::uint64_t seq) {
  return serialize_message_frame(*app_from(from, seq));
}

/// One serialized frame from `from`, delivered as a batch of one.
void deliver_frame(AutomatonLoop& loop, NodeId from, erasure::Buffer frame) {
  AutomatonLoop::Envelope in{std::move(frame), nullptr};
  loop.deliver(from, std::span(&in, 1));
}

/// One in-memory message from `from`, delivered as a batch of one.
void deliver_message(AutomatonLoop& loop, NodeId from,
                     sim::MessagePtr message) {
  AutomatonLoop::Envelope in{{}, std::move(message)};
  loop.deliver(from, std::span(&in, 1));
}

class AutomatonLoopTest : public ::testing::Test {
 protected:
  AutomatonLoopTest()
      : loop_(/*id=*/0, obs::ObsHooks{}, /*gc_period=*/10ms,
              /*snapshot_period=*/100ms),
        transport_(&loop_),
        server_(0, erasure::make_systematic_rs(kServers, kObjects,
                                               kValueBytes),
                ServerConfig{}, &transport_) {}

  ~AutomatonLoopTest() override { loop_.stop(); }

  /// Runs `fn` on the loop thread and returns its result.
  template <typename Fn>
  auto on_loop(Fn fn) -> decltype(fn()) {
    std::promise<decltype(fn())> done;
    auto result = done.get_future();
    loop_.post([&] { done.set_value(fn()); });
    return result.get();
  }

  /// Waits until every task posted so far has run.
  void sync() {
    on_loop([] { return true; });
  }

  std::uint64_t clock_of(NodeId peer) {
    return on_loop([&] { return server_.clock()[peer]; });
  }

  /// Polls the server's clock until `peer`'s entry reaches `want`.
  bool await_clock(NodeId peer, std::uint64_t want,
                   std::chrono::milliseconds timeout = 20s) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      if (clock_of(peer) >= want) return true;
      std::this_thread::sleep_for(1ms);
    }
    return false;
  }

  /// Called on the loop thread while stop() runs on another: returns once
  /// stop() has begun, which is when a post starts to be dropped (a
  /// dropped task is destroyed inside post(), one still queued is not).
  void await_stop_requested() {
    while (true) {
      auto probe = std::make_shared<int>(0);
      std::weak_ptr<int> alive = probe;
      loop_.post([probe] {});
      probe.reset();
      if (alive.expired()) return;
      std::this_thread::sleep_for(1ms);
    }
  }

  AutomatonLoop loop_;
  LoopTransport transport_;
  Server server_;
};

TEST_F(AutomatonLoopTest, TaskPostedWhileStoppedNeverRuns) {
  std::atomic<int> ran{0};
  loop_.post([&] { ran.fetch_add(1); });  // before the first start
  loop_.start(server_);
  sync();
  EXPECT_EQ(ran.load(), 0);

  loop_.stop();
  loop_.post([&] { ran.fetch_add(1); });  // between a stop and a restart
  loop_.start(server_);
  sync();
  EXPECT_EQ(ran.load(), 0);

  loop_.post([&] { ran.fetch_add(1); });  // while running: runs
  sync();
  EXPECT_EQ(ran.load(), 1);
}

TEST_F(AutomatonLoopTest, StopDiscardsQueuedTasksFramesAndTimers) {
  std::atomic<int> tasks{0};
  std::atomic<int> timers{0};
  std::promise<void> queued;
  std::thread stopper;
  loop_.start(server_);
  loop_.post([&] {
    // Queue one of each behind this task, then hold the loop here until
    // stop() has begun, so none of them can run before the stop.
    loop_.post([&] { tasks.fetch_add(1); });
    deliver_frame(loop_, 1, app_frame(1, 1));
    deliver_message(loop_, 2, app_from(2, 1));
    loop_.schedule_after(std::chrono::nanoseconds(200ms).count(),
                         [&] { timers.fetch_add(1); });
    queued.set_value();
    await_stop_requested();
  });
  queued.get_future().wait();
  stopper = std::thread([this] { loop_.stop(); });
  stopper.join();
  EXPECT_EQ(tasks.load(), 0);
  EXPECT_EQ(timers.load(), 0);
  EXPECT_EQ(server_.clock()[1], 0u);  // stopped: safe to read here
  EXPECT_EQ(server_.clock()[2], 0u);

  // None of them comes back after a restart, not even once the timer's
  // deadline has passed.
  loop_.start(server_);
  std::this_thread::sleep_for(300ms);
  sync();
  EXPECT_EQ(tasks.load(), 0);
  EXPECT_EQ(timers.load(), 0);
  EXPECT_EQ(clock_of(1), 0u);
  EXPECT_EQ(clock_of(2), 0u);

  // The restarted loop carries on with fresh traffic.
  deliver_frame(loop_, 1, app_frame(1, 1));
  EXPECT_TRUE(await_clock(1, 1));
}

TEST_F(AutomatonLoopTest, TimerScheduledWhileStoppedFiresAfterStart) {
  // A journal restore schedules the server's timers before the loop runs.
  std::promise<void> fired;
  std::atomic<bool> early{false};
  std::atomic<bool> started{false};
  loop_.schedule_after(std::chrono::nanoseconds(1ms).count(), [&] {
    if (!started.load()) early.store(true);
    fired.set_value();
  });
  std::this_thread::sleep_for(20ms);  // past the deadline, still stopped
  started.store(true);
  loop_.start(server_);
  auto f = fired.get_future();
  ASSERT_EQ(f.wait_for(5s), std::future_status::ready);
  EXPECT_FALSE(early.load());

  // Same after a stop.
  loop_.stop();
  std::promise<void> fired_again;
  loop_.schedule_after(std::chrono::nanoseconds(1ms).count(),
                       [&] { fired_again.set_value(); });
  loop_.start(server_);
  auto g = fired_again.get_future();
  EXPECT_EQ(g.wait_for(5s), std::future_status::ready);
}

TEST_F(AutomatonLoopTest, PostBatchHookRunsAfterEveryBatch) {
  // The hook records what it saw; every task and every frame (with its
  // fixpoint) must be followed by a hook call that sees its effect.
  std::mutex mu;
  std::vector<std::pair<int, std::uint64_t>> seen;  // (tasks run, clock[1])
  int tasks_run = 0;  // loop thread only
  loop_.set_post_batch([&] {
    std::lock_guard<std::mutex> lock(mu);
    seen.emplace_back(tasks_run, server_.clock()[1]);
  });
  loop_.start(server_);
  auto hook_saw = [&](int tasks, std::uint64_t clock) {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (std::chrono::steady_clock::now() < deadline) {
      {
        std::lock_guard<std::mutex> lock(mu);
        for (const auto& [t, c] : seen) {
          if (t >= tasks && c >= clock) return true;
        }
      }
      std::this_thread::sleep_for(1ms);
    }
    return false;
  };
  for (int i = 1; i <= 20; ++i) {
    loop_.post([&] { ++tasks_run; });
    ASSERT_TRUE(hook_saw(i, static_cast<std::uint64_t>(i - 1)))
        << "task " << i;
    deliver_frame(loop_, 1, app_frame(1, static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(hook_saw(i, static_cast<std::uint64_t>(i))) << "frame " << i;
  }
}

TEST_F(AutomatonLoopTest, ClientWriteBehindDispatchedFramesTagsThem) {
  // The loop runs the fixpoint once per round, so a task queued behind one
  // that dispatched frames -- as a daemon's client request read in the
  // same round as a peer's frames is -- finds them dispatched but not
  // applied. A client write there must apply them before it takes
  // its tag: otherwise its own fixpoint moves them into the clock it is
  // answered with, past the tag.
  constexpr std::uint64_t kFrames = 8;
  std::promise<std::pair<Tag, VectorClock>> seen;
  loop_.start(server_);
  loop_.post([&] {
    // The dispatching task and the write are queued for the same round.
    loop_.post([&] {
      for (std::uint64_t seq = 1; seq <= kFrames; ++seq) {
        loop_.dispatch_frame(1, app_frame(1, seq));
      }
    });
    loop_.post([&] {
      const Tag tag = server_.client_write(
          /*client=*/7, /*opid=*/1, /*object=*/0,
          erasure::Value(kValueBytes, 0xAB));
      seen.set_value({tag, server_.clock()});
    });
  });
  const auto [tag, clock] = seen.get_future().get();
  EXPECT_EQ(tag.ts[1], kFrames);
  EXPECT_TRUE(clock.leq(tag.ts));
}

TEST_F(AutomatonLoopTest, InboxBatchIsDispatchedAfterTheRoundsTasks) {
  // A batch delivered from another thread is drained once per round,
  // after the round's tasks: a client operation queued in the same round
  // as the batch's wake-up task is not kept waiting while the batch is
  // decoded and dispatched.
  constexpr std::uint64_t kFrames = 8;
  std::promise<std::size_t> pending;  // what the task found dispatched
  loop_.start(server_);
  loop_.post([&] {
    // The batch's task and the probe are queued for the same round.
    for (std::uint64_t seq = 1; seq <= kFrames; ++seq) {
      deliver_frame(loop_, 1, app_frame(1, seq));
    }
    loop_.post([&] { pending.set_value(server_.inqueue().size()); });
  });
  EXPECT_EQ(pending.get_future().get(), 0u);
  EXPECT_EQ(clock_of(1), kFrames);  // applied at the end of that round
}

TEST_F(AutomatonLoopTest, BurstFromOtherThreadsIsDispatchedInFull) {
  constexpr std::uint64_t kBurst = 3000;
  loop_.start(server_);
  // Two producers, one delivering frames and one in-memory messages, race
  // each other and a stream of tasks.
  std::thread frames([&] {
    for (std::uint64_t seq = 1; seq <= kBurst; ++seq) {
      deliver_frame(loop_, 1, app_frame(1, seq));
    }
  });
  std::thread messages([&] {
    for (std::uint64_t seq = 1; seq <= kBurst; ++seq) {
      deliver_message(loop_, 2, app_from(2, seq));
    }
  });
  std::atomic<int> tasks{0};
  for (int i = 0; i < 1000; ++i) loop_.post([&] { tasks.fetch_add(1); });
  frames.join();
  messages.join();
  EXPECT_TRUE(await_clock(1, kBurst));
  EXPECT_TRUE(await_clock(2, kBurst));
  EXPECT_EQ(clock_of(1), kBurst);
  EXPECT_EQ(clock_of(2), kBurst);
  EXPECT_EQ(tasks.load(), 1000);
  const ServerCounters counters = on_loop([&] { return server_.counters(); });
  EXPECT_EQ(counters.error1_events + counters.error2_events, 0u);
}

TEST_F(AutomatonLoopTest, RoundHandsEachPeerOneBatchInSendOrder) {
  // Two tasks of one round send to peers 1 and 2. Nothing leaves before
  // the round ends; then peer 1 gets one batch of its three messages in
  // send order, and peer 2 one batch holding the multicast, whose frame
  // both peers share.
  struct Batch {
    NodeId to;
    std::vector<erasure::Buffer> frames;
  };
  std::mutex mu;
  std::vector<Batch> batches;
  loop_.set_peer_sink(
      [&](NodeId to, std::span<AutomatonLoop::Envelope> batch) {
        Batch got{to, {}};
        for (AutomatonLoop::Envelope& out : batch) {
          EXPECT_EQ(out.message, nullptr);
          got.frames.push_back(std::move(out.frame));
        }
        std::lock_guard<std::mutex> lock(mu);
        batches.push_back(std::move(got));
      });
  loop_.start(server_);
  Transport& transport = loop_.transport();
  std::promise<std::size_t> left_during_round;
  loop_.post([&] {
    loop_.post([&] {
      transport.send(1, app_from(3, 1));
      const NodeId both[] = {1, 2};
      transport.multicast(both, [] { return app_from(3, 2); });
    });
    loop_.post([&] {
      transport.send(1, app_from(3, 3));
      std::lock_guard<std::mutex> lock(mu);
      left_during_round.set_value(batches.size());
    });
  });
  EXPECT_EQ(left_during_round.get_future().get(), 0u);
  sync();  // the next round: the last one's flush is done

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(batches.size(), 2u);
  const auto seq_of = [](const erasure::Buffer& frame) {
    const sim::MessagePtr message = deserialize_message(frame);
    const auto* app = dynamic_cast<const AppMessage*>(message.get());
    return app != nullptr ? app->tag.ts[3] : 0;
  };
  EXPECT_EQ(batches[0].to, 1u);
  ASSERT_EQ(batches[0].frames.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(seq_of(batches[0].frames[i]), i + 1) << "message " << i;
  }
  EXPECT_EQ(batches[1].to, 2u);
  ASSERT_EQ(batches[1].frames.size(), 1u);
  EXPECT_EQ(seq_of(batches[1].frames[0]), 2u);
  // One serialization per multicast.
  EXPECT_EQ(batches[0].frames[1].data(), batches[1].frames[0].data());
}

TEST(AutomatonLoopOutboxTest, IdleGcTickDeliversItsDelsWithinOnePeriod) {
  // Server 0 stores object 0 but not every server does, so it announces a
  // peer's write of it only at its next GC tick (DESIGN.md §2 note 11).
  // The loop is otherwise idle: its next round is a GC period away. The
  // tick's dels must leave in the tick's own round, not wait for that
  // next round.
  constexpr auto kGcPeriod = 100ms;
  obs::Tracer tracer;
  obs::ObsHooks hooks;
  hooks.tracer = &tracer;
  AutomatonLoop loop(/*id=*/0, hooks, kGcPeriod, /*snapshot_period=*/1s);
  ServerConfig config;
  config.obs = hooks;
  Server server(0, erasure::make_systematic_rs(kServers, kObjects, kValueBytes),
                config, &loop.transport());
  std::mutex mu;
  std::vector<SimTime> dels_sent;  // when each del left
  loop.set_peer_sink(
      [&](NodeId, std::span<AutomatonLoop::Envelope> batch) {
        for (AutomatonLoop::Envelope& out : batch) {
          if (dynamic_cast<const DelMessage*>(
                  deserialize_message(out.frame).get()) != nullptr) {
            std::lock_guard<std::mutex> lock(mu);
            dels_sent.push_back(AutomatonLoop::now());
          }
        }
      });
  loop.start(server);
  VectorClock ts(kServers);
  ts.set(1, 1);
  deliver_frame(loop, 1,
                serialize_message_frame(AppMessage(
                    /*object=*/0, erasure::Value(kValueBytes, 0x5A),
                    Tag(std::move(ts), 101), WireModel{})));
  const auto deadline = std::chrono::steady_clock::now() + 10 * kGcPeriod;
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!dels_sent.empty()) break;
    }
    std::this_thread::sleep_for(1ms);
  }
  loop.stop();

  ASSERT_FALSE(dels_sent.empty()) << "no del left the loop";
  std::vector<obs::TraceEvent> ticks;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.name == "gc" && e.phase == 'X') ticks.push_back(e);
  }
  for (const SimTime sent : dels_sent) {
    // The latest tick that ended before the del left made it.
    const obs::TraceEvent* made_by = nullptr;
    for (const obs::TraceEvent& tick : ticks) {
      if (tick.ts_ns + tick.dur_ns <= sent) made_by = &tick;
    }
    ASSERT_NE(made_by, nullptr);
    EXPECT_LT(sent - (made_by->ts_ns + made_by->dur_ns),
              std::chrono::nanoseconds(kGcPeriod).count() / 2)
        << "a del waited for a later round";
  }
}

}  // namespace
}  // namespace causalec::runtime
