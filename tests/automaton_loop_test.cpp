// The contract of runtime::AutomatonLoop, the driver thread both threaded
// runtimes share (DESIGN.md §5.3): what a stopped loop does with tasks,
// frames and timers, what stop() throws away, when the post-batch hook
// runs, that a client write behind a batch of frames tags them, that an
// inbox batch waits for the round's tasks, and that a burst of frames
// from other threads is dispatched in full. The loop
// drives a real Server whose outbound traffic goes nowhere; peer messages
// are app writes, so the server's clock counts the ones it applied.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "causalec/codec.h"
#include "causalec/messages.h"
#include "causalec/server.h"
#include "erasure/codes.h"
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
    loop_.deliver_frame(1, app_frame(1, 1));
    loop_.deliver_message(2, app_from(2, 1));
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
  loop_.deliver_frame(1, app_frame(1, 1));
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
    loop_.deliver_frame(1, app_frame(1, static_cast<std::uint64_t>(i)));
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
      loop_.deliver_frame(1, app_frame(1, seq));
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
      loop_.deliver_frame(1, app_frame(1, seq));
    }
  });
  std::thread messages([&] {
    for (std::uint64_t seq = 1; seq <= kBurst; ++seq) {
      loop_.deliver_message(2, app_from(2, seq));
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

}  // namespace
}  // namespace causalec::runtime
