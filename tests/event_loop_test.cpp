// Liveness of EventLoop's wakeup: post() wakes the loop only when it is
// asleep or about to sleep (runtime/event_loop.h). A poster that skipped
// the wake while the loop went to sleep would strand its task until the
// loop's 500 ms idle wait ran out; four threads posting with short random
// gaps to an otherwise idle loop race it against the loop going to sleep
// tens of thousands of times, on each of the two ways a loop sleeps.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include "runtime/event_loop.h"

namespace causalec::runtime {
namespace {

using namespace std::chrono_literals;
using Clock = EventLoop::Clock;

/// Four threads post kTasksPerThread tasks each to the running `loop`;
/// every one must run, none after waiting as long as a missed wakeup
/// costs.
void post_in_rounds(EventLoop& loop) {
  constexpr int kThreads = 4;
  constexpr int kTasksPerThread = 20000;
  // Well under the 500 ms a missed wakeup costs, well over what a loaded
  // host delays a runnable thread.
  constexpr auto kMaxWait = 250ms;

  std::atomic<int> ran{0};
  Clock::duration longest{};  // loop thread only until it stopped
  // Each round every thread posts one task after its own random gap and
  // waits for it to run; the round ends when all four did. So no later
  // post can rescue a stranded task: it waits out the idle wait.
  std::barrier round(kThreads);
  // done[t]: how many of thread t's tasks ran. Outlives the loop thread
  // (stopped below), which may still be in notify_one() when its poster
  // moves on.
  std::array<std::atomic<int>, kThreads> done{};
  std::vector<std::thread> posters;
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t) + 1);
      std::uniform_int_distribution<int> gap_us(0, 20);
      for (int i = 0; i < kTasksPerThread; ++i) {
        // Spin out the gap: a sleep this short would take ~50 us.
        const Clock::time_point due =
            Clock::now() + std::chrono::microseconds(gap_us(rng));
        while (Clock::now() < due) {
        }
        const Clock::time_point posted = Clock::now();
        loop.post([&, t, i, posted] {
          longest = std::max(longest, Clock::now() - posted);
          ran.fetch_add(1, std::memory_order_relaxed);
          done[t].store(i + 1, std::memory_order_release);
          done[t].notify_one();
        });
        done[t].wait(i, std::memory_order_acquire);
        round.arrive_and_wait();
      }
    });
  }
  for (std::thread& poster : posters) poster.join();
  loop.stop();
  EXPECT_EQ(ran.load(std::memory_order_relaxed), kThreads * kTasksPerThread);
  EXPECT_LT(longest, kMaxWait)
      << "a task waited "
      << std::chrono::duration_cast<std::chrono::milliseconds>(longest)
             .count()
      << " ms";
}

TEST(EventLoopTest, EveryPostRunsWithoutWaitingOutTheIdleWait) {
  {
    SCOPED_TRACE("no fd watched: the loop sleeps on its futex word");
    EventLoop loop;
    loop.start();
    post_in_rounds(loop);
  }
  {
    SCOPED_TRACE("a never-readable pipe watched: the loop sleeps in epoll");
    int pipe_fds[2];
    ASSERT_EQ(::pipe2(pipe_fds, O_CLOEXEC | O_NONBLOCK), 0);
    {
      EventLoop loop;
      loop.start([&] {
        loop.watch(pipe_fds[0], /*want_read=*/true, /*want_write=*/false,
                   [](std::uint32_t) {});
      });
      post_in_rounds(loop);
    }
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
  }
}

}  // namespace
}  // namespace causalec::runtime
