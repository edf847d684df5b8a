// EventLoop: the one wait primitive of every loop thread in this system.
// One OS thread multiplexes fds (epoll), tasks posted from any thread and
// monotonic timers.
//
// Two kinds of loop run on it:
//   * the automaton loop of every server (runtime::AutomatonLoop, for
//     ThreadedCluster and NodeDaemon alike), which in a daemon also serves
//     every connection and outbound peer link;
//   * the shard loops of a net::FrontEnd (a causalec_server daemon's or a
//     causalec_router's), which own the listeners; a router's also serve
//     its client connections and backend links.
//
// One round: wait (timed to the nanosecond up to the earliest timer, at
// most 500 ms) -> posted tasks in FIFO order, the ones that woke the loop
// included -> fd handlers -> the after-round hook -> due timers -> the
// round-end hook. All of them run on the loop thread; post() is the only
// cross-thread entry.
//
// A wakeup costs one syscall, and only when the loop is asleep or about to
// sleep: the loop stores how it sleeps in `sleep_` (seq_cst) before it
// takes the queue for the last time and waits, and a poster queues its
// task before it reads the word (seq_cst), so either the loop finds the
// task or the poster finds the word; the first poster to find it puts
// kAwake back and wakes the loop. A loop that watches fds waits in
// epoll_pwait2 and is woken through an eventfd registered edge-triggered
// and never read: every write is a new edge, so a wake costs no read(2).
// A loop that watches none (ThreadedCluster's automaton loops, a daemon's
// automaton before its first peer connects) waits on the word itself with
// futex(2): such a loop sleeps and wakes several times per client
// operation, and an eventfd write plus an epoll wake cost it about 1.5 us
// of CPU per operation more and widened its latency under CPU contention
// (EXPERIMENTS.md E14). A wake that puts kAwake back before the loop
// sleeps makes its wait return at once. While tasks are queued and no fd
// is watched, a round makes no syscall at all.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace causalec::runtime {

/// Names the calling thread (pthread_setname_np, cut to the 15 bytes
/// Linux keeps), so /proc/<pid>/task/*/comm tells loop threads apart.
void set_thread_name(const std::string& name);

class EventLoop {
 public:
  using Clock = std::chrono::steady_clock;
  using FdHandler = std::function<void(std::uint32_t epoll_events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Starts the loop thread; `on_thread_start` runs on it before anything
  /// else. Legal again after stop().
  void start(std::function<void()> on_thread_start = nullptr);
  /// Joins the loop thread, then discards every queued task and timer, as
  /// a crash would. Watches are kept: their owners close their fds.
  /// Idempotent.
  void stop();

  /// Any thread: run `fn` on the loop thread in a later round, never
  /// inline. Dropped unless the loop is running (between start() and
  /// stop()).
  void post(std::function<void()> fn);

  /// Loop thread only: watch `fd` for readability/writability. The handler
  /// is kept until unwatch(); it receives the raw epoll event mask.
  void watch(int fd, bool want_read, bool want_write, FdHandler handler);
  void update(int fd, bool want_read, bool want_write);
  /// Loop thread, or while the loop is stopped (its owner then tears down
  /// what the loop watched).
  void unwatch(int fd);

  /// Run `fn` once after `delta`. Loop thread, or while the loop is
  /// stopped (the timer then fires after the next start()).
  void schedule_after(std::chrono::nanoseconds delta,
                      std::function<void()> fn);

  /// Runs on the loop thread after every round's tasks and fd events,
  /// before its due timers. Set before start().
  void set_after_round(std::function<void()> hook) {
    after_round_ = std::move(hook);
  }

  /// Runs on the loop thread as the last step of every round, after its
  /// due timers. Set before start().
  void set_round_end(std::function<void()> hook) {
    round_end_ = std::move(hook);
  }

  /// Loop thread only: when the current round's wait returned.
  Clock::time_point round_start() const { return round_start_; }

  bool on_loop_thread() const {
    return loop_thread_.load(std::memory_order_relaxed) ==
           std::this_thread::get_id();
  }

 private:
  void run(const std::function<void()>& on_thread_start);
  void wake();
  /// Wait budget up to the earliest timer, at most 500 ms.
  std::chrono::nanoseconds next_timeout() const;
  void fire_due_timers();

  struct Timer {
    Clock::time_point at;
    std::function<void()> fn;
  };

  const int epoll_;
  const int wakeup_;  // eventfd, edge-triggered, never read
  std::thread thread_;
  std::atomic<std::thread::id> loop_thread_{};
  std::atomic<bool> stopping_{false};
  /// How the loop sleeps, set before its last look at the queue; a poster
  /// that finds it set puts kAwake back and wakes the loop that way.
  enum : std::uint32_t { kAwake = 0, kInEpoll = 1, kOnFutex = 2 };
  std::atomic<std::uint32_t> sleep_{kAwake};  // also the futex word

  std::mutex post_mu_;
  std::deque<std::function<void()>> posted_;
  bool running_ = false;  // guarded by post_mu_: posts are accepted

  std::function<void()> after_round_;
  std::function<void()> round_end_;
  // Loop-thread state (or the stopping/starting thread while stopped).
  std::map<int, FdHandler> handlers_;
  std::vector<Timer> timers_;
  Clock::time_point round_start_;
};

}  // namespace causalec::runtime
