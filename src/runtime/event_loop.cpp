#include "runtime/event_loop.h"

#include <linux/futex.h>
#include <pthread.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "common/expect.h"

namespace causalec::runtime {

namespace {

constexpr std::chrono::nanoseconds kIdleWait = std::chrono::milliseconds(500);

// futex(2) waits on a plain 32-bit word.
static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t));

timespec to_timespec(std::chrono::nanoseconds wait) {
  return {static_cast<time_t>(wait.count() / 1'000'000'000),
          static_cast<long>(wait.count() % 1'000'000'000)};
}

std::uint32_t to_epoll(bool want_read, bool want_write) {
  std::uint32_t events = 0;
  if (want_read) events |= EPOLLIN;
  if (want_write) events |= EPOLLOUT;
  return events;
}

}  // namespace

void set_thread_name(const std::string& name) {
  ::pthread_setname_np(::pthread_self(), name.substr(0, 15).c_str());
}

EventLoop::EventLoop()
    : epoll_(::epoll_create1(EPOLL_CLOEXEC)),
      wakeup_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  CEC_CHECK(epoll_ >= 0);
  CEC_CHECK(wakeup_ >= 0);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = wakeup_;
  CEC_CHECK(::epoll_ctl(epoll_, EPOLL_CTL_ADD, wakeup_, &ev) == 0);
}

EventLoop::~EventLoop() {
  stop();
  ::close(wakeup_);
  ::close(epoll_);
}

void EventLoop::start(std::function<void()> on_thread_start) {
  CEC_CHECK(!thread_.joinable());
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    running_ = true;
  }
  thread_ = std::thread(
      [this, init = std::move(on_thread_start)] { run(init); });
}

void EventLoop::stop() {
  if (!thread_.joinable()) return;
  {
    // Set with the posts closed: a poster that finds its task dropped also
    // finds the loop stopping, so nothing queued before runs after.
    std::lock_guard<std::mutex> lock(post_mu_);
    stopping_.store(true, std::memory_order_seq_cst);
    running_ = false;
  }
  wake();
  thread_.join();
  stopping_.store(false, std::memory_order_relaxed);
  // Destroyed outside the lock: a dropped closure may own anything.
  std::deque<std::function<void()>> dropped;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    dropped.swap(posted_);
  }
  timers_.clear();
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    if (!running_) return;
    posted_.push_back(std::move(fn));
  }
  if (sleep_.load(std::memory_order_seq_cst) != kAwake) wake();
}

void EventLoop::wake() {
  // Only the first poster to find the loop asleep makes the syscall; the
  // others find the word back at kAwake.
  switch (sleep_.exchange(kAwake, std::memory_order_seq_cst)) {
    case kInEpoll: {
      std::uint64_t one = 1;
      [[maybe_unused]] const auto n = ::write(wakeup_, &one, sizeof(one));
      break;
    }
    case kOnFutex:
      ::syscall(SYS_futex, &sleep_, FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr,
                0);
      break;
    default:
      break;
  }
}

void EventLoop::watch(int fd, bool want_read, bool want_write,
                      FdHandler handler) {
  CEC_DCHECK(on_loop_thread());
  epoll_event ev{};
  ev.events = to_epoll(want_read, want_write);
  ev.data.fd = fd;
  CEC_CHECK_MSG(::epoll_ctl(epoll_, EPOLL_CTL_ADD, fd, &ev) == 0,
                "epoll add failed: errno " << errno);
  handlers_[fd] = std::move(handler);
}

void EventLoop::update(int fd, bool want_read, bool want_write) {
  CEC_DCHECK(on_loop_thread());
  epoll_event ev{};
  ev.events = to_epoll(want_read, want_write);
  ev.data.fd = fd;
  CEC_CHECK_MSG(::epoll_ctl(epoll_, EPOLL_CTL_MOD, fd, &ev) == 0,
                "epoll mod failed: errno " << errno);
}

void EventLoop::unwatch(int fd) {
  CEC_DCHECK(on_loop_thread() || !thread_.joinable());
  ::epoll_ctl(epoll_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EventLoop::schedule_after(std::chrono::nanoseconds delta,
                               std::function<void()> fn) {
  CEC_DCHECK(on_loop_thread() || !thread_.joinable());
  timers_.push_back({Clock::now() + delta, std::move(fn)});
}

std::chrono::nanoseconds EventLoop::next_timeout() const {
  if (timers_.empty()) return kIdleWait;
  auto earliest = timers_[0].at;
  for (const Timer& t : timers_) earliest = std::min(earliest, t.at);
  return std::clamp<std::chrono::nanoseconds>(earliest - Clock::now(),
                                              std::chrono::nanoseconds::zero(),
                                              kIdleWait);
}

void EventLoop::fire_due_timers() {
  // A fired timer may schedule another; it lands at the back and is
  // checked in this same pass.
  const auto now = Clock::now();
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

void EventLoop::run(const std::function<void()>& on_thread_start) {
  loop_thread_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  if (on_thread_start) on_thread_start();
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  std::deque<std::function<void()>> tasks;
  const auto take_posted = [&] {
    std::lock_guard<std::mutex> lock(post_mu_);
    tasks.swap(posted_);
  };
  while (true) {
    take_posted();
    // Only the loop thread watches fds, so this holds until the wait ends.
    const bool on_futex = handlers_.empty();
    if (tasks.empty()) {
      // Announce the sleep, then look again: a post that lands after this
      // look finds the word and wakes the loop, one that landed before it
      // is in `tasks`. stop() sets stopping_ before it wakes.
      sleep_.store(on_futex ? kOnFutex : kInEpoll, std::memory_order_seq_cst);
      take_posted();
      if (stopping_.load(std::memory_order_seq_cst)) break;
    }
    int n = 0;
    const bool idle = tasks.empty();
    if (on_futex) {
      // Nothing to poll: sleep on the word unless a task is queued. A wake
      // that came first left kAwake there, and the wait returns at once.
      if (idle) {
        const timespec timeout = to_timespec(next_timeout());
        ::syscall(SYS_futex, &sleep_, FUTEX_WAIT_PRIVATE, kOnFutex, &timeout,
                  nullptr, 0);
      }
    } else {
      const timespec timeout = to_timespec(
          idle ? next_timeout() : std::chrono::nanoseconds::zero());
      n = ::epoll_pwait2(epoll_, events, kMaxEvents, &timeout, nullptr);
    }
    sleep_.store(kAwake, std::memory_order_relaxed);
    if (stopping_.load(std::memory_order_acquire)) break;
    if (n < 0) {
      if (errno != EINTR) break;
      n = 0;
    }
    // What woke an idle loop is usually a post: it runs in this round, not
    // after a round with nothing to do.
    if (idle) take_posted();
    round_start_ = Clock::now();
    // Posted tasks first: a close or an EPOLLOUT arm takes effect before
    // this round's socket events.
    for (auto& task : tasks) task();
    tasks.clear();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wakeup_) continue;
      // A handler may unwatch (or close) any fd, including its own --
      // re-look-up per event so a stale fd is skipped.
      const auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      // Copy the handler: the callback may unwatch itself, destroying the
      // map slot under its own feet.
      FdHandler handler = it->second;
      handler(events[i].events);
    }
    if (after_round_) after_round_();
    fire_due_timers();
    if (round_end_) round_end_();
  }
  loop_thread_.store(std::thread::id{}, std::memory_order_relaxed);
}

}  // namespace causalec::runtime
