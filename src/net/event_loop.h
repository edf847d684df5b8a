// Non-blocking epoll event loop: one OS thread multiplexing sockets,
// cross-thread posted tasks (eventfd wakeup), and monotonic timers.
//
// One EventLoop is one *shard* of a causalec_server daemon: it owns a
// SO_REUSEPORT listening socket, every connection the kernel load-balanced
// onto it, and the outbound peer links assigned to it. All fd callbacks,
// timers, and posted tasks run on the loop thread; post() is the loop's
// only cross-thread entry. Sends do not go through it: Connection writes
// from the sending thread under its own lock (net/connection.h), and posts
// only its closes and EPOLLOUT arms. Shard set-up (daemon and router) and
// peer-link start and shutdown are the other posters.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "net/socket.h"

namespace causalec::net {

class EventLoop {
 public:
  using FdHandler = std::function<void(std::uint32_t epoll_events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  void start();
  /// Signals the loop to exit and joins its thread. Idempotent. Pending
  /// watches are dropped; owners close their fds through their own
  /// destructors.
  void stop();

  /// Run `fn` on the loop thread (any thread may call; runs inline later,
  /// never synchronously). Tasks posted after stop() are discarded.
  void post(std::function<void()> fn);

  /// Loop thread only: watch `fd` for readability/writability. The handler
  /// is kept until unwatch(); it receives the raw epoll event mask.
  void watch(int fd, bool want_read, bool want_write, FdHandler handler);
  void update(int fd, bool want_read, bool want_write);
  void unwatch(int fd);

  /// Loop thread only: run `fn` once after `delta`.
  void schedule_after(std::chrono::nanoseconds delta,
                      std::function<void()> fn);

  bool on_loop_thread() const {
    return std::this_thread::get_id() == thread_.get_id();
  }

 private:
  void run();
  void drain_wakeup();
  int next_timeout_ms() const;

  struct Timer {
    std::chrono::steady_clock::time_point at;
    std::function<void()> fn;
  };

  ScopedFd epoll_;
  ScopedFd wakeup_;  // eventfd
  std::thread thread_;
  std::atomic<bool> stopping_{false};

  std::mutex post_mu_;
  std::deque<std::function<void()>> posted_;

  // Loop-thread-only state.
  std::map<int, FdHandler> handlers_;
  std::vector<Timer> timers_;
};

}  // namespace causalec::net
