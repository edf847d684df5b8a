// Connection's write backlog, driven directly over loopback TCP on one
// in-process EventLoop. Every send and close runs in a task posted to the
// connection's loop, the one thread that may touch it. Sends write
// through; only a full socket buffer queues frames for the loop's EPOLLOUT
// drain. A peer that has paused reading forces that path here. Also: how
// soon a PeerLink's first link comes up once its peer starts listening.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "net/connection.h"
#include "net/frame.h"
#include "net/net_transport.h"
#include "net/process_cluster.h"
#include "net/socket.h"
#include "runtime/event_loop.h"

namespace causalec::net {
namespace {

constexpr std::size_t kFrames = 64;
constexpr std::size_t kFrameBytes = 512 * 1024;  // 32 MiB in all
constexpr int kSocketBufferBytes = 256 * 1024;   // the kernel doubles it

/// Frame i's payload: bytes derived from i, so a reordered, dropped or
/// corrupted frame cannot compare equal.
std::vector<std::uint8_t> payload_for(std::size_t i) {
  std::vector<std::uint8_t> bytes(kFrameBytes);
  for (std::size_t b = 0; b < bytes.size(); ++b) {
    bytes[b] = static_cast<std::uint8_t>(i * 131 + b * 7 + (b >> 12));
  }
  return bytes;
}

class ConnectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    loop_.start();
    ScopedFd listener = listen_tcp("127.0.0.1", 0);
    ASSERT_TRUE(listener.valid());
    peer_ = connect_tcp_blocking("127.0.0.1", local_port(listener.get()),
                                 2000);
    ASSERT_TRUE(peer_.valid());
    pollfd pfd{listener.get(), POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 2000), 1);
    ScopedFd accepted = accept_nonblocking(listener.get());
    ASSERT_TRUE(accepted.valid());
    // Fixed socket buffers stop autotuning: well under 2 MiB can be in
    // flight, so a sender facing a paused peer must meet EAGAIN.
    const int bytes = kSocketBufferBytes;
    ASSERT_EQ(::setsockopt(peer_.get(), SOL_SOCKET, SO_RCVBUF, &bytes,
                           sizeof(bytes)),
              0);
    ASSERT_EQ(::setsockopt(accepted.get(), SOL_SOCKET, SO_SNDBUF, &bytes,
                           sizeof(bytes)),
              0);
    conn_ = std::make_shared<Connection>(&loop_, std::move(accepted));
    std::promise<void> opened;
    loop_.post([&] {
      conn_->open([](const std::shared_ptr<Connection>&, erasure::Buffer) {},
                  [this](const std::shared_ptr<Connection>&) {
                    closes_.fetch_add(1);
                  });
      opened.set_value();
    });
    opened.get_future().wait();
  }

  void TearDown() override { loop_.stop(); }

  /// Runs `fn` on the loop thread and returns its result.
  template <typename Fn>
  auto on_loop(Fn fn) -> decltype(fn()) {
    std::packaged_task<decltype(fn())()> task(std::move(fn));
    auto result = task.get_future();
    loop_.post([&task] { task(); });
    return result.get();
  }

  /// Frame i for every i in [from, to), sent on the loop thread.
  void send_frames(std::size_t from, std::size_t to) {
    on_loop([this, from, to] {
      for (std::size_t i = from; i < to; ++i) {
        conn_->send(erasure::Buffer::adopt(payload_for(i)));
      }
    });
  }

  std::size_t backlog() {
    return on_loop([this] { return conn_->write_backlog(); });
  }

  /// Reads frames off the peer until `limit` arrived in all, the
  /// connection hit EOF, or 10 s of silence; every frame must equal
  /// payload_for(its index). Returns how many arrived in all.
  std::size_t read_frames(std::size_t limit) {
    while (received_ < limit) {
      if (auto payload = reader_.next()) {
        const std::vector<std::uint8_t> want = payload_for(received_);
        EXPECT_EQ(payload->size(), want.size()) << "frame " << received_;
        EXPECT_TRUE(payload->size() == want.size() &&
                    std::equal(want.begin(), want.end(), payload->data()))
            << "frame " << received_ << " differs";
        ++received_;
        continue;
      }
      EXPECT_FALSE(reader_.failed()) << reader_.error();
      pollfd pfd{peer_.get(), POLLIN, 0};
      if (::poll(&pfd, 1, 10'000) != 1) {
        ADD_FAILURE() << "peer read timed out after " << received_;
        break;
      }
      if (recv_into(peer_.get(), reader_) <= 0) break;  // EOF: closed
    }
    return received_;
  }

  runtime::EventLoop loop_;
  ScopedFd peer_;
  std::shared_ptr<Connection> conn_;
  std::atomic<int> closes_{0};
  FrameReader reader_;  // the peer's side of the stream
  std::size_t received_ = 0;
};

TEST_F(ConnectionTest, BacklogDrainsInOrderOnEpollOut) {
  send_frames(0, kFrames);
  // The peer has read nothing, so most of the 32 MiB is queued behind
  // the full socket buffer.
  EXPECT_GT(backlog(), kFrames * kFrameBytes / 2);

  EXPECT_EQ(read_frames(kFrames), kFrames);
  // Every byte arrived, so the drain emptied the queue, and the
  // connection carries on once the backlog is gone.
  EXPECT_EQ(backlog(), 0u);
  received_ = 0;
  send_frames(0, 1);
  EXPECT_EQ(read_frames(1), 1u);
  EXPECT_EQ(backlog(), 0u);
  EXPECT_EQ(closes_.load(), 0);
}

TEST_F(ConnectionTest, CloseMidBacklogFiresTheHandlerOnce) {
  // Half the frames queue far more than the socket buffers can take. The
  // peer then reads a few of them, so the loop drains on EPOLLOUT, while
  // the other half joins the queue; the close comes with the backlog
  // still non-empty.
  constexpr std::size_t kCloseAtBacklog = 8u << 20;
  send_frames(0, kFrames / 2);
  EXPECT_GT(backlog(), kCloseAtBacklog);
  EXPECT_EQ(read_frames(4), 4u);
  send_frames(kFrames / 2, kFrames);
  const std::size_t backlog_at_close = on_loop([this] {
    const std::size_t queued = conn_->write_backlog();
    conn_->close();
    return queued;
  });
  EXPECT_GT(backlog_at_close, kCloseAtBacklog);
  // The frames that got out before the close are a whole, ordered prefix;
  // then the stream ends instead of stalling.
  EXPECT_LT(read_frames(kFrames), kFrames);

  on_loop([this] {
    conn_->close();  // a second close is a no-op
    conn_->send(erasure::Buffer::adopt(payload_for(0)));  // dropped: closed
  });
  EXPECT_EQ(backlog(), 0u);
  EXPECT_EQ(closes_.load(), 1);
}

// Cluster start-up: a daemon may dial a peer that has not begun listening.
// The peer's port is bound at once but listens only 20 ms after the first
// dial, so that dial is refused; the link must report itself up within
// 50 ms of the listen, not a flat 100 ms redial later.
TEST(PeerLinkTest, FirstLinkComesUpSoonAfterThePeerListens) {
  using Clock = std::chrono::steady_clock;
  ScopedFd peer(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  ASSERT_TRUE(peer.valid());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(peer.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  const std::uint16_t port = local_port(peer.get());

  runtime::EventLoop loop;
  loop.start();
  std::promise<Clock::time_point> up;
  std::atomic<bool> reported{false};
  PeerLink link(&loop, /*peer=*/1, "127.0.0.1", port, Hello{},
                [&](NodeId, bool down) {
                  if (!down && !reported.exchange(true)) {
                    up.set_value(Clock::now());
                  }
                });
  link.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(::listen(peer.get(), 16), 0);
  const Clock::time_point listening = Clock::now();

  std::future<Clock::time_point> came_up = up.get_future();
  ASSERT_EQ(came_up.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_LT(came_up.get() - listening, std::chrono::milliseconds(50));
  // The link belongs to its loop: it is shut down there.
  std::promise<void> shut;
  loop.post([&] {
    link.shutdown();
    shut.set_value();
  });
  shut.get_future().wait();
  loop.stop();
}

// A reserved port stays held after reserve_loopback_ports returns, so a
// test running beside this one under `ctest -j` cannot be handed it: a
// bind without SO_REUSEPORT fails, with or without SO_REUSEADDR, while a
// daemon's listener (listen_tcp sets SO_REUSEPORT) still binds it.
TEST(PortReservationTest, HeldPortRefusesABindWithoutReusePort) {
  const std::vector<std::uint16_t> ports = reserve_loopback_ports(2);
  ASSERT_EQ(ports.size(), 2u);
  EXPECT_NE(ports[0], ports[1]);
  for (const std::uint16_t port : ports) {
    for (const bool reuseaddr : {false, true}) {
      ScopedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
      ASSERT_TRUE(fd.valid());
      const int one = 1;
      if (reuseaddr) {
        ASSERT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                               sizeof(one)),
                  0);
      }
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      const int rc = ::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr));
      const int err = errno;
      EXPECT_NE(rc, 0) << "port " << port << " reuseaddr=" << reuseaddr;
      EXPECT_EQ(err, EADDRINUSE);
    }
    EXPECT_TRUE(listen_tcp("127.0.0.1", port).valid()) << "port " << port;
  }
}

}  // namespace
}  // namespace causalec::net
