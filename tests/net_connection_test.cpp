// Connection's write backlog, driven directly over loopback TCP on one
// in-process EventLoop so TSan sees the loop thread and every sending and
// closing thread. Sends write through on the calling thread; only a full
// socket buffer queues frames for the loop's EPOLLOUT drain. A peer that
// has paused reading forces that path here.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "net/connection.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/socket.h"

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
    ScopedFd listener = listen_tcp("127.0.0.1", 0, /*reuseport=*/false);
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

  /// Reads frames off the peer until `limit` arrived, the connection hit
  /// EOF, or 10 s of silence; every frame must equal payload_for(its
  /// index). Returns how many arrived.
  std::size_t read_frames(std::size_t limit) {
    FrameReader reader;
    std::size_t received = 0;
    while (received < limit) {
      if (auto payload = reader.next()) {
        const std::vector<std::uint8_t> want = payload_for(received);
        EXPECT_EQ(payload->size(), want.size()) << "frame " << received;
        EXPECT_TRUE(payload->size() == want.size() &&
                    std::equal(want.begin(), want.end(), payload->data()))
            << "frame " << received << " differs";
        ++received;
        continue;
      }
      EXPECT_FALSE(reader.failed()) << reader.error();
      pollfd pfd{peer_.get(), POLLIN, 0};
      if (::poll(&pfd, 1, 10'000) != 1) {
        ADD_FAILURE() << "peer read timed out after " << received;
        break;
      }
      if (recv_into(peer_.get(), reader) <= 0) break;  // EOF: closed
    }
    return received;
  }

  /// Waits until every task posted so far has run on the loop.
  void sync_loop() {
    std::promise<void> done;
    loop_.post([&] { done.set_value(); });
    done.get_future().wait();
  }

  EventLoop loop_;
  ScopedFd peer_;
  std::shared_ptr<Connection> conn_;
  std::atomic<int> closes_{0};
};

TEST_F(ConnectionTest, BacklogDrainsInOrderOnEpollOut) {
  std::thread sender([this] {
    for (std::size_t i = 0; i < kFrames; ++i) {
      conn_->send(encode_frame(payload_for(i)));
    }
  });
  sender.join();
  // The peer has read nothing, so most of the 32 MiB is queued behind
  // the full socket buffer.
  EXPECT_GT(conn_->write_backlog(), kFrames * kFrameBytes / 2);

  EXPECT_EQ(read_frames(kFrames), kFrames);
  // Every byte arrived, so the drain emptied the queue, and the
  // connection carries on once the backlog is gone.
  EXPECT_EQ(conn_->write_backlog(), 0u);
  conn_->send(encode_frame(payload_for(0)));
  EXPECT_EQ(read_frames(1), 1u);
  EXPECT_EQ(conn_->write_backlog(), 0u);
  sync_loop();
  EXPECT_EQ(closes_.load(), 0);
}

TEST_F(ConnectionTest, CloseMidBacklogFiresTheHandlerOnce) {
  // The closing thread waits for a backlog far larger than the socket
  // buffers can take, so the queue is still non-empty when the posted
  // close runs, while the sender keeps queueing and, once the close is
  // requested, the peer reads and the loop drains.
  constexpr std::size_t kCloseAtBacklog = 8u << 20;
  std::atomic<bool> close_requested{false};
  std::thread sender([this] {
    for (std::size_t i = 0; i < kFrames; ++i) {
      conn_->send(encode_frame(payload_for(i)));
    }
  });
  std::thread closer([this, &close_requested] {
    while (conn_->write_backlog() < kCloseAtBacklog) std::this_thread::yield();
    conn_->close();
    close_requested.store(true);
  });
  while (!close_requested.load()) std::this_thread::yield();
  // The frames that got out before the close are a whole, ordered prefix;
  // then the stream ends instead of stalling.
  const std::size_t received = read_frames(kFrames);
  sender.join();
  closer.join();
  EXPECT_LT(received, kFrames);

  conn_->close();  // a second close is a no-op
  conn_->send(encode_frame(payload_for(0)));  // dropped: closed
  EXPECT_EQ(conn_->write_backlog(), 0u);
  sync_loop();
  EXPECT_EQ(closes_.load(), 1);
}

}  // namespace
}  // namespace causalec::net
