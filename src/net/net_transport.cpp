#include "net/net_transport.h"

#include <sys/epoll.h>

#include <algorithm>
#include <chrono>

#include "common/expect.h"
#include "common/logging.h"

namespace causalec::net {

namespace {

// Redial delay once a link has been up: a peer that accepts and then drops
// the link cannot make the loop redial hot.
constexpr auto kReconnectDelay = std::chrono::milliseconds(100);
// Until the first establishment the peer is most likely still binding its
// listener at cluster start-up, so the delay starts here and doubles up to
// kReconnectDelay.
constexpr auto kFirstRedialDelay = std::chrono::milliseconds(1);

}  // namespace

PeerLink::PeerLink(runtime::EventLoop* loop, NodeId peer, std::string host,
                   std::uint16_t port, Hello hello,
                   std::function<void(NodeId, bool)> on_liveness,
                   Connection::FrameHandler on_frame)
    : loop_(loop),
      peer_(peer),
      host_(std::move(host)),
      port_(port),
      hello_(hello),
      on_liveness_(std::move(on_liveness)),
      on_frame_(std::move(on_frame)),
      startup_redial_delay_(kFirstRedialDelay) {}

void PeerLink::start() {
  loop_->post([this] { dial(); });
}

void PeerLink::shutdown() {
  shutdown_ = true;
  pending_.clear();
  if (connecting_.valid()) {
    loop_->unwatch(connecting_.get());
    connecting_.reset();
  }
  // Cleared first, so the close reports no loss.
  if (std::shared_ptr<Connection> conn = std::move(conn_)) conn->close();
}

void PeerLink::send(erasure::Buffer payload) {
  if (shutdown_) return;
  if (conn_ != nullptr) {
    conn_->send(std::move(payload));
    return;
  }
  if (ever_established_) return;  // crash semantics: the payload is lost
  // Start-up grace: queue until the first establishment.
  if (pending_.size() >= kMaxPendingFrames) pending_.pop_front();
  pending_.push_back(std::move(payload));
}

void PeerLink::dial() {
  if (shutdown_ || connecting_.valid() || conn_ != nullptr) return;
  connecting_ = connect_tcp_nonblocking(host_, port_);
  if (!connecting_.valid()) {
    retry_later();
    return;
  }
  loop_->watch(connecting_.get(), /*want_read=*/false, /*want_write=*/true,
               [this](std::uint32_t events) { on_connect_ready(events); });
}

void PeerLink::on_connect_ready(std::uint32_t events) {
  loop_->unwatch(connecting_.get());
  ScopedFd fd = std::move(connecting_);
  if ((events & (EPOLLERR | EPOLLHUP)) != 0 ||
      take_socket_error(fd.get()) != 0) {
    retry_later();
    return;
  }
  conn_ = std::make_shared<Connection>(loop_, std::move(fd));
  conn_->open(
      [this](const std::shared_ptr<Connection>& c, erasure::Buffer payload) {
        if (on_frame_) on_frame_(c, std::move(payload));
      },
      [this](const std::shared_ptr<Connection>& dead) { on_lost(dead); });
  // Identify ourselves: a daemon's frames are attributed to the node its
  // Hello names (the codec's frames carry no sender field; the channel
  // does). The queued payloads follow it, ahead of any later send.
  conn_->send(encode_hello(hello_));
  for (auto& payload : pending_) conn_->send(std::move(payload));
  pending_.clear();
  ever_established_ = true;
  on_liveness_(peer_, /*down=*/false);
}

void PeerLink::on_lost(const std::shared_ptr<Connection>& dead) {
  // A shut-down link already dropped its connection.
  if (conn_ != dead) return;
  conn_ = nullptr;
  on_liveness_(peer_, /*down=*/true);
  retry_later();
}

void PeerLink::retry_later() {
  if (shutdown_) return;
  std::chrono::milliseconds delay = kReconnectDelay;
  if (!ever_established_) {
    delay = startup_redial_delay_;
    startup_redial_delay_ = std::min(2 * delay, kReconnectDelay);
  }
  loop_->schedule_after(delay, [this] { dial(); });
}

}  // namespace causalec::net
