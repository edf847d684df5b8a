#include "net/net_transport.h"

#include <sys/epoll.h>

#include <chrono>

#include "common/expect.h"
#include "common/logging.h"
#include "net/client_proto.h"
#include "net/frame.h"

namespace causalec::net {

namespace {

constexpr auto kReconnectDelay = std::chrono::milliseconds(100);

}  // namespace

PeerLink::PeerLink(EventLoop* loop, NodeId self, NodeId peer,
                   std::string host, std::uint16_t port,
                   std::function<void(NodeId, bool)> on_liveness)
    : loop_(loop),
      self_(self),
      peer_(peer),
      host_(std::move(host)),
      port_(port),
      on_liveness_(std::move(on_liveness)) {}

void PeerLink::start() {
  loop_->post([this] { dial(); });
}

void PeerLink::shutdown() {
  std::shared_ptr<Connection> conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    conn.swap(conn_);
    pending_.clear();
  }
  if (conn != nullptr) conn->close();
  loop_->post([this] {
    if (connecting_.valid()) {
      loop_->unwatch(connecting_.get());
      connecting_.reset();
    }
  });
}

void PeerLink::send_frame(erasure::Buffer frame) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;
  if (conn_ != nullptr) {
    conn_->send(std::move(frame));
    return;
  }
  if (ever_established_) return;  // crash semantics: the frame is lost
  // Start-up grace: queue until the first establishment.
  if (pending_.size() >= kMaxPendingFrames) pending_.pop_front();
  pending_.push_back(std::move(frame));
}

bool PeerLink::is_shut_down() {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

void PeerLink::dial() {
  if (connecting_.valid()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_ || conn_ != nullptr) return;
  }
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
  if (is_shut_down()) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0 ||
      take_socket_error(fd.get()) != 0) {
    retry_later();
    return;
  }
  auto conn = std::make_shared<Connection>(loop_, std::move(fd));
  conn->open(
      // Outbound protocol links are send-only; anything the peer writes
      // back on one is a protocol violation we simply ignore.
      [](const std::shared_ptr<Connection>&, erasure::Buffer) {},
      [this](const std::shared_ptr<Connection>& dead) { on_lost(dead); });
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!shutdown_) {
      // Identify ourselves so the acceptor attributes our frames to node
      // self_ (the codec's frames carry no sender field; the channel
      // does).
      Hello hello;
      hello.role = PeerRole::kServer;
      hello.node = self_;
      conn->send(encode_frame(encode_hello(hello)));
      for (auto& frame : pending_) conn->send(std::move(frame));
      pending_.clear();
      ever_established_ = true;
      conn_ = std::move(conn);
    }
  }
  if (conn != nullptr) {  // shut down while connecting
    conn->close();
    return;
  }
  if (down_reported_) {
    down_reported_ = false;
    on_liveness_(peer_, /*down=*/false);
  }
}

void PeerLink::on_lost(const std::shared_ptr<Connection>& dead) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A shut-down link already dropped its connection.
    if (conn_ != dead) return;
    conn_ = nullptr;
  }
  if (!down_reported_) {
    down_reported_ = true;
    on_liveness_(peer_, /*down=*/true);
  }
  retry_later();
}

void PeerLink::retry_later() {
  if (is_shut_down()) return;
  loop_->schedule_after(kReconnectDelay, [this] { dial(); });
}

NetTransport::NetTransport(std::vector<PeerLink*> links,
                           runtime::AutomatonLoop* loop)
    : links_(std::move(links)), loop_(loop) {}

void NetTransport::send(NodeId to, sim::MessagePtr message) {
  send_frame(to, encode_frame(loop_->serialize(*message).span()));
}

void NetTransport::multicast(std::span<const NodeId> targets,
                             const std::function<sim::MessagePtr()>& make) {
  if (targets.empty()) return;
  // Serialize once; every destination link sends the same frame arena.
  const sim::MessagePtr message = make();
  const erasure::Buffer frame =
      encode_frame(loop_->serialize(*message).span());
  for (NodeId to : targets) send_frame(to, frame);
}

void NetTransport::hold() { holding_ = true; }

void NetTransport::release_held() {
  holding_ = false;
  for (auto& [link, frame] : held_) link->send_frame(std::move(frame));
  held_.clear();
}

void NetTransport::send_frame(NodeId to, erasure::Buffer frame) {
  CEC_CHECK(to < links_.size() && links_[to] != nullptr);
  if (holding_) {
    held_.emplace_back(links_[to], std::move(frame));
  } else {
    links_[to]->send_frame(std::move(frame));
  }
}

void NetTransport::schedule_after(SimTime delta, std::function<void()> fn) {
  loop_->schedule_after(delta, std::move(fn));
}

SimTime NetTransport::now() const { return runtime::AutomatonLoop::now(); }

}  // namespace causalec::net
