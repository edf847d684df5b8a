#include "net/front_end.h"

#include <string>
#include <utility>

#include "common/expect.h"
#include "common/logging.h"

namespace causalec::net {

FrontEnd::FrontEnd(std::string name, std::size_t shards,
                   FrameHandler on_frame, HelloCheck accept_hello)
    : name_(std::move(name)),
      on_frame_(std::move(on_frame)),
      accept_hello_(std::move(accept_hello)) {
  CEC_CHECK(shards >= 1);
  for (std::size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->loop = std::make_unique<runtime::EventLoop>();
    shards_.push_back(std::move(shard));
  }
}

FrontEnd::~FrontEnd() { stop(); }

void FrontEnd::listen(const std::string& host, std::uint16_t port) {
  // Every listener sets SO_REUSEPORT (listen_tcp does), so the kernel
  // spreads accepted connections across the shards.
  shards_[0]->listener = listen_tcp(host, port);
  CEC_CHECK_MSG(shards_[0]->listener.valid(),
                name_ << ": cannot listen on " << host << ":" << port);
  port_ = local_port(shards_[0]->listener.get());
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    shards_[i]->listener = listen_tcp(host, port_);
    CEC_CHECK_MSG(shards_[i]->listener.valid(),
                  name_ << ": cannot bind shard " << i
                        << " listener on port " << port_);
  }
}

void FrontEnd::start(runtime::EventLoop* serve_on) {
  serve_on_ = serve_on;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard* s = shards_[i].get();
    s->loop->start([this, s, i] {
      std::string thread = name_;
      thread += "-shard";
      thread += std::to_string(i);
      runtime::set_thread_name(thread);
      // Installed once; the loop thread's TLS reference keeps the core
      // alive until join.
      s->pool.install();
      s->loop->watch(s->listener.get(), /*want_read=*/true,
                     /*want_write=*/false,
                     [this, i](std::uint32_t) { accept_ready(i); });
    });
  }
}

void FrontEnd::stop() {
  set_ready(false);
  for (auto& shard : shards_) shard->loop->stop();
}

void FrontEnd::accept_ready(std::size_t shard) {
  Shard& s = *shards_[shard];
  runtime::EventLoop* serving =
      serve_on_ != nullptr ? serve_on_ : s.loop.get();
  while (true) {
    ScopedFd fd = accept_nonblocking(s.listener.get());
    if (!fd.valid()) return;
    // From here on only the serving loop touches the connection; a post
    // dropped by a stopped loop closes the fd with it.
    auto conn = std::make_shared<Connection>(serving, std::move(fd));
    serving->post([this, conn, shard] { open(conn, shard); });
  }
}

void FrontEnd::open(const std::shared_ptr<Connection>& conn,
                    std::size_t shard) {
  Inbound in;
  in.peer.shard = shard;
  conn->open(
      [this, in](const std::shared_ptr<Connection>& c,
                 erasure::Buffer payload) mutable {
        handle_frame(in, c, std::move(payload));
      },
      [](const std::shared_ptr<Connection>&) {});
}

void FrontEnd::handle_frame(Inbound& in,
                            const std::shared_ptr<Connection>& conn,
                            erasure::Buffer payload) {
  const std::optional<std::uint8_t> type = peek_type(payload);
  if (!type.has_value()) {
    conn->close();
    return;
  }
  if (!in.helloed) {
    const std::optional<Hello> hello = decode_hello(std::move(payload));
    if (!hello.has_value()) {
      CEC_LOG(kWarn) << name_ << ": closing connection with malformed hello";
      conn->close();
      return;
    }
    if (accept_hello_ && !accept_hello_(*hello)) {
      CEC_LOG(kWarn) << name_ << ": closing connection whose hello claims "
                     << "role " << static_cast<int>(hello->role) << " node "
                     << hello->node;
      conn->close();
      return;
    }
    in.helloed = true;
    in.peer.role = hello->role;
    in.peer.node = hello->node;
    return;
  }
  if (in.peer.role == PeerRole::kClient &&
      *type == static_cast<std::uint8_t>(ClientMsgType::kPing)) {
    const std::optional<Ping> ping = decode_ping(std::move(payload));
    if (ping.has_value()) {
      conn->send(encode_pong(Pong{ping->token, ready()}));
      return;
    }
  } else if (on_frame_(in.peer, conn, std::move(payload))) {
    return;
  }
  CEC_LOG(kWarn) << name_ << ": closing connection after malformed frame "
                 << "(type " << static_cast<int>(*type) << ")";
  conn->close();
}

}  // namespace causalec::net
