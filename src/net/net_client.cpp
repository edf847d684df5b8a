#include "net/net_client.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <utility>

namespace causalec::net {

bool NetClient::connect(const std::string& host_port, int timeout_ms) {
  erasure::BufferPool::ScopedInstall pooled(pool_);
  const auto addr = parse_host_port(host_port);
  if (!addr.has_value()) return false;
  fd_ = connect_tcp_blocking(addr->first, addr->second, timeout_ms);
  if (!fd_.valid()) return false;
  return send_payload(encode_hello(Hello{PeerRole::kClient, 0}));
}

void NetClient::advance_frontier(const VectorClock& vc) {
  if (vc.size() == 0) return;
  if (frontier_.size() == 0) {
    frontier_ = vc;
    return;
  }
  if (frontier_.size() != vc.size()) return;  // cluster-shape confusion
  frontier_.merge(vc);
}

std::optional<WriteResp> NetClient::write(OpId opid, ObjectId object,
                                          erasure::Value value) {
  erasure::BufferPool::ScopedInstall pooled(pool_);
  WriteReq req;
  req.opid = opid;
  req.client = client_;
  req.object = object;
  req.frontier = frontier_;
  req.value = std::move(value);
  auto resp = call(encode_write_req(req), decode_write_resp,
                   [opid](const WriteResp& r) { return r.opid == opid; });
  if (resp.has_value()) advance_frontier(resp->vc);
  return resp;
}

std::optional<ReadResp> NetClient::read(OpId opid, ObjectId object) {
  erasure::BufferPool::ScopedInstall pooled(pool_);
  ReadReq req;
  req.opid = opid;
  req.client = client_;
  req.object = object;
  req.frontier = frontier_;
  auto resp = call(encode_read_req(req), decode_read_resp,
                   [opid](const ReadResp& r) { return r.opid == opid; });
  if (resp.has_value()) advance_frontier(resp->vc);
  return resp;
}

std::optional<Pong> NetClient::ping(std::uint64_t token) {
  erasure::BufferPool::ScopedInstall pooled(pool_);
  return call(encode_ping(Ping{token}), decode_pong,
              [token](const Pong& r) { return r.token == token; });
}

std::optional<StatsResp> NetClient::stats() {
  erasure::BufferPool::ScopedInstall pooled(pool_);
  return call(encode_stats_req(), decode_stats_resp,
              [](const StatsResp&) { return true; });
}

std::optional<RouterStatsResp> NetClient::router_stats() {
  erasure::BufferPool::ScopedInstall pooled(pool_);
  return call(encode_router_stats_req(), decode_router_stats_resp,
              [](const RouterStatsResp&) { return true; });
}

template <typename Resp, typename Match>
std::optional<Resp> NetClient::call(
    erasure::Buffer request, std::optional<Resp> (*decode)(erasure::Buffer),
    Match match) {
  if (!send_payload(std::move(request))) return std::nullopt;
  auto frame = next_frame();
  if (!frame.has_value()) return std::nullopt;
  auto resp = decode(std::move(*frame));
  if (!resp.has_value() || !match(*resp)) {
    fail();
    return std::nullopt;
  }
  return resp;
}

bool NetClient::send_payload(erasure::Buffer payload) {
  if (!fd_.valid()) return false;
  const erasure::Buffer frame = framed(std::move(payload));
  std::size_t written = 0;
  while (written < frame.size()) {
    const auto n = ::send(fd_.get(), frame.data() + written,
                          frame.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail();
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<erasure::Buffer> NetClient::next_frame() {
  while (fd_.valid()) {
    if (auto payload = reader_.next(); payload.has_value()) {
      return payload;
    }
    if (reader_.failed()) {
      fail();
      return std::nullopt;
    }
    pollfd pfd{fd_.get(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, io_timeout_ms_);
    if (ready <= 0) {
      if (ready < 0 && errno == EINTR) continue;
      fail();  // timeout or poll error
      return std::nullopt;
    }
    if (recv_into(fd_.get(), reader_) <= 0) {
      fail();  // peer closed or error
      return std::nullopt;
    }
  }
  return std::nullopt;
}

void NetClient::fail() { fd_.reset(); }

}  // namespace causalec::net
