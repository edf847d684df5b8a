#include "net/net_client.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <vector>

namespace causalec::net {

bool NetClient::connect(const std::string& host_port, int timeout_ms) {
  const auto addr = parse_host_port(host_port);
  if (!addr.has_value()) return false;
  fd_ = connect_tcp_blocking(addr->first, addr->second, timeout_ms);
  if (!fd_.valid()) return false;
  Hello hello;
  hello.role = PeerRole::kClient;
  hello.node = 0;
  if (!send_payload(encode_hello(hello))) return false;
  return true;
}

std::optional<WriteResp> NetClient::write(OpId opid, ObjectId object,
                                          erasure::Value value) {
  WriteReq req;
  req.opid = opid;
  req.client = client_;
  req.object = object;
  req.value = std::move(value);
  if (!send_payload(encode_write_req(req))) return std::nullopt;
  auto frame = next_frame();
  if (!frame.has_value()) return std::nullopt;
  auto resp = decode_write_resp(std::move(*frame));
  if (!resp.has_value() || resp->opid != opid) {
    fail();
    return std::nullopt;
  }
  return resp;
}

std::optional<ReadResp> NetClient::read(OpId opid, ObjectId object) {
  ReadReq req;
  req.opid = opid;
  req.client = client_;
  req.object = object;
  if (!send_payload(encode_read_req(req))) return std::nullopt;
  auto frame = next_frame();
  if (!frame.has_value()) return std::nullopt;
  auto resp = decode_read_resp(std::move(*frame));
  if (!resp.has_value() || resp->opid != opid) {
    fail();
    return std::nullopt;
  }
  return resp;
}

std::optional<Pong> NetClient::ping(std::uint64_t token) {
  if (!send_payload(encode_ping(Ping{token}))) return std::nullopt;
  auto frame = next_frame();
  if (!frame.has_value()) return std::nullopt;
  auto resp = decode_pong(std::move(*frame));
  if (!resp.has_value() || resp->token != token) {
    fail();
    return std::nullopt;
  }
  return resp;
}

std::optional<StatsResp> NetClient::stats() {
  if (!send_payload(encode_stats_req())) return std::nullopt;
  auto frame = next_frame();
  if (!frame.has_value()) return std::nullopt;
  auto resp = decode_stats_resp(std::move(*frame));
  if (!resp.has_value()) {
    fail();
    return std::nullopt;
  }
  return resp;
}

bool NetClient::send_payload(const std::vector<std::uint8_t>& payload) {
  if (!fd_.valid()) return false;
  const erasure::Buffer frame = encode_frame(payload);
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
