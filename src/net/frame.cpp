#include "net/frame.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <memory>

namespace causalec::net {

erasure::Buffer encode_frame(std::span<const std::uint8_t> payload) {
  erasure::Buffer out =
      erasure::Buffer::alloc_uninit(kFrameHeaderBytes + payload.size());
  std::uint8_t* p = out.mutable_data();
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  if (!payload.empty()) {
    std::memcpy(p + kFrameHeaderBytes, payload.data(), payload.size());
  }
  return out;
}

void FrameReader::feed(erasure::Buffer chunk) {
  if (failed() || chunk.empty()) return;
  chunks_.push_back(std::move(chunk));
}

std::size_t FrameReader::buffered_bytes() const {
  // Counts everything fed but not yet returned as a payload: unconsumed
  // chunk bytes plus whatever next() already drained into the header /
  // assembly staging (a partially received frame is still "buffered").
  std::size_t total = header_have_ + assembly_.size();
  for (const auto& c : chunks_) total += c.size();
  return total - front_pos_;
}

std::size_t FrameReader::drain_into(std::span<std::uint8_t> out) {
  std::size_t copied = 0;
  while (copied < out.size() && !chunks_.empty()) {
    const erasure::Buffer& front = chunks_.front();
    const std::size_t avail = front.size() - front_pos_;
    const std::size_t take = std::min(avail, out.size() - copied);
    std::memcpy(out.data() + copied, front.data() + front_pos_, take);
    copied += take;
    front_pos_ += take;
    if (front_pos_ == front.size()) {
      chunks_.pop_front();
      front_pos_ = 0;
    }
  }
  return copied;
}

std::optional<erasure::Buffer> FrameReader::next() {
  if (failed()) return std::nullopt;
  // Finish (or start) the length prefix. It is tiny, so copying it out of
  // the chunk queue is free; this is also what lets a prefix split across
  // two reads reassemble without special cases.
  if (header_have_ < kFrameHeaderBytes) {
    header_have_ += drain_into(
        std::span(header_ + header_have_, kFrameHeaderBytes - header_have_));
    if (header_have_ < kFrameHeaderBytes) return std::nullopt;
    body_len_ = 0;
    for (int i = 3; i >= 0; --i) {
      body_len_ = (body_len_ << 8) | header_[i];
    }
    if (body_len_ > kMaxFrameBytes) {
      fail("frame length exceeds kMaxFrameBytes");
      return std::nullopt;
    }
  }

  if (!assembling_) {
    // Fast path: the whole body sits inside the front chunk -- return a
    // zero-copy slice of its arena.
    if (!chunks_.empty() &&
        chunks_.front().size() - front_pos_ >= body_len_) {
      erasure::Buffer payload = chunks_.front().slice(front_pos_, body_len_);
      front_pos_ += body_len_;
      if (front_pos_ == chunks_.front().size()) {
        chunks_.pop_front();
        front_pos_ = 0;
      }
      header_have_ = 0;
      return payload;
    }
    // The body spans chunks (or has not fully arrived): fall back to the
    // one-copy assembly arena, sized exactly once.
    assembling_ = true;
    assembly_.clear();
    assembly_.reserve(body_len_);
  }

  // Append whatever is buffered to the assembly until the body is whole.
  while (assembly_.size() < body_len_) {
    const std::size_t want = body_len_ - assembly_.size();
    const std::size_t old = assembly_.size();
    assembly_.resize(old + want);
    const std::size_t got = drain_into(std::span(assembly_.data() + old, want));
    assembly_.resize(old + got);
    if (got == 0) return std::nullopt;  // need another feed()
  }
  assembling_ = false;
  header_have_ = 0;
  return erasure::Buffer::adopt(std::move(assembly_));
}

ssize_t recv_into(int fd, FrameReader& reader) {
  // Allocated on a thread's first read and never zero-filled: recv
  // overwrites what is copied out.
  thread_local const std::unique_ptr<std::uint8_t[]> scratch(
      new std::uint8_t[kReadChunkBytes]);
  ssize_t n = 0;
  do {
    n = ::recv(fd, scratch.get(), kReadChunkBytes, 0);
  } while (n < 0 && errno == EINTR);
  if (n > 0) {
    reader.feed(erasure::Buffer::copy_of(
        {scratch.get(), static_cast<std::size_t>(n)}));
  }
  return n;
}

}  // namespace causalec::net
