// Low-level wire primitives shared by the message codec (codec.cpp), the
// client protocol (net/client_proto.cpp) and the durable formats
// (persist/journal.cpp, persist/snapshot.cpp).
//
// Writer is the little-endian, length-prefixed encoder the codec has always
// used, and the one producer of bytes that leave a process: protocol and
// client frames, WAL records and snapshots. Its arena starts with room for
// the frame's u32 length prefix, which take_frame() fills in, so the socket
// writers send a payload without copying it (net/frame.h). SafeReader is
// its decoding counterpart for *untrusted* input (frames off a socket, and
// durable files that may be truncated or corrupted): instead of
// CHECK-aborting like the codec's internal reader, it latches an error and
// degrades every subsequent accessor to a zero value, so callers validate
// once at the end and never touch out-of-bounds memory.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "causalec/tag.h"
#include "erasure/buffer.h"
#include "erasure/value.h"
#include "obs/trace_context.h"

namespace causalec::wire {

/// Serialized trace-context trailer size: two u64s (trace id, span id).
/// The trailer is appended to a frame only when the message is traced, so
/// untraced frames are byte-identical to the pre-trailer format.
inline constexpr std::size_t kTraceContextBytes = 16;

class Writer {
 public:
  /// Bytes reserved at the front of every arena for the frame's length
  /// prefix (net/frame.h), filled in by take_frame().
  static constexpr std::size_t kPrefixBytes = 4;

  /// Pre-sizes the arena; callers pass the payload bytes they expect so
  /// the common messages serialize with a single allocation. The arena is
  /// an erasure::Buffer, so on a thread with a BufferPool installed
  /// (automaton and shard threads) serialization recycles arenas instead
  /// of malloc'ing, and take_frame() hands the result off with zero copies.
  explicit Writer(std::size_t reserve_hint = 0)
      : buf_(erasure::Buffer::alloc_uninit(
            kPrefixBytes +
            (reserve_hint < kMinCapacity ? kMinCapacity : reserve_hint))) {}

  void u8(std::uint8_t v) {
    ensure(1);
    data()[len_++] = v;
  }
  void u32(std::uint32_t v) {
    ensure(4);
    put_le(data() + len_, v, 4);
    len_ += 4;
  }
  void u64(std::uint64_t v) {
    ensure(8);
    put_le(data() + len_, v, 8);
    len_ += 8;
  }
  /// The bytes as they are, with no length field in front.
  void raw(std::span<const std::uint8_t> bytes) {
    ensure(bytes.size());
    if (!bytes.empty()) {
      std::memcpy(data() + len_, bytes.data(), bytes.size());
      len_ += bytes.size();
    }
  }
  void bytes(std::span<const std::uint8_t> payload) {
    u32(static_cast<std::uint32_t>(payload.size()));
    raw(payload);
  }
  void clock(const VectorClock& vc) {
    u32(static_cast<std::uint32_t>(vc.size()));
    for (std::size_t i = 0; i < vc.size(); ++i) u64(vc[i]);
  }
  void tag(const Tag& t) {
    clock(t.ts);
    u64(t.id);
  }
  void tagvec(const TagVector& tv) {
    u32(static_cast<std::uint32_t>(tv.size()));
    for (const Tag& t : tv) tag(t);
  }
  void trace_context(const obs::TraceContext& ctx) {
    u64(ctx.trace_id);
    u64(ctx.span_id);
  }
  /// Overwrites the u64 at payload offset `at`, for a length field written
  /// before the bytes it counts.
  void patch_u64(std::size_t at, std::uint64_t v) {
    put_le(data() + kPrefixBytes + at, v, 8);
  }
  /// Payload bytes written so far.
  std::size_t size() const { return len_ - kPrefixBytes; }
  /// The payload written so far (valid until the next write).
  std::span<const std::uint8_t> written() const {
    return {buf_.data() + kPrefixBytes, size()};
  }
  /// The payload as a Buffer sharing the (pooled) arena -- zero-copy. Its
  /// length goes into the reserved prefix in front of it, so a socket
  /// writer frames it without a copy. The Writer must not be written to
  /// afterwards.
  erasure::Buffer take_frame() {
    put_le(data(), size(), kPrefixBytes);
    return buf_.slice(kPrefixBytes, size());
  }

 private:
  static constexpr std::size_t kMinCapacity = 64;

  static void put_le(std::uint8_t* out, std::uint64_t v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  std::uint8_t* data() { return buf_.mutable_data(); }

  void ensure(std::size_t extra) {
    if (len_ + extra <= buf_.size()) return;
    std::size_t cap = buf_.size() * 2;
    while (cap < len_ + extra) cap *= 2;
    erasure::Buffer bigger = erasure::Buffer::alloc_uninit(cap);
    std::memcpy(bigger.mutable_data(), buf_.data(), len_);
    buf_ = std::move(bigger);
  }

  erasure::Buffer buf_;
  std::size_t len_ = kPrefixBytes;
};

/// Error-latching reader over a zero-copy frame. Collection accessors take
/// an element cap so a corrupted length field can never drive a huge
/// allocation before the bounds check catches it.
class SafeReader {
 public:
  explicit SafeReader(erasure::Buffer frame)
      : frame_(std::move(frame)), buf_(frame_.span()) {}

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return buf_[pos_++];
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
    }
    return v;
  }
  /// Zero-copy: the next `len` bytes as a slice of the frame's arena, with
  /// no length field in front (Writer::raw's counterpart).
  erasure::Buffer raw(std::size_t len) {
    if (!need(len)) return erasure::Buffer();
    erasure::Buffer out = frame_.slice(pos_, len);
    pos_ += len;
    return out;
  }
  /// Zero-copy: a Value aliasing the frame's arena at the current cursor.
  erasure::Value bytes(std::size_t max_len) {
    const std::uint32_t len = u32();
    if (len > max_len) fail("length field exceeds cap");
    return erasure::Value(raw(len));
  }
  VectorClock clock(std::size_t max_entries) {
    const std::uint32_t n = u32();
    if (n > max_entries) {
      fail("vector clock size exceeds cap");
      return VectorClock();
    }
    if (!need(8 * static_cast<std::size_t>(n))) return VectorClock();
    VectorClock vc(n);
    for (std::uint32_t i = 0; i < n; ++i) vc.set(i, u64());
    return vc;
  }
  Tag tag(std::size_t max_entries) {
    VectorClock vc = clock(max_entries);
    const std::uint64_t id = u64();
    return Tag(std::move(vc), id);
  }
  TagVector tagvec(std::size_t max_tags, std::size_t max_entries) {
    const std::uint32_t k = u32();
    if (k > max_tags) {
      fail("tag vector size exceeds cap");
      return TagVector();
    }
    TagVector out;
    out.reserve(k);
    for (std::uint32_t i = 0; i < k && ok(); ++i) out.push_back(tag(max_entries));
    return out;
  }

  /// Decodes the optional trailer: consumes it when exactly
  /// kTraceContextBytes remain, otherwise returns the default "not traced"
  /// context (old frames, untraced sends).
  obs::TraceContext trace_context() {
    obs::TraceContext ctx;
    if (remaining() == kTraceContextBytes) {
      ctx.trace_id = u64();
      ctx.span_id = u64();
    }
    return ctx;
  }

  bool ok() const { return error_.empty(); }
  bool done() const { return ok() && pos_ == buf_.size(); }
  std::size_t remaining() const { return ok() ? buf_.size() - pos_ : 0; }
  /// The unread bytes, without consuming them (empty once failed).
  std::span<const std::uint8_t> rest() const {
    return buf_.subspan(pos_, remaining());
  }
  const std::string& error() const { return error_; }

  void fail(const char* what) {
    if (error_.empty()) error_ = what;
  }

 private:
  bool need(std::size_t n) {
    if (!ok()) return false;
    if (pos_ + n > buf_.size()) {
      fail("truncated input");
      return false;
    }
    return true;
  }

  erasure::Buffer frame_;
  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace causalec::wire
