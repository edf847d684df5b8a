// Length-prefixed framing over the existing binary wire format.
//
// On a TCP stream every frame is `len:u32 (little-endian)` followed by
// `len` payload bytes. Encoders produce payloads; only the socket writers
// (Connection, NetClient) add the prefix, through framed(). The payload's
// first byte disambiguates the two traffic classes that share a
// connection:
//   * bytes 1..9:  a CausalEC protocol frame (causalec/codec.h) -- the
//     exact bytes serialize_message_frame produces, decoded with
//     try_deserialize_message because the peer is untrusted;
//   * bytes >= 64: a client/control message (net/client_proto.h).
//
// FrameReader turns an arbitrary sequence of read() chunks back into
// payload frames with zero-copy reassembly: a frame that lands entirely
// inside one chunk's arena is returned as a Buffer slice of that arena (no
// copy -- the refcount keeps the arena alive while the decoded message's
// payload views do); only a frame that spans chunks is assembled, exactly
// once, into an exact-size arena. recv_into() makes those chunks: each
// socket read lands in a per-thread scratch buffer and is copied once into
// an arena of the read's size, so a slice pins only that read, not a
// fixed-size read buffer. The codec's zero-copy decode then slices
// whichever arena the frame ended up in, so a completed in-arena frame
// flows from the read arena to HistoryList without another payload copy.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>

#include "erasure/buffer.h"

namespace causalec::net {

/// Upper bound on one frame's payload. A hostile or corrupted length
/// prefix beyond this latches the reader into an error state (the
/// connection must be dropped) instead of driving a giant allocation.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;

/// Frame header size: the u32 length prefix.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// The bytes a socket writer sends for one payload: its u32 length, then
/// the payload. Connection and NetClient are the only callers; everything
/// else hands them payloads. When the four arena bytes in front of the
/// payload already hold its length -- every wire::Writer payload (see
/// Writer::take_frame) and every in-arena FrameReader slice -- the result
/// is the payload widened over them, with no copy. Any other payload is
/// copied once into a fresh arena behind a new prefix.
erasure::Buffer framed(erasure::Buffer payload);

/// Largest single socket read: big enough that the common protocol frame
/// (4 KiB value + tags) lands in one read and is delivered zero-copy.
inline constexpr std::size_t kReadChunkBytes = std::size_t{64} << 10;

class FrameReader {
 public:
  /// Hand the reader the next chunk of stream bytes. The chunk is consumed
  /// incrementally as next() is called; completed frames inside it alias
  /// its arena.
  void feed(erasure::Buffer chunk);

  /// Convenience for tests: wraps raw bytes in a fresh arena.
  void feed_copy(std::span<const std::uint8_t> bytes) {
    feed(erasure::Buffer::copy_of(bytes));
  }

  /// The next complete payload frame, or nullopt when more bytes are
  /// needed (or the reader has failed).
  std::optional<erasure::Buffer> next();

  bool failed() const { return !error_.empty(); }
  const std::string& error() const { return error_; }

  /// Bytes buffered but not yet returned as frames (diagnostics/tests).
  std::size_t buffered_bytes() const;

 private:
  void fail(const char* what) {
    if (error_.empty()) error_ = what;
  }
  /// Pops up to `out.size()` bytes off the chunk queue into `out`;
  /// returns the number copied.
  std::size_t drain_into(std::span<std::uint8_t> out);

  std::deque<erasure::Buffer> chunks_;  // unconsumed stream suffix
  std::size_t front_pos_ = 0;           // consumed prefix of chunks_[0]

  // Current frame in progress. header_have_ < kFrameHeaderBytes means the
  // length prefix itself is still arriving; afterwards body_len_ is known.
  std::uint8_t header_[kFrameHeaderBytes] = {};
  std::size_t header_have_ = 0;
  std::size_t body_len_ = 0;
  // Spanning-frame assembly: exact-size arena being filled (empty when the
  // current frame has not needed assembly).
  std::vector<std::uint8_t> assembly_;
  bool assembling_ = false;

  std::string error_;
};

/// One recv(2) of up to kReadChunkBytes from `fd` into this thread's
/// scratch buffer. The bytes read are copied into an arena of exactly
/// their size (recycled through the thread's BufferPool when one is
/// installed) and fed to `reader`. Returns recv's result; EINTR is
/// retried.
ssize_t recv_into(int fd, FrameReader& reader);

}  // namespace causalec::net
