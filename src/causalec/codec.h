// Binary serialization of the CausalEC protocol messages.
//
// The simulator moves message objects directly and uses wire_bytes() as the
// *cost model*; the threaded runtime (src/runtime) passes real bytes and
// uses this codec. Format: little-endian, length-prefixed:
//
//   message  := type:u8 wire:u64 body
//   app      := object:u32 value tag
//   del      := object:u32 origin:u32 forward:u8 tag
//   val_inq  := client:u64 opid:u64 object:u32 tagvec
//   val_resp := client:u64 opid:u64 object:u32 value tagvec
//   val_resp_encoded := client:u64 opid:u64 object:u32 symbol tagvec tagvec
//   value/symbol := len:u32 bytes
//   tag      := vc id:u64         vc := n:u32 entries:u64[n]
//   tagvec   := k:u32 tag[k]
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "causalec/messages.h"
#include "erasure/buffer.h"

namespace causalec {

/// Serializes any of the protocol messages (aborts on foreign types) into
/// one payload, returned with no copy out of the Writer: the arena also
/// holds the payload's length prefix, so a socket writer frames it without
/// a copy (net/frame.h). On a thread with a BufferPool installed (automaton
/// and shard threads) the arena is pool-recycled, so the steady-state send
/// path performs no malloc.
erasure::Buffer serialize_message_frame(const sim::Message& message);

/// Parses a payload produced by serialize_message_frame; aborts on
/// malformed input (the runtime owns both ends of the channel).
///
/// Zero-copy: the value/symbol payloads of the returned message alias the
/// frame's arena (erasure::Buffer slices), so deserializing performs no
/// payload copy and the frame stays alive as long as any payload does.
sim::MessagePtr deserialize_message(erasure::Buffer frame);

/// Copying convenience overload: wraps `buffer` in a fresh arena first.
sim::MessagePtr deserialize_message(std::span<const std::uint8_t> buffer);

/// Non-aborting decode for *untrusted* frames (bytes that arrived over a
/// real socket, where the peer may be buggy or hostile). Every length field
/// is bounds-checked against the bytes actually present before it drives
/// an allocation or a read, so a malformed frame -- truncated, oversized,
/// bad type byte, absurd element counts -- yields nullptr (with `error`
/// set when non-null) instead of corrupting or aborting the process.
/// Well-formed frames decode byte-identically to deserialize_message,
/// including the optional trace-context trailer and zero-copy payloads.
sim::MessagePtr try_deserialize_message(erasure::Buffer frame,
                                        std::string* error = nullptr);

}  // namespace causalec
