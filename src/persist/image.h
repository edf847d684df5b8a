// ServerImage: the complete durable protocol state of one CausalEC server
// (Fig. 3's state variables plus the implementation bookkeeping that must
// survive a restart), and its versioned, checksummed snapshot encoding.
//
// The snapshot format is:
//
//   magic    8 bytes  "CECSNAP\0"
//   version  u32      kSnapshotVersion
//   body_len u64      byte length of the body that follows
//   body     ...      Writer-encoded state (see snapshot.cpp)
//   checksum u64      FNV-1a over magic..body
//
// decode_snapshot() treats its input as untrusted: truncation, bit flips,
// wrong magic/version, or any structural inconsistency yields an error
// string -- never undefined behavior and never a CHECK abort. ReadL is
// deliberately absent: pending read callbacks cannot survive a process
// restart; the recovery path drops them and the Encoding action re-issues
// the internal ones it still needs.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "causalec/tag.h"
#include "common/types.h"
#include "erasure/value.h"

namespace causalec::persist {

inline constexpr std::uint32_t kSnapshotVersion = 1;

/// FNV-1a used by the snapshot trailer and the WAL record checksums.
std::uint64_t fnv1a(std::span<const std::uint8_t> data);

struct ServerImage {
  NodeId node = 0;
  std::uint32_t num_servers = 0;
  std::uint32_t num_objects = 0;
  std::uint32_t value_bytes = 0;

  VectorClock vc;
  erasure::Symbol m_val;
  TagVector m_tags;
  TagVector tmax;
  TagVector last_del_broadcast_all;
  std::uint64_t internal_opid_counter = 0;

  struct HistoryEntry {
    ObjectId object = 0;
    Tag tag;
    erasure::Value value;
  };
  std::vector<HistoryEntry> history;

  struct DelEntry {
    ObjectId object = 0;
    NodeId server = 0;
    Tag tag;
  };
  std::vector<DelEntry> dels;

  struct InqueueEntry {
    NodeId origin = 0;
    ObjectId object = 0;
    Tag tag;
    erasure::Value value;
  };
  std::vector<InqueueEntry> inqueue;
};

/// The snapshot file (format above), written in one Writer pass.
erasure::Buffer encode_snapshot(const ServerImage& image);

struct SnapshotDecodeResult {
  std::optional<ServerImage> image;
  /// Empty on success; a human-readable reason otherwise.
  std::string error;
  bool ok() const { return image.has_value(); }
};

/// Strict parse of an untrusted snapshot file; decoded payloads alias the
/// input buffer (zero-copy, the Buffer keeps the arena alive).
SnapshotDecodeResult decode_snapshot(erasure::Buffer frame);
SnapshotDecodeResult decode_snapshot(std::span<const std::uint8_t> bytes);

}  // namespace causalec::persist
