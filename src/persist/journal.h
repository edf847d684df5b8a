// Journal: the durable face of one server. Pairs a full-state snapshot
// (persist/image.h) with an incremental write-ahead log of everything the
// server absorbed since that snapshot -- protocol frames it dispatched and
// client writes it accepted. On restart, load() returns the snapshot plus
// the WAL suffix; the server restores the image and re-dispatches the
// records with its own sends suppressed, which deterministically reproduces
// the pre-crash state -- collections at the del floor included, since they
// run inside the dispatch of the del that raises it -- except what GC ticks
// removed: ticks are not journaled, only shrink state and run again.
//
// WAL records are individually checksummed and the tail is allowed to be
// torn: a crash mid-append loses at most the record being written, which the
// rejoin protocol then re-fetches from peers like any other missed write.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "erasure/buffer.h"
#include "persist/backend.h"
#include "persist/image.h"

namespace causalec::persist {

struct WalRecord {
  enum class Kind : std::uint8_t {
    kMessage = 1,      // a protocol frame dispatched by the server
    kClientWrite = 2,  // a locally accepted client write
  };
  Kind kind = Kind::kMessage;
  NodeId from = 0;      // kMessage: sending node
  ClientId client = 0;  // kClientWrite
  OpId opid = 0;        // kClientWrite
  ObjectId object = 0;  // kClientWrite
  /// kMessage: the serialized frame; kClientWrite: the written value. A
  /// slice of the WAL arena load() adopted: replay decodes it in place, and
  /// whatever it keeps pins that arena (DESIGN.md §9).
  erasure::Buffer payload;
};

struct RecoveredState {
  std::optional<ServerImage> image;
  std::vector<WalRecord> wal;
  /// True when the WAL ended in a torn (truncated or corrupt) record that
  /// was discarded; earlier records are still returned.
  bool wal_torn = false;
  /// Non-empty when the snapshot exists but failed to decode; `image` is
  /// empty and `wal` untouched in that case.
  std::string error;
};

class Journal {
 public:
  /// `backend` must outlive the journal; `node_key` namespaces this
  /// server's snapshot ("<key>.snap") and log ("<key>.wal") in it.
  Journal(Backend* backend, std::string node_key);

  /// While false (the replay window), record_* calls are dropped so a
  /// recovering server does not re-journal its own replayed history.
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }

  void record_message(NodeId from, std::span<const std::uint8_t> frame);
  void record_client_write(ClientId client, OpId opid, ObjectId object,
                           std::span<const std::uint8_t> value);

  /// Atomically replaces the snapshot, then truncates the WAL. A crash
  /// between the two steps merely replays a WAL prefix the snapshot already
  /// covers, which dispatch handles idempotently.
  void save_snapshot(const ServerImage& image);

  RecoveredState load() const;

  const std::string& node_key() const { return key_; }
  std::string snapshot_key() const { return key_ + ".snap"; }
  std::string wal_key() const { return key_ + ".wal"; }

 private:
  Backend* backend_;
  std::string key_;
  bool recording_ = true;
};

}  // namespace causalec::persist
