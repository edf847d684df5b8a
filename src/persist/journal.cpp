#include "persist/journal.h"

#include <optional>
#include <utility>

#include "causalec/wire_format.h"

namespace causalec::persist {

namespace {

// WAL record framing: kind u8, body_len u32, body, then FNV-1a u64 over
// the kind + length + body prefix. Anything that fails a bounds or
// checksum test marks the tail torn and is discarded.
constexpr std::size_t kRecordHeader = 1 + 4;
constexpr std::size_t kRecordTrailer = 8;
constexpr std::size_t kMaxRecordBody = std::size_t{1} << 30;

/// A Writer sized for the whole record, holding its header; the caller
/// writes exactly `body_len` body bytes, then seal()s it.
wire::Writer begin_record(WalRecord::Kind kind, std::size_t body_len) {
  wire::Writer w(kRecordHeader + body_len + kRecordTrailer);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(static_cast<std::uint32_t>(body_len));
  return w;
}

/// Appends the checksum of everything written; the record's bytes.
erasure::Buffer seal(wire::Writer& w) {
  w.u64(fnv1a(w.written()));
  return w.take_frame();
}

/// The record at the reader's cursor, or nullopt when the bytes there are
/// torn: truncated, failing their checksum, or of a shape no record has.
std::optional<WalRecord> read_record(wire::SafeReader& wal) {
  const std::span<const std::uint8_t> start = wal.rest();
  const std::uint8_t kind = wal.u8();
  const std::uint32_t body_len = wal.u32();
  if (body_len > kMaxRecordBody) return std::nullopt;
  wire::SafeReader body(wal.raw(body_len));
  const std::uint64_t checksum = wal.u64();
  if (!wal.ok() || fnv1a(start.first(kRecordHeader + body_len)) != checksum) {
    return std::nullopt;
  }
  WalRecord record;
  record.kind = static_cast<WalRecord::Kind>(kind);
  switch (record.kind) {
    case WalRecord::Kind::kMessage:
      record.from = body.u32();
      break;
    case WalRecord::Kind::kClientWrite:
      record.client = body.u64();
      record.opid = body.u64();
      record.object = body.u32();
      break;
    default:
      return std::nullopt;
  }
  // A checksummed body too short for its kind is treated like a torn tail
  // rather than guessed at.
  record.payload = body.raw(body.remaining());
  if (!body.ok()) return std::nullopt;
  return record;
}

}  // namespace

Journal::Journal(Backend* backend, std::string node_key)
    : backend_(backend), key_(std::move(node_key)) {}

void Journal::record_message(NodeId from,
                             std::span<const std::uint8_t> frame) {
  if (!recording_) return;
  wire::Writer w = begin_record(WalRecord::Kind::kMessage, 4 + frame.size());
  w.u32(from);
  w.raw(frame);
  backend_->append(wal_key(), seal(w).span());
}

void Journal::record_client_write(ClientId client, OpId opid, ObjectId object,
                                  std::span<const std::uint8_t> value) {
  if (!recording_) return;
  wire::Writer w =
      begin_record(WalRecord::Kind::kClientWrite, 8 + 8 + 4 + value.size());
  w.u64(client);
  w.u64(opid);
  w.u32(object);
  w.raw(value);
  backend_->append(wal_key(), seal(w).span());
}

void Journal::save_snapshot(const ServerImage& image) {
  backend_->put(snapshot_key(), encode_snapshot(image).span());
  backend_->remove(wal_key());
}

RecoveredState Journal::load() const {
  RecoveredState out;

  auto snap = backend_->get(snapshot_key());
  if (snap.has_value()) {
    SnapshotDecodeResult decoded =
        decode_snapshot(erasure::Buffer::adopt(std::move(*snap)));
    if (!decoded.ok()) {
      out.error = decoded.error;
      return out;
    }
    out.image = std::move(decoded.image);
  }

  auto wal = backend_->get(wal_key());
  if (!wal.has_value()) return out;
  wire::SafeReader reader(erasure::Buffer::adopt(std::move(*wal)));
  while (reader.remaining() > 0) {
    std::optional<WalRecord> record = read_record(reader);
    if (!record.has_value()) {
      out.wal_torn = true;
      break;
    }
    out.wal.push_back(std::move(*record));
  }
  return out;
}

}  // namespace causalec::persist
