// The durable-state layer (src/persist): snapshot format pinned by golden
// bytes, a corruption battery over the untrusted decode path (every
// single-bit flip and every truncation must fail cleanly -- run under
// ASan/UBSan by tools/run_sanitized_tests.sh), storage backends, and the
// journal's WAL framing including torn-tail recovery.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <unistd.h>
#include <vector>

#include "erasure/buffer.h"
#include "persist/backend.h"
#include "persist/image.h"
#include "persist/journal.h"

namespace causalec::persist {
namespace {

// The fixture image: every field populated, small enough to eyeball.
ServerImage make_image() {
  ServerImage img;
  img.node = 1;
  img.num_servers = 3;
  img.num_objects = 2;
  img.value_bytes = 4;
  img.vc = VectorClock(3);
  img.vc.set(0, 1);
  img.vc.set(1, 2);
  img.vc.set(2, 3);
  img.m_val = erasure::Value({0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4});
  VectorClock t0(3);
  t0.set(0, 1);
  VectorClock t1(3);
  t1.set(0, 1);
  t1.set(1, 2);
  img.m_tags = {Tag(t0, 10), Tag(t1, 11)};
  img.tmax = {Tag::zero(3), Tag::zero(3)};
  img.last_del_broadcast_all = {Tag::zero(3), Tag::zero(3)};
  img.internal_opid_counter = 42;
  VectorClock h(3);
  h.set(1, 1);
  img.history.push_back({1, Tag(h, 7), erasure::Value({9, 9, 9, 9})});
  img.dels.push_back({0, 2, Tag(t0, 10)});
  VectorClock q(3);
  q.set(0, 1);
  q.set(1, 1);
  img.inqueue.push_back({2, 1, Tag(q, 8), erasure::Value({5, 6, 7, 8})});
  return img;
}

/// A WAL record's payload bytes (a slice of the loaded WAL arena).
std::vector<std::uint8_t> bytes_of(const erasure::Buffer& payload) {
  return {payload.data(), payload.data() + payload.size()};
}

/// encode_snapshot's bytes as an owned vector, for tests that edit them.
std::vector<std::uint8_t> snapshot_bytes(const ServerImage& img) {
  const erasure::Buffer file = encode_snapshot(img);
  return {file.data(), file.data() + file.size()};
}

void expect_images_equal(const ServerImage& a, const ServerImage& b) {
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.num_servers, b.num_servers);
  EXPECT_EQ(a.num_objects, b.num_objects);
  EXPECT_EQ(a.value_bytes, b.value_bytes);
  EXPECT_TRUE(a.vc == b.vc);
  ASSERT_EQ(a.m_val.size(), b.m_val.size());
  if (!a.m_val.empty()) {
    EXPECT_EQ(0,
              std::memcmp(a.m_val.data(), b.m_val.data(), a.m_val.size()));
  }
  EXPECT_EQ(a.m_tags, b.m_tags);
  EXPECT_EQ(a.tmax, b.tmax);
  EXPECT_EQ(a.last_del_broadcast_all, b.last_del_broadcast_all);
  EXPECT_EQ(a.internal_opid_counter, b.internal_opid_counter);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].object, b.history[i].object);
    EXPECT_TRUE(a.history[i].tag == b.history[i].tag);
    ASSERT_EQ(a.history[i].value.size(), b.history[i].value.size());
    if (!a.history[i].value.empty()) {
      EXPECT_EQ(0, std::memcmp(a.history[i].value.data(),
                               b.history[i].value.data(),
                               a.history[i].value.size()));
    }
  }
  ASSERT_EQ(a.dels.size(), b.dels.size());
  for (std::size_t i = 0; i < a.dels.size(); ++i) {
    EXPECT_EQ(a.dels[i].object, b.dels[i].object);
    EXPECT_EQ(a.dels[i].server, b.dels[i].server);
    EXPECT_TRUE(a.dels[i].tag == b.dels[i].tag);
  }
  ASSERT_EQ(a.inqueue.size(), b.inqueue.size());
  for (std::size_t i = 0; i < a.inqueue.size(); ++i) {
    EXPECT_EQ(a.inqueue[i].origin, b.inqueue[i].origin);
    EXPECT_EQ(a.inqueue[i].object, b.inqueue[i].object);
    EXPECT_TRUE(a.inqueue[i].tag == b.inqueue[i].tag);
    ASSERT_EQ(a.inqueue[i].value.size(), b.inqueue[i].value.size());
    if (!a.inqueue[i].value.empty()) {
      EXPECT_EQ(0, std::memcmp(a.inqueue[i].value.data(),
                               b.inqueue[i].value.data(),
                               a.inqueue[i].value.size()));
    }
  }
}

// encode_snapshot(make_image()), byte for byte. A mismatch means the
// on-disk format changed: bump kSnapshotVersion, keep decoding version 1,
// and regenerate this array -- never silently repurpose version 1.
constexpr std::uint8_t kGoldenSnapshot[] = {
    0x43, 0x45, 0x43, 0x53, 0x4E, 0x41, 0x50, 0x00, 0x01, 0x00, 0x00, 0x00,
    0xC0, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0xDE, 0xAD, 0xBE, 0xEF,
    0x01, 0x02, 0x03, 0x04, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x0A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x0B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x09, 0x09, 0x09, 0x09, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0A, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x05, 0x06, 0x07, 0x08,
    0x11, 0x56, 0x35, 0xED, 0x9D, 0x61, 0x3D, 0xFA,
};

TEST(SnapshotGoldenTest, EncodingMatchesCommittedBytes) {
  const std::vector<std::uint8_t> encoded = snapshot_bytes(make_image());
  ASSERT_EQ(encoded.size(), sizeof(kGoldenSnapshot))
      << "snapshot size changed -- bump kSnapshotVersion";
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    ASSERT_EQ(encoded[i], kGoldenSnapshot[i])
        << "snapshot byte " << i
        << " changed -- the format moved under version "
        << kSnapshotVersion;
  }
}

TEST(SnapshotGoldenTest, CommittedBytesDecode) {
  const SnapshotDecodeResult result = decode_snapshot(
      std::span<const std::uint8_t>(kGoldenSnapshot, sizeof(kGoldenSnapshot)));
  ASSERT_TRUE(result.ok()) << result.error;
  expect_images_equal(make_image(), *result.image);
}

// Two WAL records, byte for byte: record_message(2, {AA BB CC}) and then
// record_client_write(77, 5, 1, {1 2 3 4}). Each is kind:u8, body_len:u32,
// the body, and the FNV-1a u64 of everything before it. A mismatch means
// the on-disk log format changed under existing data directories.
constexpr std::uint8_t kGoldenMessageRecord[] = {
    0x01, 0x07, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0xAA,
    0xBB, 0xCC, 0x3E, 0xAA, 0x8C, 0xB8, 0x2E, 0x6C, 0x2D, 0xB1,
};
constexpr std::uint8_t kGoldenClientWriteRecord[] = {
    0x02, 0x18, 0x00, 0x00, 0x00, 0x4D, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, 0x04, 0xF8,
    0xDD, 0xCE, 0x6E, 0xE0, 0x40, 0x8D, 0x5F,
};
const std::vector<std::uint8_t> kGoldenFrame = {0xAA, 0xBB, 0xCC};
const std::vector<std::uint8_t> kGoldenValue = {1, 2, 3, 4};

TEST(JournalGoldenTest, RecordsMatchCommittedBytes) {
  MemoryBackend backend;
  Journal journal(&backend, "s0");
  journal.record_message(2, kGoldenFrame);
  journal.record_client_write(77, 5, 1, kGoldenValue);
  std::vector<std::uint8_t> expected(std::begin(kGoldenMessageRecord),
                                     std::end(kGoldenMessageRecord));
  expected.insert(expected.end(), std::begin(kGoldenClientWriteRecord),
                  std::end(kGoldenClientWriteRecord));
  const auto wal = backend.get(journal.wal_key());
  ASSERT_TRUE(wal.has_value());
  EXPECT_EQ(*wal, expected);
}

TEST(JournalGoldenTest, CommittedBytesDecode) {
  MemoryBackend backend;
  Journal journal(&backend, "s0");
  backend.append(journal.wal_key(), kGoldenMessageRecord);
  backend.append(journal.wal_key(), kGoldenClientWriteRecord);
  const RecoveredState state = journal.load();
  EXPECT_FALSE(state.wal_torn);
  ASSERT_EQ(state.wal.size(), 2u);
  EXPECT_EQ(state.wal[0].kind, WalRecord::Kind::kMessage);
  EXPECT_EQ(state.wal[0].from, 2u);
  EXPECT_EQ(bytes_of(state.wal[0].payload), kGoldenFrame);
  EXPECT_EQ(state.wal[1].kind, WalRecord::Kind::kClientWrite);
  EXPECT_EQ(state.wal[1].client, 77u);
  EXPECT_EQ(state.wal[1].opid, 5u);
  EXPECT_EQ(state.wal[1].object, 1u);
  EXPECT_EQ(bytes_of(state.wal[1].payload), kGoldenValue);
}

TEST(SnapshotTest, RoundTripPreservesEveryField) {
  const ServerImage img = make_image();
  const SnapshotDecodeResult result = decode_snapshot(
      encode_snapshot(img));
  ASSERT_TRUE(result.ok()) << result.error;
  expect_images_equal(img, *result.image);
}

TEST(SnapshotTest, EmptyImageRoundTrips) {
  ServerImage img;
  img.num_servers = 1;
  img.num_objects = 1;
  img.value_bytes = 1;
  img.vc = VectorClock(1);
  img.m_tags = {Tag::zero(1)};
  img.tmax = {Tag::zero(1)};
  img.last_del_broadcast_all = {Tag::zero(1)};
  const SnapshotDecodeResult result = decode_snapshot(
      encode_snapshot(img));
  ASSERT_TRUE(result.ok()) << result.error;
  expect_images_equal(img, *result.image);
}

// Satellite: the corruption battery. Every single-bit flip must be caught
// (the FNV-1a trailer covers magic..body; a flip in the trailer itself
// mismatches the recomputed sum) and must never crash or trip a sanitizer.
TEST(SnapshotCorruptionTest, EveryBitFlipIsRejected) {
  const std::vector<std::uint8_t> good = snapshot_bytes(make_image());
  ASSERT_TRUE(decode_snapshot(std::span<const std::uint8_t>(good)).ok());
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bad = good;
      bad[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const SnapshotDecodeResult result =
          decode_snapshot(std::span<const std::uint8_t>(bad));
      EXPECT_FALSE(result.ok())
          << "flip of byte " << byte << " bit " << bit << " went undetected";
      EXPECT_FALSE(result.error.empty());
    }
  }
}

TEST(SnapshotCorruptionTest, EveryTruncationIsRejected) {
  const std::vector<std::uint8_t> good = snapshot_bytes(make_image());
  for (std::size_t len = 0; len < good.size(); ++len) {
    const SnapshotDecodeResult result = decode_snapshot(
        std::span<const std::uint8_t>(good.data(), len));
    EXPECT_FALSE(result.ok()) << "truncation to " << len << " bytes decoded";
  }
}

TEST(SnapshotCorruptionTest, WrongVersionIsRejectedWithClearError) {
  std::vector<std::uint8_t> bytes = snapshot_bytes(make_image());
  bytes[8] = 0x7F;  // version field (little-endian u32 after the magic)
  // Recompute the trailer so only the version is wrong.
  const std::uint64_t sum = fnv1a(
      std::span<const std::uint8_t>(bytes.data(), bytes.size() - 8));
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] =
        static_cast<std::uint8_t>((sum >> (8 * i)) & 0xFF);
  }
  const SnapshotDecodeResult result =
      decode_snapshot(std::span<const std::uint8_t>(bytes));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("version"), std::string::npos) << result.error;
}

TEST(SnapshotCorruptionTest, GarbageInputsAreRejected) {
  EXPECT_FALSE(decode_snapshot(std::span<const std::uint8_t>()).ok());
  const std::vector<std::uint8_t> zeros(64, 0);
  EXPECT_FALSE(decode_snapshot(std::span<const std::uint8_t>(zeros)).ok());
  std::vector<std::uint8_t> huge = snapshot_bytes(make_image());
  huge[12] = 0xFF;  // body_len low byte -> inconsistent with actual size
  EXPECT_FALSE(decode_snapshot(std::span<const std::uint8_t>(huge)).ok());
}

TEST(BackendTest, MemoryBackendBasics) {
  MemoryBackend backend;
  EXPECT_FALSE(backend.get("a").has_value());
  backend.put("a", std::vector<std::uint8_t>{1, 2, 3});
  ASSERT_TRUE(backend.get("a").has_value());
  EXPECT_EQ(backend.get("a")->size(), 3u);
  backend.append("a", std::vector<std::uint8_t>{4});
  EXPECT_EQ(backend.get("a")->size(), 4u);
  backend.append("b", std::vector<std::uint8_t>{9});  // append creates
  EXPECT_EQ(backend.get("b")->size(), 1u);
  EXPECT_TRUE(backend.corrupt("a", 0, 0xFF));
  EXPECT_EQ((*backend.get("a"))[0], 1 ^ 0xFF);
  EXPECT_FALSE(backend.corrupt("a", 99, 0xFF));  // out of range
  EXPECT_FALSE(backend.corrupt("zzz", 0, 0xFF));
  backend.remove("a");
  EXPECT_FALSE(backend.get("a").has_value());
}

TEST(BackendTest, DirBackendRoundTrip) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cec_persist_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    DirBackend backend(dir.string());
    backend.put("s0.snap", std::vector<std::uint8_t>{1, 2, 3});
    backend.append("s0.wal", std::vector<std::uint8_t>{4, 5});
    backend.append("s0.wal", std::vector<std::uint8_t>{6});
    ASSERT_TRUE(backend.get("s0.snap").has_value());
    EXPECT_EQ(backend.get("s0.snap")->size(), 3u);
    EXPECT_EQ(backend.get("s0.wal")->size(), 3u);
    EXPECT_FALSE(backend.get("absent").has_value());
    backend.put("s0.snap", std::vector<std::uint8_t>{9});  // overwrite
    EXPECT_EQ(backend.get("s0.snap")->size(), 1u);
    backend.remove("s0.wal");
    EXPECT_FALSE(backend.get("s0.wal").has_value());
  }
  {
    // A second backend over the same directory sees the durable state.
    DirBackend backend(dir.string());
    ASSERT_TRUE(backend.get("s0.snap").has_value());
    EXPECT_EQ((*backend.get("s0.snap"))[0], 9);
  }
  std::filesystem::remove_all(dir);
}

TEST(JournalTest, WalRoundTripAndSnapshotTruncation) {
  MemoryBackend backend;
  Journal journal(&backend, "s0");
  const std::vector<std::uint8_t> frame = {0xAA, 0xBB, 0xCC};
  const std::vector<std::uint8_t> value = {1, 2, 3, 4};
  journal.record_message(2, frame);
  journal.record_client_write(77, 5, 1, value);

  RecoveredState state = journal.load();
  EXPECT_FALSE(state.image.has_value());  // no snapshot yet
  EXPECT_FALSE(state.wal_torn);
  ASSERT_EQ(state.wal.size(), 2u);
  EXPECT_EQ(state.wal[0].kind, WalRecord::Kind::kMessage);
  EXPECT_EQ(state.wal[0].from, 2u);
  EXPECT_EQ(bytes_of(state.wal[0].payload), frame);
  EXPECT_EQ(state.wal[1].kind, WalRecord::Kind::kClientWrite);
  EXPECT_EQ(state.wal[1].client, 77u);
  EXPECT_EQ(state.wal[1].opid, 5u);
  EXPECT_EQ(state.wal[1].object, 1u);
  EXPECT_EQ(bytes_of(state.wal[1].payload), value);

  journal.save_snapshot(make_image());
  state = journal.load();
  ASSERT_TRUE(state.image.has_value()) << state.error;
  EXPECT_TRUE(state.wal.empty());  // snapshot truncated the log

  journal.record_message(1, frame);
  state = journal.load();
  ASSERT_TRUE(state.image.has_value());
  ASSERT_EQ(state.wal.size(), 1u);
  EXPECT_EQ(state.wal[0].from, 1u);
}

TEST(JournalTest, RecordingGateDropsWrites) {
  MemoryBackend backend;
  Journal journal(&backend, "s0");
  journal.set_recording(false);
  journal.record_message(0, std::vector<std::uint8_t>{1});
  journal.record_client_write(1, 2, 3, std::vector<std::uint8_t>{4});
  EXPECT_TRUE(journal.load().wal.empty());
  journal.set_recording(true);
  journal.record_message(0, std::vector<std::uint8_t>{1});
  EXPECT_EQ(journal.load().wal.size(), 1u);
}

TEST(JournalTest, TornTailIsDiscardedEarlierRecordsSurvive) {
  MemoryBackend backend;
  Journal journal(&backend, "s0");
  journal.record_message(0, std::vector<std::uint8_t>{1, 2, 3});
  journal.record_message(1, std::vector<std::uint8_t>{4, 5, 6});

  // Truncate mid-record: keep the first record plus a few bytes of the
  // second (a crash during append).
  const auto full = *backend.get(journal.wal_key());
  const std::size_t record_size = full.size() / 2;
  backend.put(journal.wal_key(),
              std::vector<std::uint8_t>(full.begin(),
                                        full.begin() + record_size + 3));
  RecoveredState state = journal.load();
  EXPECT_TRUE(state.wal_torn);
  ASSERT_EQ(state.wal.size(), 1u);
  EXPECT_EQ(state.wal[0].from, 0u);

  // Bit-flip inside the second record's body: checksum mismatch, same deal.
  backend.put(journal.wal_key(), full);
  ASSERT_TRUE(backend.corrupt(journal.wal_key(), record_size + 6, 0x01));
  state = journal.load();
  EXPECT_TRUE(state.wal_torn);
  ASSERT_EQ(state.wal.size(), 1u);

  // A flip in the FIRST record drops everything after it too (the parser
  // cannot trust record boundaries past a bad checksum).
  backend.put(journal.wal_key(), full);
  ASSERT_TRUE(backend.corrupt(journal.wal_key(), 6, 0x01));
  state = journal.load();
  EXPECT_TRUE(state.wal_torn);
  EXPECT_TRUE(state.wal.empty());
}

TEST(JournalTest, CorruptSnapshotSurfacesError) {
  MemoryBackend backend;
  Journal journal(&backend, "s0");
  journal.save_snapshot(make_image());
  ASSERT_TRUE(backend.corrupt(journal.snapshot_key(), 40, 0xFF));
  const RecoveredState state = journal.load();
  EXPECT_FALSE(state.image.has_value());
  EXPECT_FALSE(state.error.empty());
}

}  // namespace
}  // namespace causalec::persist
