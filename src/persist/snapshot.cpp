#include "persist/image.h"

#include <cstring>

#include "causalec/wire_format.h"

namespace causalec::persist {

namespace {

constexpr std::uint8_t kMagic[8] = {'C', 'E', 'C', 'S', 'N', 'A', 'P', '\0'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8;  // magic + version + body_len
constexpr std::size_t kBodyLenOffset = 8 + 4;
constexpr std::size_t kTrailerBytes = 8;         // checksum

// Caps applied before any allocation driven by an untrusted length field.
constexpr std::size_t kMaxServers = 1 << 12;
constexpr std::size_t kMaxObjects = 1 << 20;
constexpr std::size_t kMaxValueBytes = 1 << 28;
constexpr std::size_t kMaxEntries = 1 << 24;

}  // namespace

std::uint64_t fnv1a(std::span<const std::uint8_t> data) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

erasure::Buffer encode_snapshot(const ServerImage& image) {
  wire::Writer w;
  w.raw(kMagic);
  w.u32(kSnapshotVersion);
  w.u64(0);  // body_len, patched once the body is written
  w.u32(image.node);
  w.u32(image.num_servers);
  w.u32(image.num_objects);
  w.u32(image.value_bytes);
  w.clock(image.vc);
  w.bytes(image.m_val);
  w.tagvec(image.m_tags);
  w.tagvec(image.tmax);
  w.tagvec(image.last_del_broadcast_all);
  w.u64(image.internal_opid_counter);
  w.u32(static_cast<std::uint32_t>(image.history.size()));
  for (const auto& e : image.history) {
    w.u32(e.object);
    w.tag(e.tag);
    w.bytes(e.value);
  }
  w.u32(static_cast<std::uint32_t>(image.dels.size()));
  for (const auto& e : image.dels) {
    w.u32(e.object);
    w.u32(e.server);
    w.tag(e.tag);
  }
  w.u32(static_cast<std::uint32_t>(image.inqueue.size()));
  for (const auto& e : image.inqueue) {
    w.u32(e.origin);
    w.u32(e.object);
    w.tag(e.tag);
    w.bytes(e.value);
  }
  w.patch_u64(kBodyLenOffset, w.size() - kHeaderBytes);
  w.u64(fnv1a(w.written()));
  return w.take_frame();
}

SnapshotDecodeResult decode_snapshot(std::span<const std::uint8_t> bytes) {
  return decode_snapshot(erasure::Buffer::copy_of(bytes));
}

SnapshotDecodeResult decode_snapshot(erasure::Buffer frame) {
  SnapshotDecodeResult result;
  auto reject = [&result](std::string why) {
    result.image.reset();
    result.error = "snapshot: " + std::move(why);
    return result;
  };

  const std::span<const std::uint8_t> all = frame.span();
  if (all.size() < kHeaderBytes + kTrailerBytes) {
    return reject("truncated (shorter than header + checksum)");
  }
  if (std::memcmp(all.data(), kMagic, sizeof(kMagic)) != 0) {
    return reject("bad magic (not a CausalEC snapshot)");
  }
  // Verify the checksum before trusting any other field.
  const std::size_t checked_len = all.size() - kTrailerBytes;
  const std::uint64_t stored =
      wire::SafeReader(frame.slice(checked_len, kTrailerBytes)).u64();
  if (fnv1a(all.subspan(0, checked_len)) != stored) {
    return reject("checksum mismatch (corrupted or truncated)");
  }

  wire::SafeReader r(frame.slice(sizeof(kMagic), checked_len - sizeof(kMagic)));
  const std::uint32_t version = r.u32();
  if (version != kSnapshotVersion) {
    return reject("unsupported version " + std::to_string(version) +
                  " (expected " + std::to_string(kSnapshotVersion) + ")");
  }
  const std::uint64_t body_len = r.u64();
  if (body_len != r.remaining()) {
    return reject("body length field does not match file size");
  }

  ServerImage image;
  image.node = r.u32();
  image.num_servers = r.u32();
  image.num_objects = r.u32();
  image.value_bytes = r.u32();
  if (!r.ok()) return reject(r.error());
  if (image.num_servers == 0 || image.num_servers > kMaxServers ||
      image.num_objects == 0 || image.num_objects > kMaxObjects ||
      image.value_bytes > kMaxValueBytes || image.node >= image.num_servers) {
    return reject("implausible dimensions");
  }
  const std::size_t n = image.num_servers;
  const std::size_t k = image.num_objects;

  image.vc = r.clock(n);
  image.m_val = erasure::Symbol(r.bytes(kMaxValueBytes));
  image.m_tags = r.tagvec(k, n);
  image.tmax = r.tagvec(k, n);
  image.last_del_broadcast_all = r.tagvec(k, n);
  image.internal_opid_counter = r.u64();

  const auto tag_ok = [n](const Tag& t) { return t.ts.size() == n; };
  const auto tagvec_ok = [&](const TagVector& tv) {
    if (tv.size() != k) return false;
    for (const Tag& t : tv) {
      if (!tag_ok(t)) return false;
    }
    return true;
  };

  const std::uint32_t history_count = r.u32();
  if (history_count > kMaxEntries) return reject("history entry count exceeds cap");
  image.history.reserve(history_count);
  for (std::uint32_t i = 0; i < history_count && r.ok(); ++i) {
    ServerImage::HistoryEntry e;
    e.object = r.u32();
    e.tag = r.tag(n);
    e.value = r.bytes(kMaxValueBytes);
    if (e.object >= k || !tag_ok(e.tag)) return reject("malformed history entry");
    image.history.push_back(std::move(e));
  }
  const std::uint32_t del_count = r.u32();
  if (del_count > kMaxEntries) return reject("del entry count exceeds cap");
  image.dels.reserve(del_count);
  for (std::uint32_t i = 0; i < del_count && r.ok(); ++i) {
    ServerImage::DelEntry e;
    e.object = r.u32();
    e.server = r.u32();
    e.tag = r.tag(n);
    if (e.object >= k || e.server >= n || !tag_ok(e.tag)) {
      return reject("malformed del entry");
    }
    image.dels.push_back(std::move(e));
  }
  const std::uint32_t inq_count = r.u32();
  if (inq_count > kMaxEntries) return reject("inqueue entry count exceeds cap");
  image.inqueue.reserve(inq_count);
  for (std::uint32_t i = 0; i < inq_count && r.ok(); ++i) {
    ServerImage::InqueueEntry e;
    e.origin = r.u32();
    e.object = r.u32();
    e.tag = r.tag(n);
    e.value = r.bytes(kMaxValueBytes);
    if (e.origin >= n || e.object >= k || !tag_ok(e.tag)) {
      return reject("malformed inqueue entry");
    }
    image.inqueue.push_back(std::move(e));
  }

  if (!r.ok()) return reject(r.error());
  if (!r.done()) return reject("trailing bytes after body");
  if (image.vc.size() != n || !tagvec_ok(image.m_tags) ||
      !tagvec_ok(image.tmax) || !tagvec_ok(image.last_del_broadcast_all)) {
    return reject("dimension mismatch in clocks or tag vectors");
  }

  result.image = std::move(image);
  return result;
}

}  // namespace causalec::persist
