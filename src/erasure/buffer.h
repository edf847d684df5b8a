// Refcounted immutable payload buffer.
//
// A Buffer owns (a slice of) one heap byte arena through an intrusive
// refcount (see erasure/arena_pool.h -- a shared_ptr control block per
// arena would cost a malloc per acquire and defeat the pool). Copying a
// Buffer or taking a slice() shares the arena instead of copying bytes, so
// a payload that fans out to n destinations (the Alg. 1 line 6 broadcast,
// a serialized frame delivered to several mailboxes) costs one allocation
// total, not one per hop.
//
// When a BufferPool is installed on the current thread (NodeDaemon /
// ThreadedCluster install one per shard thread), alloc/copy_of recycle
// arenas through its size-class free lists and the steady-state data path
// stops malloc'ing altogether; without one they are plain heap arenas.
//
// Ownership rules (see DESIGN.md §5.3):
//   * the arena is logically immutable once any second reference exists;
//   * mutable_data() may only be called while the arena is uniquely owned
//     (use_count() == 1) -- this is what erasure::Value's copy-on-write
//     relies on;
//   * slices keep the whole arena alive: a 4-byte slice of a 4 MiB frame
//     pins the frame. Callers that outlive the frame by design (e.g. the
//     HistoryList) are fine because protocol values are sliced from frames
//     sized proportionally to them.
//
// Every fresh arena (alloc / copy_of / adopt) counts toward alloc_stats();
// pool-recycled arenas count under `recycled` instead of `allocations`, so
// "allocations per op" measures true mallocs on the data path
// (tests/copy_count_test.cpp,
// ThreadedRuntimeTest.WarmDataPathRecyclesPayloadArenas).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/expect.h"
#include "erasure/arena_pool.h"

namespace causalec::erasure {

class Buffer {
 public:
  struct AllocStats {
    std::uint64_t allocations = 0;  // fresh arenas malloc'd
    std::uint64_t bytes = 0;        // total bytes of those arenas
    std::uint64_t recycled = 0;     // allocs served from a pool free list
  };

  Buffer() = default;

  Buffer(const Buffer& other)
      : arena_(other.arena_), offset_(other.offset_), size_(other.size_) {
    if (arena_ != nullptr) arena_->ref();
  }

  Buffer(Buffer&& other) noexcept
      : arena_(std::exchange(other.arena_, nullptr)),
        offset_(std::exchange(other.offset_, 0)),
        size_(std::exchange(other.size_, 0)) {}

  Buffer& operator=(const Buffer& other) {
    if (this != &other) {
      Buffer copy(other);
      swap(copy);
    }
    return *this;
  }

  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      reset();
      arena_ = std::exchange(other.arena_, nullptr);
      offset_ = std::exchange(other.offset_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ~Buffer() { reset(); }

  /// Fresh (or pool-recycled) arena of `n` bytes, all set to `fill`.
  static Buffer alloc(std::size_t n, std::uint8_t fill = 0) {
    Buffer b = alloc_uninit(n);
    if (n != 0) std::memset(b.arena_->bytes.data(), fill, n);
    return b;
  }

  /// Like alloc() but the contents are unspecified (recycled arenas carry
  /// stale bytes) -- for write cursors that overwrite everything they
  /// expose, e.g. wire::Writer.
  static Buffer alloc_uninit(std::size_t n) {
    Buffer b;
    b.arena_ = acquire_arena(n);
    b.size_ = n;
    return b;
  }

  /// Fresh (or pool-recycled) arena holding a copy of `bytes`.
  static Buffer copy_of(std::span<const std::uint8_t> bytes) {
    Buffer b;
    b.arena_ = acquire_arena(bytes.size());
    b.size_ = bytes.size();
    if (!bytes.empty()) {
      std::memcpy(b.arena_->bytes.data(), bytes.data(), bytes.size());
    }
    return b;
  }

  /// Takes ownership of an already-built vector (no byte copy, never
  /// pooled -- the capacity is the caller's; still counts as one
  /// allocation to the buffer layer).
  static Buffer adopt(std::vector<std::uint8_t>&& bytes) {
    Buffer b;
    auto* a = new Arena;
    a->bytes = std::move(bytes);
    b.arena_ = a;
    b.size_ = a->bytes.size();
    note_alloc(b.size_);
    return b;
  }

  /// Shares the arena; the slice views [offset, offset + length).
  Buffer slice(std::size_t offset, std::size_t length) const {
    CEC_CHECK(offset + length <= size_);
    Buffer b;
    b.arena_ = arena_;
    if (b.arena_ != nullptr) b.arena_->ref();
    b.offset_ = offset_ + offset;
    b.size_ = length;
    return b;
  }

  /// The slice extended `n` bytes toward the front of its arena; the empty
  /// Buffer when fewer than `n` arena bytes precede it. Those bytes are
  /// whatever the arena holds there: the caller checks them.
  Buffer with_front(std::size_t n) const {
    if (arena_ == nullptr || offset_ < n) return Buffer();
    Buffer b;
    b.arena_ = arena_;
    b.arena_->ref();
    b.offset_ = offset_ - n;
    b.size_ = size_ + n;
    return b;
  }

  const std::uint8_t* data() const {
    return arena_ != nullptr ? arena_->bytes.data() + offset_ : nullptr;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::span<const std::uint8_t> span() const { return {data(), size_}; }

  /// True when this handle is the only reference to the arena (mutation in
  /// place is then invisible to everyone else).
  bool unique() const {
    return arena_ != nullptr &&
           arena_->refs.load(std::memory_order_acquire) == 1;
  }

  /// Mutable access; caller must hold the only reference (see unique()).
  std::uint8_t* mutable_data() {
    CEC_DCHECK(unique());
    return arena_->bytes.data() + offset_;
  }

  /// How many handles (buffers/values/slices) share the arena; 0 for the
  /// empty buffer.
  long use_count() const {
    return arena_ != nullptr ? arena_->refs.load(std::memory_order_acquire)
                             : 0;
  }

  /// Process-wide totals: the plain-arena globals plus every pool's
  /// counters (live pools via the registry, closed pools via the folded
  /// totals), so deltas survive pool churn.
  static AllocStats alloc_stats() {
    const PoolCounters live = pool_detail::registry_totals();
    const PoolCounters folded = pool_detail::folded_totals();
    AllocStats s;
    s.allocations = allocations_.load(std::memory_order_relaxed) +
                    live.fresh + folded.fresh;
    s.bytes = alloc_bytes_.load(std::memory_order_relaxed) +
              live.fresh_bytes + folded.fresh_bytes;
    s.recycled = live.recycled + folded.recycled;
    return s;
  }
  static void reset_alloc_stats() {
    allocations_.store(0, std::memory_order_relaxed);
    alloc_bytes_.store(0, std::memory_order_relaxed);
    pool_detail::registry_reset();
    pool_detail::folded_reset();
  }

 private:
  void reset() {
    if (arena_ != nullptr) {
      arena_->unref();
      arena_ = nullptr;
    }
    offset_ = 0;
    size_ = 0;
  }

  void swap(Buffer& other) noexcept {
    std::swap(arena_, other.arena_);
    std::swap(offset_, other.offset_);
    std::swap(size_, other.size_);
  }

  /// The current thread's pool if one is installed and `n` fits a size
  /// class; a plain heap arena otherwise.
  static Arena* acquire_arena(std::size_t n) {
    if (const std::shared_ptr<PoolCore>& pool = *pool_detail::tls_pool();
        pool != nullptr) {
      if (Arena* a = pool->acquire(n, pool)) return a;
    }
    auto* a = new Arena;
    a->bytes.resize(n);
    note_alloc(n);
    return a;
  }

  static void note_alloc(std::size_t n) {
    allocations_.fetch_add(1, std::memory_order_relaxed);
    alloc_bytes_.fetch_add(n, std::memory_order_relaxed);
  }

  static inline std::atomic<std::uint64_t> allocations_{0};
  static inline std::atomic<std::uint64_t> alloc_bytes_{0};

  Arena* arena_ = nullptr;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
};

}  // namespace causalec::erasure
