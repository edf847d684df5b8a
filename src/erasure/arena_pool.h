// Shard-local arena recycling for erasure::Buffer.
//
// Every Buffer owns (a slice of) one refcounted byte Arena. Without a pool,
// arenas are plain heap allocations and every payload costs one malloc.
// With a BufferPool installed on the current thread (NodeDaemon and
// ThreadedCluster install one per shard/node thread), arenas whose last
// reference dies return to size-class free lists in their *origin* pool and
// are handed out again on the next alloc, so the warm data path takes far
// fewer than one fresh payload arena per operation
// (ThreadedRuntimeTest.WarmDataPathRecyclesPayloadArenas pins the bound;
// perfbench's erasure.payload_allocs_per_op measures it, EXPERIMENTS.md E15).
//
// Design notes:
//   * The refcount is intrusive (one atomic in the Arena header), not a
//     shared_ptr control block: a control-block malloc per acquire would
//     defeat the purpose.
//   * Free lists are pow2 size-class buckets with a bounded depth; arenas
//     above the largest class (or released after their origin pool closed)
//     are simply deleted.
//   * Releases may come from any thread (a broadcast frame dies on whatever
//     node thread drops the last reference); they lock the origin pool's
//     mutex, which is uncontended in the common shard-local case.
//   * Counters are relaxed per-pool atomics, aggregated on read through a
//     weak registry (Buffer::alloc_stats()); a closing pool folds its
//     counters into the process-wide totals so before/after deltas survive
//     pool churn.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace causalec::erasure {

class PoolCore;

/// One refcounted byte arena. `origin` is null for plain heap arenas;
/// pooled arenas keep their origin pool alive so a late release (after the
/// owning BufferPool object died) still finds a valid -- if closed -- pool.
struct Arena {
  std::atomic<long> refs{1};
  std::vector<std::uint8_t> bytes;
  std::shared_ptr<PoolCore> origin;
  std::uint8_t size_class = 0;  // meaningful only when origin != nullptr

  void ref() { refs.fetch_add(1, std::memory_order_relaxed); }
  /// Drops one reference; destroys (or recycles into the origin pool) on
  /// the last one.
  void unref();
};

/// Relaxed per-pool counters, aggregated by Buffer::alloc_stats().
struct PoolCounters {
  std::uint64_t fresh = 0;        // arenas newly malloc'd through this pool
  std::uint64_t fresh_bytes = 0;
  std::uint64_t recycled = 0;     // allocs served from a free list
  std::uint64_t returned = 0;     // arenas accepted back into a free list
  std::uint64_t dropped = 0;      // arenas deleted (bucket full / closed)
};

/// The shared state of one pool: size-class free lists + counters. Held by
/// shared_ptr from the owning BufferPool, every live pooled Arena, and a
/// process-wide weak registry (for stats aggregation).
class PoolCore {
 public:
  /// Size classes are pow2 from 2^kMinClassLog2 (256 B) to 2^kMaxClassLog2
  /// (1 MiB); requests above the top class are not pooled.
  static constexpr std::size_t kMinClassLog2 = 8;
  static constexpr std::size_t kMaxClassLog2 = 20;
  static constexpr std::size_t kNumClasses = kMaxClassLog2 - kMinClassLog2 + 1;
  /// Free-list depth cap per class, bounding idle memory at
  /// sum(2^c * kMaxPerClass) per pool.
  static constexpr std::size_t kMaxPerClass = 64;

  ~PoolCore();

  /// An arena with bytes.size() == n (contents unspecified), or nullptr if
  /// n is outside the pooled range. Recycles when the class bucket has an
  /// arena, otherwise mallocs a fresh one reserved to the class capacity.
  /// Must be called via the owning BufferPool's thread (any thread works,
  /// but the counters assume the caller owns the pool).
  Arena* acquire(std::size_t n, std::shared_ptr<PoolCore> self);

  /// Takes back a dead arena (refs == 0): pushed onto its class bucket, or
  /// deleted when the bucket is full or the pool is closed.
  void release(Arena* arena);

  /// Non-blocking release: false (arena NOT taken) when the pool mutex is
  /// contended, the bucket is full, or the pool is closed -- the caller
  /// then re-homes the arena elsewhere (see Arena::unref()).
  bool try_release(Arena* arena);

  /// Drains the free lists and folds this pool's counters into the
  /// process-wide totals; subsequent releases delete arenas.
  void close();

  PoolCounters counters() const;
  void reset_counters();

 private:
  friend class BufferPool;

  static int class_for(std::size_t n);

  mutable std::mutex mu_;
  std::vector<Arena*> buckets_[kNumClasses];
  bool closed_ = false;

  std::atomic<std::uint64_t> fresh_{0};
  std::atomic<std::uint64_t> fresh_bytes_{0};
  std::atomic<std::uint64_t> recycled_{0};
  std::atomic<std::uint64_t> returned_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// A shard-local buffer pool. Construct one per shard/node thread and
/// install it with ScopedInstall (or install()/uninstall()) so
/// Buffer::alloc on that thread recycles through it. Destruction closes
/// the core; buffers that outlive the pool stay valid (their arenas hold
/// the core) and free straight to the heap afterwards.
class BufferPool {
 public:
  BufferPool();
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Makes this pool the current thread's allocator. Uninstall before the
  /// pool dies (ScopedInstall does both).
  void install();
  /// Clears the current thread's pool (no-op if another pool is current).
  void uninstall();

  /// Makes `pool` the current thread's allocator for the scope's
  /// lifetime, then puts back whatever pool the thread had before.
  class ScopedInstall {
   public:
    explicit ScopedInstall(BufferPool& pool);
    ~ScopedInstall();
    ScopedInstall(const ScopedInstall&) = delete;
    ScopedInstall& operator=(const ScopedInstall&) = delete;

   private:
    std::shared_ptr<PoolCore> previous_;
  };

  PoolCounters counters() const { return core_->counters(); }

 private:
  std::shared_ptr<PoolCore> core_;
};

namespace pool_detail {

/// The current thread's pool, or nullptr (plain heap arenas).
std::shared_ptr<PoolCore>* tls_pool();

/// Aggregated counters of every live registered pool.
PoolCounters registry_totals();

/// Resets the counters of every live registered pool (test/bench seam,
/// used by Buffer::reset_alloc_stats()).
void registry_reset();

/// Process-wide totals folded from closed pools, owned by the pool layer
/// (Buffer's own globals only count non-pooled arenas).
PoolCounters folded_totals();
void folded_reset();

}  // namespace pool_detail

}  // namespace causalec::erasure
