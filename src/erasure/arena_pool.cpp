#include "erasure/arena_pool.h"

#include <bit>

#include "common/expect.h"

namespace causalec::erasure {

namespace {

/// Weak registry of live pool cores for stats aggregation. Pools register
/// on construction and fold-and-unregister on close; the registry never
/// keeps a core alive.
struct Registry {
  std::mutex mu;
  std::vector<std::weak_ptr<PoolCore>> pools;
  PoolCounters folded;  // counters of closed pools, guarded by mu
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: outlives static teardown
  return *r;
}

void add_counters(PoolCounters& into, const PoolCounters& from) {
  into.fresh += from.fresh;
  into.fresh_bytes += from.fresh_bytes;
  into.recycled += from.recycled;
  into.returned += from.returned;
  into.dropped += from.dropped;
}

}  // namespace

void Arena::unref() {
  if (refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (origin != nullptr) {
    // Moves ownership of *this into a pool; `origin` keeps the core
    // alive across the call even if this was the last arena of a dead pool.
    const std::shared_ptr<PoolCore> origin_pool = std::move(origin);
    // A frame allocated on the sender's thread usually dies on a receiver
    // thread. Returning it to the origin pool keeps each pool's supply
    // balanced with its own allocation rate, but contends that pool's
    // mutex with the sender's allocations (and every other receiver). So:
    // try the origin lock without blocking, and when it is contended adopt
    // the arena into the releasing thread's own pool instead -- both sides
    // stay on uncontended locks and arenas circulate with the message
    // flow.
    if (origin_pool->try_release(this)) return;
    const std::shared_ptr<PoolCore>& local = *pool_detail::tls_pool();
    if (local != nullptr && local != origin_pool) {
      local->release(this);
      return;
    }
    origin_pool->release(this);
    return;
  }
  delete this;
}

int PoolCore::class_for(std::size_t n) {
  if (n == 0 || n > (std::size_t{1} << kMaxClassLog2)) return -1;
  const std::size_t width = std::bit_width(n - 1);
  const std::size_t log2 = width < kMinClassLog2 ? kMinClassLog2 : width;
  return static_cast<int>(log2 - kMinClassLog2);
}

PoolCore::~PoolCore() {
  // close() normally ran already (BufferPool destructor); a core that dies
  // without it (future direct use) must still free its buckets.
  for (auto& bucket : buckets_) {
    for (Arena* a : bucket) delete a;
    bucket.clear();
  }
}

Arena* PoolCore::acquire(std::size_t n, std::shared_ptr<PoolCore> self) {
  const int cls = class_for(n);
  if (cls < 0) return nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!closed_ && !buckets_[cls].empty()) {
      Arena* a = buckets_[cls].back();
      buckets_[cls].pop_back();
      recycled_.fetch_add(1, std::memory_order_relaxed);
      a->refs.store(1, std::memory_order_relaxed);
      a->origin = std::move(self);
      a->bytes.resize(n);  // within reserved class capacity: no malloc
      return a;
    }
  }
  auto* a = new Arena;
  a->origin = std::move(self);
  a->size_class = static_cast<std::uint8_t>(cls);
  const std::size_t capacity = std::size_t{1}
                               << (kMinClassLog2 + static_cast<std::size_t>(cls));
  a->bytes.reserve(capacity);
  a->bytes.resize(n);
  fresh_.fetch_add(1, std::memory_order_relaxed);
  fresh_bytes_.fetch_add(n, std::memory_order_relaxed);
  return a;
}

void PoolCore::release(Arena* arena) {
  CEC_DCHECK(arena->refs.load(std::memory_order_relaxed) == 0);
  const int cls = arena->size_class;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!closed_ &&
        buckets_[cls].size() < kMaxPerClass) {
      buckets_[cls].push_back(arena);
      returned_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  dropped_.fetch_add(1, std::memory_order_relaxed);
  delete arena;
}

bool PoolCore::try_release(Arena* arena) {
  CEC_DCHECK(arena->refs.load(std::memory_order_relaxed) == 0);
  const int cls = arena->size_class;
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) return false;
  if (closed_ || buckets_[cls].size() >= kMaxPerClass) return false;
  buckets_[cls].push_back(arena);
  returned_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void PoolCore::close() {
  std::vector<Arena*> doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    closed_ = true;
    for (auto& bucket : buckets_) {
      doomed.insert(doomed.end(), bucket.begin(), bucket.end());
      bucket.clear();
    }
  }
  for (Arena* a : doomed) delete a;
  // Fold this pool's counters into the process totals so alloc_stats()
  // deltas survive pool churn, then stop double-counting via the registry.
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  add_counters(reg.folded, counters());
  std::erase_if(reg.pools, [this](const std::weak_ptr<PoolCore>& weak) {
    const auto locked = weak.lock();
    return locked == nullptr || locked.get() == this;
  });
}

PoolCounters PoolCore::counters() const {
  PoolCounters c;
  c.fresh = fresh_.load(std::memory_order_relaxed);
  c.fresh_bytes = fresh_bytes_.load(std::memory_order_relaxed);
  c.recycled = recycled_.load(std::memory_order_relaxed);
  c.returned = returned_.load(std::memory_order_relaxed);
  c.dropped = dropped_.load(std::memory_order_relaxed);
  return c;
}

void PoolCore::reset_counters() {
  fresh_.store(0, std::memory_order_relaxed);
  fresh_bytes_.store(0, std::memory_order_relaxed);
  recycled_.store(0, std::memory_order_relaxed);
  returned_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

BufferPool::BufferPool() : core_(std::make_shared<PoolCore>()) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.pools.push_back(core_);
}

BufferPool::~BufferPool() {
  uninstall();
  core_->close();
}

void BufferPool::install() { *pool_detail::tls_pool() = core_; }

void BufferPool::uninstall() {
  std::shared_ptr<PoolCore>* current = pool_detail::tls_pool();
  if (*current == core_) current->reset();
}

namespace pool_detail {

std::shared_ptr<PoolCore>* tls_pool() {
  thread_local std::shared_ptr<PoolCore> pool;
  return &pool;
}

PoolCounters registry_totals() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  PoolCounters total;
  for (const auto& weak : reg.pools) {
    if (const auto core = weak.lock()) add_counters(total, core->counters());
  }
  return total;
}

void registry_reset() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& weak : reg.pools) {
    if (const auto core = weak.lock()) core->reset_counters();
  }
}

PoolCounters folded_totals() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  return reg.folded;
}

void folded_reset() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.folded = PoolCounters{};
}

}  // namespace pool_detail

}  // namespace causalec::erasure
