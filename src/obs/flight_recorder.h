// Always-on per-node flight recorder: a fixed-size lock-free ring buffer of
// recent protocol events, cheap enough (~tens of ns per record) to leave
// enabled in production-shaped runs and dumped post-mortem -- into chaos
// replay bundles, on recovery restart, and on demand by causalec_inspect.
//
// Design: a power-of-two ring of POD slots, each guarded by a seqlock.
// Writers claim a slot with a relaxed fetch_add on the sequence counter,
// invalidate the slot's own `seq` field, fill the event fields, then
// publish the claimed sequence number with release order. A reader
// (snapshot()) walks the last `size` slots, copies each event, and keeps it
// only if the slot's seq matched the slot it expects both before and after
// the copy -- torn/in-flight slots are silently skipped. The event fields
// are atomic accesses (std::atomic_ref), so a racing copy is detected and
// dropped, not a data race. They carry the seqlock's ordering themselves
// (release stores, acquire loads: plain moves on x86-64) rather than
// standalone fences, which -fsanitize=thread does not support. Events are
// summaries, not the protocol state itself: a kind, the peer/object
// involved, and a tag digest (vector-clock component sum + client id),
// enough to reconstruct "what was this node doing just before it died".
//
// In both runtimes a node's events are recorded by one thread (the sim
// loop or the node's own thread), but snapshot() may race with recording
// (causalec_inspect against a live ThreadedCluster), hence the seqlock
// rather than plain stores.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace causalec::obs {

enum class FlightKind : std::uint8_t {
  kNone = 0,
  kClientWrite = 1,   // a=object, tag digest of the new version
  kClientRead = 2,    // a=object, b=opid low bits
  kMsgRecv = 3,       // a=from, b=msg type byte
  kApply = 4,         // InQueue entry applied; a=object, tag digest
  kEncode = 5,        // codeword re-encode; a=object, tag digest
  kDelRecord = 6,     // DelL entry recorded; a=from, tag digest
  kGc = 7,            // a=entries collected
  kReadDone = 8,      // a=object, tag digest of returned version
  kRecovery = 9,      // a=phase (0 begin, 1 digest, 2 pull, 3 done)
  kTimer = 10,        // a=timer kind
  kDegradedRead = 11, // a=object, b=repair-plan helper mask
};

const char* flight_kind_name(FlightKind kind);

struct FlightEvent {
  std::int64_t ts_ns = 0;
  FlightKind kind = FlightKind::kNone;
  std::uint32_t a = 0;        // kind-specific operand (see enum comments)
  std::uint32_t b = 0;
  std::uint64_t tag_sum = 0;  // vector-clock component sum of the tag
  std::uint32_t tag_client = 0;
};

class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two; the recorder keeps the
  /// most recent `capacity` events and overwrites older ones in place.
  explicit FlightRecorder(std::size_t capacity = 1024) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_ = std::make_unique<Slot[]>(cap);
    cap_ = cap;
    mask_ = cap - 1;
  }

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void record(std::int64_t ts_ns, FlightKind kind, std::uint32_t a = 0,
              std::uint32_t b = 0, std::uint64_t tag_sum = 0,
              std::uint32_t tag_client = 0) {
    const std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[seq & mask_];
    // 0 = never written / being written. Each field store below is a
    // release, so a reader that copies any of them also sees this store on
    // its re-check.
    slot.seq.store(0, std::memory_order_relaxed);
    store_release(slot.event.ts_ns, ts_ns);
    store_release(slot.event.kind, kind);
    store_release(slot.event.a, a);
    store_release(slot.event.b, b);
    store_release(slot.event.tag_sum, tag_sum);
    store_release(slot.event.tag_client, tag_client);
    slot.seq.store(seq + 1, std::memory_order_release);
  }

  std::size_t capacity() const { return cap_; }

  /// Total events ever recorded (>= capacity means the ring has wrapped).
  std::uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

  /// The most recent events, oldest first. Slots being overwritten
  /// concurrently are skipped, so a snapshot taken against a live writer is
  /// a consistent (if slightly gappy) suffix of the event stream.
  std::vector<FlightEvent> snapshot() const {
    const std::uint64_t end = next_.load(std::memory_order_acquire);
    const std::uint64_t count =
        end < cap_ ? end : static_cast<std::uint64_t>(cap_);
    std::vector<FlightEvent> out;
    out.reserve(count);
    for (std::uint64_t seq = end - count; seq < end; ++seq) {
      Slot& slot = slots_[seq & mask_];
      if (slot.seq.load(std::memory_order_acquire) != seq + 1) continue;
      // Acquire loads keep the re-check after the copy: a writer that
      // overwrote any field had invalidated seq first.
      FlightEvent event;
      event.ts_ns = load_acquire(slot.event.ts_ns);
      event.kind = load_acquire(slot.event.kind);
      event.a = load_acquire(slot.event.a);
      event.b = load_acquire(slot.event.b);
      event.tag_sum = load_acquire(slot.event.tag_sum);
      event.tag_client = load_acquire(slot.event.tag_client);
      if (slot.seq.load(std::memory_order_relaxed) != seq + 1) continue;
      out.push_back(event);
    }
    return out;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    FlightEvent event;
  };

  template <typename T>
  static void store_release(T& field, T value) {
    std::atomic_ref<T>(field).store(value, std::memory_order_release);
  }
  template <typename T>
  static T load_acquire(T& field) {
    return std::atomic_ref<T>(field).load(std::memory_order_acquire);
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t cap_ = 0;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> next_{0};
};

/// One JSON object per event: the shape embedded in chaos replay bundles
/// ("flight" arrays) and printed by causalec_inspect.
std::string flight_events_to_json(const std::vector<FlightEvent>& events);

/// Inverse of flight_events_to_json for bundle round-trips; returns an
/// empty vector on malformed input.
std::vector<FlightEvent> flight_events_from_json(const std::string& json);

/// One-line human rendering ("apply obj=2 tag=7@c1 @123us") used by
/// log_flight_tail and causalec_inspect.
std::string flight_event_to_string(const FlightEvent& event);

/// Logs the recorder's most recent `max_events` events at Info level,
/// prefixed with the node id -- the post-mortem dump a node emits when it
/// restarts after a crash.
void log_flight_tail(int node, const FlightRecorder& recorder,
                     std::size_t max_events = 8);

}  // namespace causalec::obs
