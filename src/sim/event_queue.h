// Discrete-event engine core: a monotone clock and a time-ordered event
// queue.  Events are small POD records dispatched by the owning simulation's
// switch; ties are broken by insertion sequence so runs are deterministic.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/time.h"

namespace esp::sim {

/// What an event means; the payload field `a` identifies the target entity.
enum class EventType : std::uint8_t {
  kSourceEmit,       ///< a = task index: source tries to emit its next item
  kServiceDone,      ///< a = task index: current item's service completes
  kFlushDeadline,    ///< a = channel index: output-batch deadline expired
  kBatchArrival,     ///< a = channel index: the channel's oldest batch lands
  kTaskTimer,        ///< a = task index: windowed UDF timer fires
  kTaskStarted,      ///< a = task index: freshly scheduled task goes live
  kMeasurementTick,  ///< QoS reporters harvest
  kAdjustmentTick,   ///< global summary + elastic scaler round
  kMetricsTick,      ///< evaluation window rollover
  kTaskFault,        ///< a = index into SimConfig::faults: crash a task
};

/// 24 bytes.  The event type rides in the low byte of the sequence word, so
/// (time, order) is the whole sort key and the type never decides it: the
/// sequence numbers above it are unique.
struct Event {
  SimTime time = 0;
  std::uint64_t order = 0;  ///< (seq << 8) | type; seq is the FIFO tie-break
  std::uint32_t a = 0;
  /// Generation counter: lets the owner drop stale events cheaply (e.g. a
  /// kServiceDone scheduled before its task was restarted).
  std::uint32_t generation = 0;

  EventType type() const { return static_cast<EventType>(order & 0xff); }
  std::uint64_t seq() const { return order >> 8; }
};

/// Events ordered by (time, seq): a calendar queue with a far-future heap.
///
/// Simulated time is cut into slots of 2^kSlotShift ns (~16 us).  The
/// window of kBuckets slots starting at the clock's slot (~34 ms) is a ring
/// of buckets, one per slot; each bucket is a singly linked list of pooled
/// nodes kept sorted by (time, seq), and a bitmap marks the non-empty ones.
/// Events beyond the window (measurement, adjustment and metrics ticks,
/// task start-ups, long source gaps) wait in a binary heap and are pulled
/// into their buckets as the window slides over them.  Schedule is a short
/// sorted insert, Pop a bitmap scan plus a list unlink; neither allocates
/// once the node pool has grown to the peak number of pending events.
///
/// Invariants: the cursor is the clock's slot; every event whose slot is
/// inside the window sits in its bucket, every other one in the heap.
class EventQueue {
 public:
  EventQueue() {
    heads_.fill(kNil);
    nodes_.reserve(kInitialReserve);
  }

  /// Schedules an event at absolute time `when` (clamped to now).
  void Schedule(SimTime when, EventType type, std::uint32_t a = 0,
                std::uint32_t generation = 0) {
    Event e;
    e.time = when < now_ ? now_ : when;
    e.order = (next_seq_++ << 8) | static_cast<std::uint8_t>(type);
    e.a = a;
    e.generation = generation;
    ++size_;
    if ((e.time >> kSlotShift) < cursor_ + kBuckets) {
      Insert(e);
    } else {
      far_.push_back(e);
      std::push_heap(far_.begin(), far_.end(), Later{});
    }
  }

  bool Empty() const { return size_ == 0; }
  std::size_t Size() const { return size_; }

  /// Pops the earliest event and advances the clock to its time.  Not
  /// valid when Empty().
  Event Pop() {
    Event e;
    PopUntil(std::numeric_limits<SimTime>::max(), e);
    return e;
  }

  /// Pops the earliest event into `out` and advances the clock to its time
  /// if one is pending at or before `limit`; otherwise changes nothing and
  /// returns false.  One bitmap scan per event, where PeekTime then Pop
  /// would take two.
  bool PopUntil(SimTime limit, Event& out) {
    if (size_ == 0) return false;
    const std::int64_t offset = NextBucketOffset();
    if (offset < 0) {
      // Nothing inside the window: jump to the earliest far event's slot.
      if (far_.front().time > limit) return false;
      cursor_ = far_.front().time >> kSlotShift;
      PullFar();
    } else {
      const std::uint32_t b = static_cast<std::uint32_t>(cursor_ + offset) & kBucketMask;
      if (nodes_[heads_[b]].event.time > limit) return false;
      if (offset > 0) {
        cursor_ += offset;
        PullFar();
      }
    }
    const std::uint32_t b = static_cast<std::uint32_t>(cursor_) & kBucketMask;
    const std::uint32_t node = heads_[b];
    heads_[b] = nodes_[node].next;
    if (heads_[b] == kNil) bits_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    nodes_[node].next = free_;
    free_ = node;
    --size_;
    now_ = nodes_[node].event.time;
    out = nodes_[node].event;
    return true;
  }

  /// Earliest pending event time; only valid when not Empty().
  SimTime PeekTime() const {
    const std::int64_t offset = NextBucketOffset();
    if (offset < 0) return far_.front().time;
    const std::uint32_t b = static_cast<std::uint32_t>(cursor_ + offset) & kBucketMask;
    return nodes_[heads_[b]].event.time;
  }

  SimTime Now() const { return now_; }

 private:
  static constexpr int kSlotShift = 14;
  static constexpr std::int64_t kBuckets = 2048;
  static constexpr std::uint32_t kBucketMask = kBuckets - 1;
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr std::size_t kInitialReserve = 512;

  using Key = unsigned __int128;
  // Times are never negative (Schedule clamps to now >= 0), so the unsigned
  // key orders them correctly.
  static Key KeyOf(const Event& e) {
    return (static_cast<Key>(static_cast<std::uint64_t>(e.time)) << 64) | e.order;
  }
  struct Later {
    bool operator()(const Event& lhs, const Event& rhs) const { return KeyOf(lhs) > KeyOf(rhs); }
  };

  struct Node {
    Event event;
    std::uint32_t next = kNil;  // next node in the bucket, or in the free list
  };

  // Sorted insert into the event's bucket; the slot must be in the window.
  void Insert(const Event& e) {
    std::uint32_t node;
    if (free_ != kNil) {
      node = free_;
      free_ = nodes_[node].next;
      nodes_[node].event = e;
    } else {
      node = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{e, kNil});
    }
    const std::uint32_t b = static_cast<std::uint32_t>(e.time >> kSlotShift) & kBucketMask;
    const Key key = KeyOf(e);
    std::uint32_t* link = &heads_[b];
    while (*link != kNil && KeyOf(nodes_[*link].event) < key) link = &nodes_[*link].next;
    nodes_[node].next = *link;
    *link = node;
    bits_[b >> 6] |= std::uint64_t{1} << (b & 63);
  }

  // Moves the far events the window now covers into their buckets.
  void PullFar() {
    const SimTime window_end = (cursor_ + kBuckets) << kSlotShift;
    while (!far_.empty() && far_.front().time < window_end) {
      std::pop_heap(far_.begin(), far_.end(), Later{});
      Insert(far_.back());
      far_.pop_back();
    }
  }

  // Slots from the cursor to the first non-empty bucket, or -1 if every
  // bucket is empty.
  std::int64_t NextBucketOffset() const {
    const std::uint32_t start = static_cast<std::uint32_t>(cursor_) & kBucketMask;
    for (std::uint32_t offset = 0; offset < kBuckets;) {
      const std::uint32_t b = (start + offset) & kBucketMask;
      const std::uint64_t word = bits_[b >> 6] >> (b & 63);
      // After a wrap the start word is read again from bit 0; its bits at
      // and above the start were already seen empty, so any hit is in range.
      if (word != 0) return offset + std::countr_zero(word);
      offset += 64 - (b & 63);
    }
    return -1;
  }

  std::array<std::uint32_t, kBuckets> heads_;  // first node per bucket, or kNil
  std::array<std::uint64_t, kBuckets / 64> bits_{};
  std::vector<Node> nodes_;  // bucket nodes; the free ones are chained from free_
  std::uint32_t free_ = kNil;
  std::vector<Event> far_;  // heap (Later-ordered) of events beyond the window
  std::int64_t cursor_ = 0;  // absolute slot of the clock
  std::size_t size_ = 0;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace esp::sim
