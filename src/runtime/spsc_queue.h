// Lock-free bounded SPSC channel: the lane building block of a task's input
// queue.  LocalEngine composes one SpscQueue PER PRODUCER TASK into a
// FaninLanes array (fanin_lanes.h) for every queue-fed task (DESIGN.md §10,
// §14); on its own it is a complete blocking queue for one producer and one
// consumer.
//
// The single-producer / single-consumer restriction lets both cursors
// advance without a lock, and publication is BATCH-granular all the way
// down: the ring's slots hold whole CHUNKS (std::vector<T>), so a push is
// one vector swap into a slot plus one `tail_` store, and a pop swaps the
// chunk back out -- zero per-item moves on either side.  The swap also
// closes the engine's capacity-recycling loop without a free pool: the
// producer's spent batch vector inherits whatever capacity the consumer's
// previous pop left in the slot, and vice versa.
//
//   * `head_`/`tail_` are cache-line-padded monotonic chunk cursors
//     (power-of-two mask, no wrapping logic); `items_` mirrors the queued
//     record count for backpressure and the drain detector's Empty().
//   * The park mutex and condvars are touched only on EMPTY/FULL
//     transitions, and producer wakeups are THROTTLED: under sustained
//     backpressure a pop only takes the park mutex when occupancy falls
//     below the low watermark (capacity/4) or a full chunk ring regains a
//     slot, so the producer is woken once per drained quarter-queue, not
//     once per pop.  The producer's timed wait bounds
//     the cost of any wake this throttling skips.
//     The park protocol is Dekker-style: a side raises its
//     `*_parked_` flag (seq_cst) and re-checks the state before sleeping,
//     while the opposite side publishes its cursor/count (seq_cst) and then
//     reads the flag -- the seq_cst total order guarantees one of them sees
//     the other, so either the sleeper re-checks successfully or the
//     notifier notifies.  Notifies happen with the park mutex held (never
//     lost between the sleeper's re-check and its wait), and waits are
//     timed as defense in depth.
//
// The recovery surface the supervisor drives (through FaninLanes):
//   * PushFront re-admits salvaged records through a mutex-guarded stash
//     that PopBatchFor consumes BEFORE ring items.  PushFront is only
//     called while the consumer is quiescent (restart paths join the task
//     thread first), so the stash never races a live pop.
//   * DrainAll lets the supervisor act as the consumer of a dead task's
//     backlog (the producer may still be live and mid-push; the cursor
//     atomics make that safe).
//   * `mark_busy` is raised BEFORE the pop is published, so the
//     stop-the-world drain detector's "Empty() then busy" read order can
//     never miss an in-flight record.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/function_effects.h"
#include "common/thread_annotations.h"

namespace esp::runtime {

template <typename T>
class FaninLanes;  // fanin_lanes.h: per-producer lane arrays reuse the leaves below

template <typename T>
class SpscQueue {
 public:
  /// `capacity` bounds the queued RECORD count; the chunk ring is sized so
  /// one-record chunks can still fill it.  A batch larger than `capacity`
  /// is admitted whenever the count is below it, so it never deadlocks.
  explicit SpscQueue(std::size_t capacity)
      : ring_(RingSlots(capacity)),
        mask_(ring_.size() - 1),
        capacity_(capacity),
        low_watermark_(std::max<std::size_t>(1, capacity / 4)) {}

  /// Blocks until the batch is in the ring or the queue is closed; false
  /// when closed (remaining items are dropped).  The batch lands as ONE
  /// chunk via vector swap, and `items` comes back empty but carrying the
  /// slot's recycled capacity (the engine's recharge contract).
  bool PushAll(std::vector<T>& items) ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    if (items.empty()) return !closed_.load(std::memory_order_seq_cst);
    for (;;) {
      bool want_wake = false;
      switch (TryPush(items, want_wake)) {
        case PushStatus::kOk:
          if (want_wake) WakeConsumer();
          return true;
        case PushStatus::kClosed:
          return false;
        case PushStatus::kFull:
          ParkProducer();  // full ring IS the engine's backpressure
          break;
      }
    }
  }

  bool PushAll(std::vector<T>&& items) ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    return PushAll(items);
  }

  /// Drains up to `max_items` into `out` (cleared first), waiting up to
  /// `timeout` for the first item; 0 on timeout or closed-and-drained.
  /// Salvage stash items come out before ring items.  The first whole chunk
  /// comes out by swap (donating `out`'s spare capacity to the slot);
  /// further chunks are appended until the budget is hit.  `mark_busy`,
  /// when given, is raised BEFORE the pop is published iff items return.
  std::size_t PopBatchFor(std::size_t max_items, std::chrono::nanoseconds timeout,
                          std::vector<T>& out,
                          std::atomic<bool>* mark_busy = nullptr)
      ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    out.clear();
    if (stash_size_.load(std::memory_order_seq_cst) > 0) {
      const std::size_t n = TakeStash(max_items, out, mark_busy);
      if (n > 0) return n;
    }
    bool want_wake = false;
    std::size_t taken = PopReady(max_items, out, mark_busy, want_wake);
    if (taken == 0) {
      if (closed_.load(std::memory_order_seq_cst)) return 0;
      ParkConsumer(timeout);
      if (stash_size_.load(std::memory_order_seq_cst) > 0) {
        const std::size_t n = TakeStash(max_items, out, mark_busy);
        if (n > 0) return n;
      }
      taken = PopReady(max_items, out, mark_busy, want_wake);
      if (taken == 0) return 0;
    }
    // Throttled wake (see file header): taking the park mutex on EVERY pop
    // while the producer idles parked would make the saturated regime as
    // mutex-bound as a locked queue.  Waking only when the producer can make
    // real progress -- occupancy below the watermark, or a full ring with a
    // slot again -- amortises one wake over a quarter-queue of drain; the
    // producer's 1ms timed wait covers the corner where occupancy hovers
    // between the watermark and capacity.
    if (want_wake) WakeProducer();
    return taken;
  }

  /// Re-admits items ahead of everything queued, ignoring capacity and the
  /// closed flag.  Recovery-only; requires a quiescent consumer (the
  /// restart paths join the task thread before calling this).
  void PushFront(std::vector<T>&& items) ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    if (items.empty()) return;
    MutexLock lock(park_mutex_);
    stash_.insert(stash_.begin(), std::make_move_iterator(items.begin()),
                  std::make_move_iterator(items.end()));
    stash_size_.store(stash_.size(), std::memory_order_seq_cst);
    not_empty_.NotifyAll();
  }

  /// Removes and returns everything queued (stash first) without waiting.
  /// Recovery-only: the caller takes over the consumer role, which is safe
  /// because the real consumer is dead or joined before salvage runs.  The
  /// producer may still be live; the park mutex is held across the drain so
  /// a parked producer is re-checked, not stranded.
  std::vector<T> DrainAll() ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    std::vector<T> out;
    MutexLock lock(park_mutex_);
    out.reserve(stash_.size() + items_.load(std::memory_order_seq_cst));
    out.insert(out.end(), std::make_move_iterator(stash_.begin()),
               std::make_move_iterator(stash_.end()));
    stash_.clear();
    stash_size_.store(0, std::memory_order_seq_cst);
    std::uint64_t head = head_.load(std::memory_order_seq_cst);
    const std::uint64_t tail = tail_.load(std::memory_order_seq_cst);
    std::size_t drained = 0;
    for (; head != tail; ++head) {
      std::vector<T>& chunk = ring_[static_cast<std::size_t>(head) & mask_];
      const auto begin = chunk.begin() + static_cast<std::ptrdiff_t>(chunk_off_);
      drained += static_cast<std::size_t>(std::distance(begin, chunk.end()));
      out.insert(out.end(), std::make_move_iterator(begin),
                 std::make_move_iterator(chunk.end()));
      chunk.clear();
      chunk_off_ = 0;
    }
    items_.fetch_sub(drained, std::memory_order_seq_cst);
    head_.store(head, std::memory_order_seq_cst);
    not_full_.NotifyAll();
    return out;
  }

  /// Marks the queue closed; the producer unblocks, the consumer drains
  /// what's left.
  void Close() ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    closed_.store(true, std::memory_order_seq_cst);
    MutexLock lock(park_mutex_);
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  bool closed() const { return closed_.load(std::memory_order_seq_cst); }

  /// Approximate under concurrency (count and stash reads are not one
  /// snapshot), exact once the writers quiesce -- which is when the drain
  /// detector reads it.
  std::size_t size() const {
    return items_.load(std::memory_order_seq_cst) +
           stash_size_.load(std::memory_order_seq_cst);
  }

  bool Empty() const { return size() == 0; }

  std::size_t capacity() const { return capacity_; }

 private:
  /// FaninLanes composes one SpscQueue per producer into a fan-in array: it
  /// drives the lock-free leaves (TryPush/PopReady) and the per-lane park
  /// protocol directly, while providing its own aggregate consumer park, so
  /// the leaves stay private to everyone else.
  template <typename>
  friend class FaninLanes;

  /// Chunk slots: enough for `capacity` one-record chunks (instant flush),
  /// rounded up to a power of two for mask indexing.  Larger chunks simply
  /// leave slots unused; the record-count bound is `capacity_`.
  static std::size_t RingSlots(std::size_t capacity) {
    std::size_t n = 1;
    while (n < capacity) n <<= 1;
    return n;
  }

  enum class PushStatus { kOk, kFull, kClosed };

  /// Lock-free producer fast path: one attempt to land `items` as a chunk.
  /// Never parks, never takes the park mutex -- on kOk the caller owes the
  /// consumer a wake iff `want_wake` came back true (the parked-flag read is
  /// the producer half of the Dekker handshake, so it must stay ordered
  /// after the seq_cst publication stores in here).
  PushStatus TryPush(std::vector<T>& items, bool& want_wake) noexcept ESP_NONBLOCKING {
    if (closed_.load(std::memory_order_seq_cst)) return PushStatus::kClosed;
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head == ring_.size() ||
        items_.load(std::memory_order_seq_cst) >= capacity_) {
      return PushStatus::kFull;
    }
    const std::size_t n = items.size();
    ring_[static_cast<std::size_t>(tail) & mask_].swap(items);
    items.clear();  // moved-from slot leftovers; keep its capacity
    // Publish count before the cursor so size() never under-reports a
    // visible chunk; both seq_cst so they order before the parked-flag
    // read below (the Dekker handshake with ParkConsumer).
    items_.fetch_add(n, std::memory_order_seq_cst);
    tail_.store(tail + 1, std::memory_order_seq_cst);
    want_wake = consumer_parked_.load(std::memory_order_seq_cst);
    return PushStatus::kOk;
  }

  /// Lock-free consumer fast path: drains whatever the ring already holds
  /// (up to `max_items`) without waiting; 0 when the ring is empty.
  /// `want_wake` comes back true when the throttle says a parked producer
  /// can now make real progress; the caller performs the actual (blocking)
  /// wake so this stays a pure ring operation.
  std::size_t PopReady(std::size_t max_items, std::vector<T>& out,
                       std::atomic<bool>* mark_busy, bool& want_wake) noexcept
      ESP_NONBLOCKING {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_seq_cst);
    if (head == tail) return 0;
    if (mark_busy != nullptr) mark_busy->store(true, std::memory_order_seq_cst);
    std::uint64_t next = head;
    std::size_t taken = 0;
    while (next != tail && taken < max_items) {
      std::vector<T>& chunk = ring_[static_cast<std::size_t>(next) & mask_];
      const std::size_t remaining = chunk.size() - chunk_off_;
      if (chunk_off_ == 0 && out.empty() && chunk.size() <= max_items) {
        out.swap(chunk);  // zero-copy; slot inherits out's spare capacity
        taken = out.size();
      } else if (remaining <= max_items - taken) {
        const auto begin = chunk.begin() + static_cast<std::ptrdiff_t>(chunk_off_);
        ESP_EFFECTS_ESCAPE_BEGIN  // cold-start growth only: out keeps its capacity across pops, so steady-state inserts fit the reserve
        out.insert(out.end(), std::make_move_iterator(begin),
                   std::make_move_iterator(chunk.end()));
        ESP_EFFECTS_ESCAPE_END
        taken += remaining;
        chunk.clear();
        chunk_off_ = 0;
      } else {
        // Oversized chunk (batch_capacity > max_items): consume a partial
        // run and leave the cursor on this chunk.
        const std::size_t take = max_items - taken;
        const auto begin = chunk.begin() + static_cast<std::ptrdiff_t>(chunk_off_);
        ESP_EFFECTS_ESCAPE_BEGIN  // cold-start growth only: out keeps its capacity across pops, so steady-state inserts fit the reserve
        out.insert(out.end(), std::make_move_iterator(begin),
                   std::make_move_iterator(begin + static_cast<std::ptrdiff_t>(take)));
        ESP_EFFECTS_ESCAPE_END
        chunk_off_ += take;
        taken += take;
        break;
      }
      ++next;
    }
    // One publication per pop; seq_cst orders it before the parked-flag
    // read (the Dekker handshake with ParkProducer).
    const bool ring_was_full = tail - head == ring_.size();
    const std::size_t items_left =
        items_.fetch_sub(taken, std::memory_order_seq_cst) - taken;
    head_.store(next, std::memory_order_seq_cst);
    want_wake = (items_left < low_watermark_ || ring_was_full) &&
                producer_parked_.load(std::memory_order_seq_cst);
    return taken;
  }

  /// Consumer side of the park protocol.  Raise the flag, re-check, then
  /// sleep under the mutex with the predicate re-checked each wakeup.
  void ParkConsumer(std::chrono::nanoseconds timeout) ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    consumer_parked_.store(true, std::memory_order_seq_cst);
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    {
      MutexLock lock(park_mutex_);
      while (items_.load(std::memory_order_seq_cst) == 0 &&
             stash_size_.load(std::memory_order_seq_cst) == 0 &&
             !closed_.load(std::memory_order_seq_cst)) {
        if (not_empty_.WaitUntil(lock, deadline) == std::cv_status::timeout) break;
      }
    }
    consumer_parked_.store(false, std::memory_order_seq_cst);
  }

  /// Producer side.  No overall deadline: a full queue IS the engine's
  /// backpressure, as with Nephele's bounded channels.  The waits
  /// are timed anyway so a lost wakeup degrades to a 1ms hiccup, not a hang.
  /// This 1 ms timed wait is producer-side only: the engine's consumers
  /// park until their task's next due event (capped at 50 ms), see
  /// LocalEngine::NextWakeNs.
  void ParkProducer() ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    producer_parked_.store(true, std::memory_order_seq_cst);
    {
      MutexLock lock(park_mutex_);
      while ((tail_.load(std::memory_order_seq_cst) -
                      head_.load(std::memory_order_seq_cst) ==
                  ring_.size() ||
              items_.load(std::memory_order_seq_cst) >= capacity_) &&
             !closed_.load(std::memory_order_seq_cst)) {
        not_full_.WaitFor(lock, std::chrono::milliseconds(1));
      }
    }
    producer_parked_.store(false, std::memory_order_seq_cst);
  }

  /// Notifies with the park mutex held: the sleeper either still holds the
  /// mutex re-checking its predicate (we wait for it) or is already waiting
  /// (the notify lands).  Only reached on empty/full transitions.
  void WakeConsumer() ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    MutexLock lock(park_mutex_);
    not_empty_.NotifyAll();
  }

  void WakeProducer() ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    MutexLock lock(park_mutex_);
    not_full_.NotifyAll();
  }

  /// Pops up to `max_items` salvaged records.  `mark_busy` is raised before
  /// `stash_size_` drops so the drain detector cannot observe the records as
  /// neither queued nor in flight.
  std::size_t TakeStash(std::size_t max_items, std::vector<T>& out,
                        std::atomic<bool>* mark_busy) ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    MutexLock lock(park_mutex_);
    const std::size_t take = std::min(stash_.size(), max_items);
    if (take == 0) return 0;
    if (mark_busy != nullptr) mark_busy->store(true, std::memory_order_seq_cst);
    const auto begin = stash_.begin();
    out.insert(out.end(), std::make_move_iterator(begin),
               std::make_move_iterator(begin + static_cast<std::ptrdiff_t>(take)));
    stash_.erase(begin, begin + static_cast<std::ptrdiff_t>(take));
    stash_size_.store(stash_.size(), std::memory_order_seq_cst);
    return take;
  }

  // Chunk storage: slot contents are written by the producer and read by
  // the consumer with ownership decided by the cursors; the seq_cst cursor
  // stores above are the synchronisation edges TSan and the memory model
  // see.  `chunk_off_` (consumer-only) tracks the partially-consumed front
  // chunk when a chunk exceeds the pop budget.
  std::vector<std::vector<T>> ring_;
  const std::size_t mask_;
  const std::size_t capacity_;
  /// Occupancy below which a pop wakes a parked producer (wake throttling).
  const std::size_t low_watermark_;
  std::size_t chunk_off_ = 0;

  // Producer-owned and consumer-owned cursors on separate cache lines (and
  // padded away from the cold fields below).  `items_` is the queued record
  // count (both sides write, control thread reads).
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::size_t> items_{0};
  std::atomic<bool> closed_{false};
  std::atomic<bool> consumer_parked_{false};
  std::atomic<bool> producer_parked_{false};
  /// Mirror of stash_.size() readable without the park mutex (Empty()/size()
  /// run on the control thread inside the drain detector).
  std::atomic<std::size_t> stash_size_{0};

  mutable Mutex park_mutex_;
  CondVar not_empty_;
  CondVar not_full_;
  /// Salvage re-admitted ahead of the ring (see PushFront).
  std::vector<T> stash_ ESP_GUARDED_BY(park_mutex_);
};

}  // namespace esp::runtime
