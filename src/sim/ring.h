// FIFO ring buffer for the simulator's per-task and per-channel queues.
//
// std::deque allocates and frees a block every few elements as a queue
// streams through it; at millions of items per simulated run that was a
// steady malloc/free pair per handful of items.  Ring keeps one
// power-of-two array that doubles when full and never shrinks, so a queue
// that has reached its working size streams without touching the
// allocator.  Popped slots keep their (moved-from) contents until the next
// push overwrites them.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace esp::sim {

template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() { return slots_[head_]; }
  /// The i-th element from the front; i < size().
  const T& operator[](std::size_t i) const { return slots_[(head_ + i) & mask_]; }

  void push_back(T value) {
    if (size_ == slots_.size()) Grow();
    slots_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  /// Empties the ring, keeping its capacity.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void Grow() {
    std::vector<T> bigger(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move(slots_[(head_ + i) & mask_]);
    slots_ = std::move(bigger);
    mask_ = slots_.size() - 1;
    head_ = 0;
  }

  static constexpr std::size_t kMinCapacity = 8;

  std::vector<T> slots_;  // capacity is 0 or a power of two
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace esp::sim
