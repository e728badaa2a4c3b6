// Streaming statistics used throughout the QoS subsystem.
//
// RunningStats implements Welford's online algorithm for numerically stable
// mean/variance; it is the workhorse behind every Table-I measurement
// (service time, inter-arrival time, latency) in the paper's architecture.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/function_effects.h"

namespace esp {

/// Online mean/variance accumulator (Welford).  All operations are O(1).
class RunningStats {
 public:
  /// Adds one observation.  Defined inline: this is the innermost call of
  /// every per-record metric path (millions of calls per second in the
  /// local runtime's samplers).
  void Add(double x) noexcept ESP_NONBLOCKING {
    if (count_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = x < min_ ? x : min_;
      max_ = x > max_ ? x : max_;
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  /// Adds `k` observations of the same value `x` in O(1): a one-step
  /// parallel-Welford merge (see Merge) of a k-point batch with mean `x`
  /// and zero spread.  Equal to k calls of Add(x) up to rounding; k = 0 is
  /// a no-op.
  void AddRepeated(double x, std::size_t k) noexcept ESP_NONBLOCKING {
    if (k == 0) return;
    if (count_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = x < min_ ? x : min_;
      max_ = x > max_ ? x : max_;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(k);
    const double n = na + nb;
    const double delta = x - mean_;
    mean_ += delta * nb / n;
    m2_ += delta * delta * na * nb / n;
    count_ += k;
  }

  /// Merges another accumulator into this one (parallel Welford), used when
  /// QoS managers fold task-level stats into partial summaries.
  void Merge(const RunningStats& other);

  /// Removes all observations.
  void Reset();

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Mean of the observations; 0 when empty.
  double Mean() const;

  /// Unbiased sample variance; 0 when fewer than two observations.
  double Variance() const;

  /// Square root of Variance().
  double StdDev() const;

  /// Coefficient of variation sqrt(Var)/mean; 0 when mean is 0 or empty.
  double Cv() const;

  double Min() const { return count_ ? min_ : 0.0; }
  double Max() const { return count_ ? max_ : 0.0; }
  double Sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Immutable snapshot of a RunningStats, cheap to copy into summaries.
struct StatsSnapshot {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;
  double cv = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Captures the current state of `stats` as a value type.
StatsSnapshot Snapshot(const RunningStats& stats);

/// Exponentially weighted moving average; used to smooth noisy per-interval
/// metrics before they are fed into the latency model.
class Ewma {
 public:
  /// `alpha` is the weight of the newest observation, in (0, 1].
  explicit Ewma(double alpha);

  /// Folds in a new observation and returns the updated average.
  double Add(double x);

  /// Current value; 0 before the first observation.
  double Value() const { return value_; }

  bool HasValue() const { return initialized_; }

  void Reset();

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace esp
