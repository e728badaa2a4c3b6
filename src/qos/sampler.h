// Per-task and per-channel metric samplers (paper Table I, "measured by
// random sampling").
//
// A sampler accumulates observations during one measurement interval and is
// harvested (read + reset) by the QoS reporter that owns it.  Task-latency
// observations are subsampled with a configurable probability to bound
// measurement overhead, mirroring the paper's random-sampling approach.
#pragma once

#include "common/function_effects.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"
#include "qos/summary.h"

namespace esp {

/// Collects one task's Table-I metrics during a measurement interval.
class TaskSampler {
 public:
  /// `latency_sample_probability` controls which items contribute a task
  /// latency observation (service/interarrival times are always tracked,
  /// they are byproducts of normal queue operation).
  explicit TaskSampler(double latency_sample_probability = 1.0,
                       std::uint64_t rng_seed = 1);

  // The per-item recorders below are defined inline: they sit on the
  // runtime's per-record metric path (millions of calls per second).

  /// Records that the task consumed `n` items at time `t` (one popped
  /// batch); maintains the inter-arrival statistics A_v.  The first item's
  /// gap is t minus the previous arrival, the other n-1 arrive together
  /// (gap 0), so this equals n single-item calls at t -- in O(1).  With
  /// n = 1 it is bit-identical to one Add of the gap.
  void RecordArrivals(SimTime t, std::uint64_t n) noexcept ESP_NONBLOCKING {
    if (n == 0) return;
    if (last_arrival_ >= 0) {
      interarrival_.Add(ToSeconds(t - last_arrival_));
    }
    interarrival_.AddRepeated(0.0, n - 1);
    last_arrival_ = t;
    items_ += n;
  }

  /// RecordArrivals(t, 1), kept for callers that time one arrival in
  /// isolation (espbench's layer budget).
  void RecordArrival(SimTime t) noexcept ESP_NONBLOCKING { RecordArrivals(t, 1); }

  /// Records how long the task was busy with one item (service time S_v),
  /// in seconds.
  void RecordServiceTime(double seconds) noexcept ESP_NONBLOCKING { service_.Add(seconds); }

  /// Offers a task-latency observation (read-ready or read-write, chosen by
  /// the UDF); it is kept with the configured sampling probability.
  void OfferTaskLatency(double seconds) noexcept ESP_NONBLOCKING {
    if (sample_probability_ >= 1.0 || rng_.Bernoulli(sample_probability_)) {
      latency_.Add(seconds);
    }
  }

  /// Returns the interval's aggregate measurement and resets interval state.
  /// Inter-arrival tracking continues across intervals (the previous arrival
  /// time is retained) so no gap statistics are lost.
  TaskMeasurement Harvest();

  /// Items consumed since the last harvest.
  std::uint64_t items() const { return items_; }

 private:
  double sample_probability_;
  Rng rng_;
  RunningStats service_;
  RunningStats interarrival_;
  RunningStats latency_;
  SimTime last_arrival_ = -1;
  std::uint64_t items_ = 0;
};

/// Collects one channel's Table-I metrics during a measurement interval.
class ChannelSampler {
 public:
  explicit ChannelSampler(double latency_sample_probability = 1.0,
                          std::uint64_t rng_seed = 1);

  /// Offers an emit-to-consume latency observation (l_e), in seconds.
  void OfferChannelLatency(double seconds) noexcept ESP_NONBLOCKING {
    if (sample_probability_ >= 1.0 || rng_.Bernoulli(sample_probability_)) {
      channel_latency_.Add(seconds);
    }
  }

  /// Offers an output-batch wait observation (obl_e), in seconds.
  void OfferOutputBatchLatency(double seconds) noexcept ESP_NONBLOCKING {
    if (sample_probability_ >= 1.0 || rng_.Bernoulli(sample_probability_)) {
      batch_latency_.Add(seconds);
    }
  }

  /// Counts one item shipped through the channel.
  void CountItem() noexcept ESP_NONBLOCKING { ++items_; }

  /// Counts `n` items at once -- the chained-edge path attributes a whole
  /// fused batch arithmetically (no per-record sampler call).
  void CountItems(std::uint64_t n) noexcept ESP_NONBLOCKING { items_ += n; }

  /// Returns the interval's aggregate measurement and resets interval state.
  ChannelMeasurement Harvest();

 private:
  double sample_probability_;
  Rng rng_;
  RunningStats channel_latency_;
  RunningStats batch_latency_;
  std::uint64_t items_ = 0;
};

}  // namespace esp
