// Log-scaled latency histogram.
//
// Used by benches and the runtime to report latency distributions without
// storing raw samples.  Buckets grow geometrically, giving ~5 % relative
// resolution across nine decades (1 ns .. ~1000 s).  Classifying a value
// takes no std::log: an estimate from the double's exponent bits is
// corrected by comparing against a precomputed table of bucket edges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/function_effects.h"

namespace esp {

/// Geometric-bucket histogram over positive values.
class LogHistogram {
 public:
  /// `base` is the bucket growth factor (> 1); `min_value` the lower edge of
  /// the first bucket.  Values below min_value land in bucket 0.  Buckets
  /// are allocated on demand as larger values arrive, up to `max_buckets`
  /// (values beyond that land in the final bucket).
  explicit LogHistogram(double min_value = 1.0, double base = 1.05,
                        std::size_t max_buckets = 4096);

  /// Records one observation.  ESP_NONALLOCATING: the steady state hits
  /// existing buckets; the on-demand bucket growth is a cold escape.
  void Add(double x) ESP_NONALLOCATING;

  /// Merges another histogram with identical parameters.
  void Merge(const LogHistogram& other);

  /// Bucket of `x`: 0 for x <= min_value, else the i >= 1 with
  /// BucketLowerEdge(i) <= x < BucketLowerEdge(i + 1) (the last bucket is
  /// open-ended).  Monotone in x.
  std::size_t BucketFor(double x) const noexcept ESP_NONBLOCKING;

  /// Lower edge of bucket i: 0 for bucket 0, min_value * base^(i-1) above.
  double BucketLowerEdge(std::size_t i) const;

  std::uint64_t count() const { return count_; }

  /// Approximate quantile (q in [0, 1]) via bucket interpolation; 0 if empty.
  double Quantile(double q) const;

  /// Arithmetic mean of recorded values (tracked exactly, not from buckets).
  double Mean() const;

  void Reset();

  /// One-line summary "count=.. mean=.. p50=.. p95=.. p99=.. max=..".
  std::string Summary() const;

 private:
  double min_value_;
  double log_base_;
  std::size_t max_buckets_;
  // BucketFor's estimate: log2(min_value) and buckets per factor of 2.
  double log2_min_;
  double buckets_per_octave_;
  // edges_[j] = BucketLowerEdge(j + 1), j < max_buckets - 1: shared by
  // every histogram with these parameters, immutable, never freed.
  const std::vector<double>* edges_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_seen_ = 0.0;
};

}  // namespace esp
