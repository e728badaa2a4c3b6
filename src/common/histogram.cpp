#include "common/histogram.h"

#include "common/function_effects.h"
#include "common/thread_annotations.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <numbers>
#include <sstream>
#include <stdexcept>

namespace esp {
namespace {

struct EdgeTable {
  double min_value;
  double log_base;
  std::size_t max_buckets;
  std::vector<double> edges;
};

// The bucket edges for one (min_value, log_base, max_buckets): computed
// once per distinct parameter set in the process and shared, so building a
// histogram costs a short lookup rather than max_buckets std::exp calls.
// Tables are immutable once built and live as long as the process.
const std::vector<double>* SharedEdges(double min_value, double log_base,
                                       std::size_t max_buckets) {
  static Mutex mutex;
  static std::deque<EdgeTable> tables ESP_GUARDED_BY(mutex);  // a deque keeps addresses stable
  MutexLock lock(mutex);
  for (const EdgeTable& t : tables) {
    if (t.min_value == min_value && t.log_base == log_base && t.max_buckets == max_buckets) {
      return &t.edges;
    }
  }
  EdgeTable& t = tables.emplace_back(EdgeTable{min_value, log_base, max_buckets, {}});
  t.edges.resize(max_buckets - 1);
  // BucketLowerEdge reads this table too, so quantile interpolation and
  // classification share every edge.
  for (std::size_t j = 0; j < t.edges.size(); ++j) {
    t.edges[j] = min_value * std::exp(log_base * static_cast<double>(j));
  }
  return &t.edges;
}

}  // namespace

LogHistogram::LogHistogram(double min_value, double base, std::size_t max_buckets)
    : min_value_(min_value), max_buckets_(max_buckets) {
  if (min_value <= 0) throw std::invalid_argument("LogHistogram: min_value must be > 0");
  if (base <= 1.0) throw std::invalid_argument("LogHistogram: base must be > 1");
  if (max_buckets < 2) throw std::invalid_argument("LogHistogram: need >= 2 buckets");
  log_base_ = std::log(base);
  log2_min_ = std::log2(min_value);
  buckets_per_octave_ = std::numbers::ln2 / log_base_;
  edges_ = SharedEdges(min_value, log_base_, max_buckets);
  buckets_.resize(2, 0);
}

std::size_t LogHistogram::BucketFor(double x) const noexcept ESP_NONBLOCKING {
  if (!(x > min_value_)) return 0;
  // Estimate log2(x): the unbiased exponent plus log2 of the mantissa
  // 1 + f, approximated by f + c f (1 - f) (absolute error < 0.008).
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const double exponent = static_cast<double>(static_cast<int>(bits >> 52) - 1023);
  const double f = std::bit_cast<double>((bits & kMantissa) | std::bit_cast<std::uint64_t>(1.0)) - 1.0;
  const double est = (exponent + f + 0.3466 * f * (1.0 - f) - log2_min_) * buckets_per_octave_;
  const std::size_t last = max_buckets_ - 1;
  std::size_t i = est <= 0.0                                ? 1
                  : est >= static_cast<double>(last - 1) ? last
                                                          : static_cast<std::size_t>(est) + 1;
  // Exact answer by comparison: bucket i holds [edges[i-1], edges[i]).  For
  // bases above ~1.0054 the estimate is within one bucket, which the two
  // branch-free steps settle; the loops only run for finer bases.
  const double* edges = edges_->data();
  i -= static_cast<std::size_t>(i > 1 && x < edges[i - 1]);
  i += static_cast<std::size_t>(i < last && x >= edges[i]);
  while (i > 1 && x < edges[i - 1]) --i;
  while (i < last && x >= edges[i]) ++i;
  return i;
}

double LogHistogram::BucketLowerEdge(std::size_t i) const {
  return i == 0 ? 0.0 : (*edges_)[std::min(i, max_buckets_ - 1) - 1];
}

void LogHistogram::Add(double x) ESP_NONALLOCATING {
  if (x < 0 || !std::isfinite(x)) return;  // ignore invalid observations
  const std::size_t i = BucketFor(x);
  if (i >= buckets_.size()) {
    ESP_EFFECTS_ESCAPE_BEGIN  // on-demand bucket growth: happens O(log range) times per histogram lifetime, never in steady state
    buckets_.resize(i + 1, 0);
    ESP_EFFECTS_ESCAPE_END
  }
  ++buckets_[i];
  ++count_;
  sum_ += x;
  max_seen_ = std::max(max_seen_, x);
}

void LogHistogram::Merge(const LogHistogram& other) {
  if (other.max_buckets_ != max_buckets_ || other.min_value_ != min_value_ ||
      other.log_base_ != log_base_) {
    throw std::invalid_argument("LogHistogram::Merge: parameter mismatch");
  }
  if (other.buckets_.size() > buckets_.size()) buckets_.resize(other.buckets_.size(), 0);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  max_seen_ = std::max(max_seen_, other.max_seen_);
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t b = buckets_[i];
    if (b == 0) continue;
    if (static_cast<double>(acc + b) >= target) {
      // Interpolate within the bucket.
      const double lo = BucketLowerEdge(i);
      const double hi = i + 1 < buckets_.size()
                            ? BucketLowerEdge(i + 1)
                            : std::max(max_seen_, lo);
      const double frac = (target - static_cast<double>(acc)) / static_cast<double>(b);
      return lo + frac * (hi - lo);
    }
    acc += b;
  }
  return max_seen_;
}

double LogHistogram::Mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

void LogHistogram::Reset() {
  buckets_.assign(2, 0);
  count_ = 0;
  sum_ = 0.0;
  max_seen_ = 0.0;
}

std::string LogHistogram::Summary() const {
  std::ostringstream os;
  os << "count=" << count_ << " mean=" << Mean() << " p50=" << Quantile(0.5)
     << " p95=" << Quantile(0.95) << " p99=" << Quantile(0.99)
     << " max=" << max_seen_;
  return os.str();
}

}  // namespace esp
