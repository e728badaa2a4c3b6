// Unit tests for the common substrate: RNG, statistics, quantile
// estimators, samplers and histograms.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/histogram.h"
#include "common/percentile.h"
#include "common/reservoir.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"
#include "common/zipf.h"

namespace esp {
namespace {

TEST(Time, RoundTripConversions) {
  EXPECT_EQ(FromSeconds(1.5), 1'500'000'000);
  EXPECT_EQ(FromMillis(20), 20'000'000);
  EXPECT_EQ(FromMicros(3), 3'000);
  EXPECT_DOUBLE_EQ(ToSeconds(FromSeconds(2.25)), 2.25);
  EXPECT_DOUBLE_EQ(ToMillis(FromMillis(0.5)), 0.5);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng parent1(7);
  Rng parent2(7);
  Rng child1 = parent1.Fork();
  Rng child2 = parent2.Fork();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child1.Next(), child2.Next());
  // Parent streams continue identically after forking.
  for (int i = 0; i < 32; ++i) EXPECT_EQ(parent1.Next(), parent2.Next());
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntIsInRangeAndRoughlyUniform) {
  Rng rng(5);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const std::int64_t v = rng.UniformInt(0, 9);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 9);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(5);
  EXPECT_THROW(rng.UniformInt(3, 2), std::invalid_argument);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.005);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Normal(5.0, 2.0));
  EXPECT_NEAR(stats.Mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.StdDev(), 2.0, 0.05);
}

TEST(Rng, LogNormalMeanCvHitsTargets) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 300000; ++i) stats.Add(rng.LogNormalMeanCv(0.01, 0.5));
  EXPECT_NEAR(stats.Mean(), 0.01, 0.0005);
  EXPECT_NEAR(stats.Cv(), 0.5, 0.02);
}

TEST(Rng, LogNormalZeroCvIsDeterministic) {
  Rng rng(17);
  EXPECT_DOUBLE_EQ(rng.LogNormalMeanCv(3.0, 0.0), 3.0);
}

TEST(Rng, GammaMeanMatches) {
  Rng rng(19);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Gamma(2.0, 3.0);
  EXPECT_NEAR(sum / n, 6.0, 0.1);
}

TEST(Rng, GammaShapeBelowOne) {
  Rng rng(23);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Gamma(0.5, 2.0);
  EXPECT_NEAR(sum / n, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ZipfRankOneIsMostFrequent) {
  Rng rng(31);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t k = rng.Zipf(10, 1.5);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 10u);
    ++counts[k];
  }
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[5]);
}

TEST(Rng, ZipfRejectsExponentAtOrBelowOne) {
  Rng rng(31);
  EXPECT_THROW(rng.Zipf(10, 1.0), std::invalid_argument);
}

TEST(ZipfSampler, MatchesAnalyticPmf) {
  ZipfSampler sampler(5, 1.0);
  Rng rng(37);
  std::vector<int> counts(6, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(rng)];
  for (std::uint64_t k = 1; k <= 5; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(n), sampler.Pmf(k), 0.01);
  }
}

TEST(ZipfSampler, PmfSumsToOne) {
  ZipfSampler sampler(100, 0.8);
  double total = 0;
  for (std::uint64_t k = 1; k <= 100; ++k) total += sampler.Pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RunningStats, WelfordMatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats stats;
  for (double x : xs) stats.Add(x);
  const double mean = 31.0 / 5.0;
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= 4.0;
  EXPECT_DOUBLE_EQ(stats.Mean(), mean);
  EXPECT_NEAR(stats.Variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(stats.Min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 16.0);
  EXPECT_EQ(stats.count(), 5u);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(41);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(0, 1);
    all.Add(x);
    (i % 2 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_NEAR(a.Mean(), all.Mean(), 1e-12);
  EXPECT_NEAR(a.Variance(), all.Variance(), 1e-10);
  EXPECT_EQ(a.count(), all.count());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a;
  RunningStats b;
  b.Add(3.0);
  a.Merge(b);  // empty.Merge(nonempty)
  EXPECT_DOUBLE_EQ(a.Mean(), 3.0);
  RunningStats c;
  a.Merge(c);  // nonempty.Merge(empty)
  EXPECT_DOUBLE_EQ(a.Mean(), 3.0);
  EXPECT_EQ(a.count(), 1u);
}

TEST(RunningStats, CvIsZeroWhenUndefined) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.Cv(), 0.0);
  s.Add(0.0);
  s.Add(0.0);
  EXPECT_DOUBLE_EQ(s.Cv(), 0.0);
}

TEST(RunningStats, AddRepeatedEqualsRepeatedAdd) {
  // From empty, after a varied prefix, with k = 1, and with large k.
  Rng rng(17);
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{63}, std::size_t{5000}}) {
    for (const int prefix : {0, 1, 40}) {
      RunningStats repeated;
      RunningStats looped;
      for (int i = 0; i < prefix; ++i) {
        const double x = rng.Exponential(3.0);
        repeated.Add(x);
        looped.Add(x);
      }
      const double x = rng.Uniform(-2.0, 2.0);
      repeated.AddRepeated(x, k);
      for (std::size_t i = 0; i < k; ++i) looped.Add(x);
      SCOPED_TRACE(::testing::Message() << "k=" << k << " prefix=" << prefix);
      EXPECT_EQ(repeated.count(), looped.count());
      EXPECT_NEAR(repeated.Mean(), looped.Mean(), 1e-12 * std::max(1.0, std::abs(looped.Mean())));
      EXPECT_NEAR(repeated.Variance(), looped.Variance(),
                  1e-12 * std::max(1.0, looped.Variance()));
      EXPECT_EQ(repeated.Min(), looped.Min());
      EXPECT_EQ(repeated.Max(), looped.Max());
    }
  }
  RunningStats none;
  none.AddRepeated(4.0, 0);
  EXPECT_TRUE(none.empty());
}

TEST(Ewma, ConvergesToConstantInput) {
  Ewma ewma(0.3);
  for (int i = 0; i < 100; ++i) ewma.Add(7.0);
  EXPECT_NEAR(ewma.Value(), 7.0, 1e-9);
}

TEST(Ewma, FirstObservationInitialises) {
  Ewma ewma(0.1);
  EXPECT_FALSE(ewma.HasValue());
  ewma.Add(10.0);
  EXPECT_DOUBLE_EQ(ewma.Value(), 10.0);
}

TEST(Ewma, RejectsBadAlpha) {
  EXPECT_THROW(Ewma(0.0), std::invalid_argument);
  EXPECT_THROW(Ewma(1.5), std::invalid_argument);
}

class P2QuantileParam : public ::testing::TestWithParam<double> {};

TEST_P(P2QuantileParam, TracksExactQuantileOnLogNormal) {
  const double q = GetParam();
  P2Quantile est(q);
  Rng rng(43);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) {
    const double x = rng.LogNormalMeanCv(10.0, 1.0);
    est.Add(x);
    xs.push_back(x);
  }
  std::sort(xs.begin(), xs.end());
  const double exact = xs[static_cast<std::size_t>(q * (xs.size() - 1))];
  EXPECT_NEAR(est.Value(), exact, exact * 0.05);
}

INSTANTIATE_TEST_SUITE_P(Quantiles, P2QuantileParam,
                         ::testing::Values(0.5, 0.9, 0.95, 0.99));

TEST(P2Quantile, SmallSampleUsesExactOrderStatistic) {
  P2Quantile est(0.5);
  est.Add(1.0);
  est.Add(3.0);
  est.Add(2.0);
  EXPECT_DOUBLE_EQ(est.Value(), 2.0);
}

TEST(P2Quantile, EmptyIsZeroAndResetWorks) {
  P2Quantile est(0.95);
  EXPECT_DOUBLE_EQ(est.Value(), 0.0);
  for (int i = 0; i < 100; ++i) est.Add(i);
  est.Reset();
  EXPECT_EQ(est.count(), 0u);
  EXPECT_DOUBLE_EQ(est.Value(), 0.0);
}

TEST(P2Quantile, RejectsBadQuantile) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
}

TEST(ReservoirSampler, KeepsAllWhenUnderCapacity) {
  ReservoirSampler res(10);
  Rng rng(47);
  for (int i = 0; i < 5; ++i) res.Add(i, rng);
  EXPECT_EQ(res.sample().size(), 5u);
  EXPECT_EQ(res.seen(), 5u);
  EXPECT_DOUBLE_EQ(res.SampleMean(), 2.0);
}

TEST(ReservoirSampler, UniformInclusionProbability) {
  // Each of 100 items should appear with probability 10/100 over many runs.
  const int runs = 20000;
  std::vector<int> included(100, 0);
  Rng rng(53);
  for (int r = 0; r < runs; ++r) {
    ReservoirSampler res(10);
    for (int i = 0; i < 100; ++i) res.Add(i, rng);
    for (double v : res.sample()) ++included[static_cast<std::size_t>(v)];
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_NEAR(included[i] / static_cast<double>(runs), 0.1, 0.02) << "item " << i;
  }
}

TEST(ReservoirSampler, SampleMeanApproximatesStreamMean) {
  ReservoirSampler res(500);
  Rng rng(59);
  for (int i = 0; i < 100000; ++i) res.Add(rng.Uniform(0, 10), rng);
  EXPECT_NEAR(res.SampleMean(), 5.0, 0.5);
}

TEST(LogHistogram, QuantilesOfKnownDistribution) {
  LogHistogram hist(1e-6, 1.02);
  Rng rng(61);
  std::vector<double> xs;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.Exponential(1.0);
    hist.Add(x);
    xs.push_back(x);
  }
  std::sort(xs.begin(), xs.end());
  for (double q : {0.5, 0.95, 0.99}) {
    const double exact = xs[static_cast<std::size_t>(q * (xs.size() - 1))];
    EXPECT_NEAR(hist.Quantile(q), exact, exact * 0.06) << "q=" << q;
  }
  EXPECT_NEAR(hist.Mean(), 1.0, 0.02);
}

// The classification BucketFor had before it went log-free.
std::size_t LogFormulaBucket(double x, double min_value, double base, std::size_t max_buckets) {
  if (x <= min_value) return 0;
  const double idx = std::log(x / min_value) * (1.0 / std::log(base));
  return std::min(static_cast<std::size_t>(idx) + 1, max_buckets - 1);
}

TEST(LogHistogram, EveryValueLandsBetweenItsBucketEdges) {
  Rng rng(71);
  for (const double base : {1.02, 1.05, 1.1, 2.0}) {
    const LogHistogram h(1e-6, base);
    for (int i = 0; i < 200000; ++i) {
      // Log-uniform over 1e-9 .. 1e4, spanning bucket 0 and the low edges.
      const double x = std::exp(rng.Uniform(std::log(1e-9), std::log(1e4)));
      const std::size_t b = h.BucketFor(x);
      if (b == 0) {
        EXPECT_LE(x, 1e-6);
        continue;
      }
      ASSERT_GE(x, h.BucketLowerEdge(b)) << "base=" << base << " x=" << x;
      ASSERT_LT(x, h.BucketLowerEdge(b + 1)) << "base=" << base << " x=" << x;
    }
    // Exact edges belong to the bucket above them (min_value itself, the
    // lower edge of bucket 1, still counts as bucket 0); the cap holds.
    EXPECT_EQ(h.BucketFor(1e-6), 0u);
    for (std::size_t b = 2; b < 300; ++b) EXPECT_EQ(h.BucketFor(h.BucketLowerEdge(b)), b);
    // (At base 2 the 4096th edge would lie beyond the double range.)
    if (base < 1.5) {
      EXPECT_EQ(h.BucketFor(1e300), 4095u);
    }
  }
}

TEST(LogHistogram, AgreesWithLogFormulaAwayFromEdges) {
  // 1 M random values: the log-free classification equals the old std::log
  // formula except for values within a few ulps of a bucket edge, where
  // either answer is a rounding artefact.
  Rng rng(73);
  const double min_value = 1e-6;
  const double base = 1.05;
  const LogHistogram h(min_value, base);
  int disagreements = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const double x = std::exp(rng.Uniform(std::log(1e-7), std::log(1e3)));
    const std::size_t fast = h.BucketFor(x);
    const std::size_t slow = LogFormulaBucket(x, min_value, base, 4096);
    if (fast == slow) continue;
    ++disagreements;
    const double edge = h.BucketLowerEdge(std::max(fast, slow));
    EXPECT_LE(std::abs(x - edge), 8 * std::numeric_limits<double>::epsilon() * edge)
        << "x=" << x << " fast=" << fast << " slow=" << slow;
  }
  EXPECT_LT(disagreements, 10);
  // Values placed exactly on edges: any disagreement is a one-bucket,
  // few-ulp rounding difference.
  for (std::size_t b = 1; b < 400; ++b) {
    const double edge = h.BucketLowerEdge(b);
    const auto slow = static_cast<std::ptrdiff_t>(LogFormulaBucket(edge, min_value, base, 4096));
    EXPECT_LE(std::abs(static_cast<std::ptrdiff_t>(h.BucketFor(edge)) - slow), 1) << b;
  }
}

TEST(LogHistogram, MergeAddsCounts) {
  LogHistogram a(1.0, 1.1);
  LogHistogram b(1.0, 1.1);
  a.Add(5.0);
  b.Add(50.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_GT(a.Quantile(0.99), 10.0);
}

TEST(LogHistogram, MergeRejectsMismatchedParameters) {
  LogHistogram a(1.0, 1.1);
  LogHistogram c(1.0, 1.2);
  EXPECT_THROW(a.Merge(c), std::invalid_argument);
}

TEST(LogHistogram, IgnoresNegativeAndNonFinite) {
  LogHistogram h;
  h.Add(-1.0);
  h.Add(std::numeric_limits<double>::quiet_NaN());
  h.Add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 0u);
}

}  // namespace
}  // namespace esp
