// Deterministic pseudo-random number generation for reproducible runs.
//
// Every experiment in this repository is driven by a single seeded Rng (or a
// tree of Rngs forked from it), which makes simulation results bit-for-bit
// reproducible across runs and machines.  The generator is xoshiro256**,
// seeded via SplitMix64 as recommended by its authors.
#pragma once

#include <array>
#include <cstdint>

#include "common/function_effects.h"

namespace esp {

/// Deterministic random number generator (xoshiro256**) with convenience
/// distributions used by the workloads and the cluster simulator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator whose entire stream is determined by `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Returns the next raw 64-bit value.
  std::uint64_t Next() noexcept ESP_NONBLOCKING {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// UniformRandomBitGenerator interface (usable with <random> adapters).
  std::uint64_t operator()() noexcept ESP_NONBLOCKING { return Next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  /// Returns a double uniformly distributed in [0, 1).
  double NextDouble() noexcept ESP_NONBLOCKING {
    // 53 top bits -> uniform double in [0, 1).
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Returns a double uniformly distributed in [lo, hi).
  double Uniform(double lo, double hi);

  /// Returns an integer uniformly distributed in [lo, hi] (inclusive).
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Exponential variate with the given rate (mean 1/rate).
  double Exponential(double rate);

  /// Normal variate (Box-Muller) with the given mean/stddev.
  double Normal(double mean, double stddev);

  /// Log-normal variate parameterised by the *target* mean and coefficient
  /// of variation of the resulting distribution (not of the underlying
  /// normal).  Useful for service times with a prescribed c_S.
  double LogNormalMeanCv(double mean, double cv);

  /// exp(Normal(mu, sigma)): the draw LogNormalMeanCv makes once it has
  /// derived mu and sigma from (mean, cv).  Callers that draw many times
  /// from one distribution derive them once (LogNormalParams) and get the
  /// same variates.
  double LogNormal(double mu, double sigma);

  /// Gamma variate with shape k and scale theta (Marsaglia-Tsang).
  double Gamma(double shape, double scale);

  /// Returns true with probability p.  Degenerate probabilities (p <= 0,
  /// p >= 1) are answered without consuming generator state.
  bool Bernoulli(double p) noexcept ESP_NONBLOCKING {
    // Degenerate probabilities short-circuit without advancing the stream:
    // NextDouble() is in [0, 1), so the outcome is already determined, and
    // the hot samplers run with p = 1.0 by default (every draw would be a
    // wasted xoshiro step).
    if (p >= 1.0) return true;
    if (p <= 0.0) return false;
    return NextDouble() < p;
  }

  /// Zipf-distributed integer in [1, n] with exponent s > 1 (Devroye's
  /// rejection sampler; O(1) expected time).  For s <= 1 use ZipfSampler,
  /// which precomputes the CDF.
  std::uint64_t Zipf(std::uint64_t n, double s);

  /// Forks an independent generator; the child stream is a deterministic
  /// function of this generator's state.
  Rng Fork();

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

/// The underlying normal's (mu, sigma) of a log-normal with the given
/// target mean (> 0) and coefficient of variation (> 0), computed by the
/// same expressions as Rng::LogNormalMeanCv, so
/// rng.LogNormal(params.mu, params.sigma) == rng.LogNormalMeanCv(mean, cv)
/// bit for bit.
struct LogNormalParams {
  double mu = 0.0;
  double sigma = 0.0;

  static LogNormalParams FromMeanCv(double mean, double cv);
  /// The sigma^2 term alone, for callers whose mean varies per draw.
  static double Sigma2(double cv);
};

}  // namespace esp
