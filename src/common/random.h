// Deterministic random number generation and the key distributions used by
// the paper's workloads: uniform, Zipfian (Fig 8d skew sweep), and Pareto
// (NEXMark bid keys, Sec. 8.2.2).
#ifndef SLASH_COMMON_RANDOM_H_
#define SLASH_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace slash {

/// xoshiro256** PRNG: fast, high quality, fully deterministic per seed.
class Rng {
 public:
  /// Seeds the generator; the same seed always yields the same sequence.
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

 private:
  uint64_t s_[4];
};

/// zeta(n, theta) = sum_{i=1..n} i^-theta, summed directly up to n = 1M and
/// extended by its integral bound above that. Each (n, theta) is summed once
/// per process and cached; a cached value equals a fresh sum bit for bit.
/// Thread-safe.
double Zeta(uint64_t n, double theta);

/// Draws keys from a Zipfian distribution over [0, n) with exponent `z`.
///
/// Uses the Gray/Jim-Gray transformation with precomputed zeta constants so
/// each draw is O(1). z == 0 degenerates to uniform.
class ZipfGenerator {
 public:
  /// Precomputes constants for `n` items and skew `z` (>= 0).
  ZipfGenerator(uint64_t n, double z, uint64_t seed);

  /// Next key in [0, n), item 0 being the most popular.
  uint64_t Next();

  double skew() const { return z_; }

 private:
  uint64_t n_;
  double z_;
  double zetan_;
  double theta_denominator_;  // zeta(2, z)
  double alpha_;
  double eta_;
  double second_bound_;  // 1 + 0.5^z: draws of u * zeta(n) below it are 1
  Rng rng_;
};

/// Draws keys from a bounded Pareto (power-law) distribution over [0, n).
/// Produces the heavy-hitter long tail the paper uses for NB7 bid keys.
class ParetoGenerator {
 public:
  /// `shape` > 0 controls tail heaviness (smaller == heavier tail).
  ParetoGenerator(uint64_t n, double shape, uint64_t seed);

  /// Next key in [0, n); small keys are the heavy hitters.
  uint64_t Next();

 private:
  uint64_t n_;
  double la_;        // l^shape, l = 1
  double ha_;        // h^shape, h = n
  double exponent_;  // -1 / shape
  Rng rng_;
};

}  // namespace slash

#endif  // SLASH_COMMON_RANDOM_H_
