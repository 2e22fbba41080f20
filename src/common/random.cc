#include "common/random.h"

#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace slash {

namespace {

double ZetaStatic(uint64_t n, double theta) {
  // Direct sum for small n; for large n use the standard approximation by
  // integral bounds, which is accurate enough for key-draw purposes and
  // avoids an O(n) precomputation on 100M-wide key ranges.
  if (n <= 1'000'000) {
    double sum = 0;
    for (uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(double(i), theta);
    return sum;
  }
  // zeta(n) ~= zeta(m) + integral_{m}^{n} x^-theta dx
  const uint64_t m = 1'000'000;
  double sum = ZetaStatic(m, theta);
  if (theta == 1.0) {
    sum += std::log(double(n) / double(m));
  } else {
    sum += (std::pow(double(n), 1.0 - theta) - std::pow(double(m), 1.0 - theta)) /
           (1.0 - theta);
  }
  return sum;
}

}  // namespace

double Zeta(uint64_t n, double theta) {
  static std::mutex mu;
  static std::map<std::pair<uint64_t, double>, double> cache;
  std::lock_guard<std::mutex> lock(mu);
  const auto [it, inserted] = cache.try_emplace({n, theta}, 0.0);
  if (inserted) it->second = ZetaStatic(n, theta);
  return it->second;
}

Rng::Rng(uint64_t seed) {
  // SplitMix64 expansion of the seed into four lanes, per xoshiro reference.
  uint64_t x = seed;
  for (auto& lane : s_) {
    x += 0x9e3779b97f4a7c15ULL;
    lane = Mix64(x);
  }
}

uint64_t Rng::Next() {
  auto rotl = [](uint64_t v, int k) { return (v << k) | (v >> (64 - k)); };
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  SLASH_CHECK_GT(bound, 0u);
  // Lemire's multiply-shift rejection-free mapping (slight modulo bias is
  // irrelevant at 64-bit width for benchmark key draws).
  unsigned __int128 m = static_cast<unsigned __int128>(Next()) * bound;
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextDouble() {
  return (Next() >> 11) * 0x1.0p-53;
}

ZipfGenerator::ZipfGenerator(uint64_t n, double z, uint64_t seed)
    : n_(n), z_(z), rng_(seed) {
  SLASH_CHECK_GT(n, 0u);
  SLASH_CHECK_GE(z, 0.0);
  if (z_ == 0.0) {
    zetan_ = theta_denominator_ = alpha_ = eta_ = second_bound_ = 0;
    return;
  }
  zetan_ = Zeta(n_, z_);
  theta_denominator_ = Zeta(2, z_);
  alpha_ = 1.0 / (1.0 - z_);
  eta_ = (1.0 - std::pow(2.0 / double(n_), 1.0 - z_)) /
         (1.0 - theta_denominator_ / zetan_);
  second_bound_ = 1.0 + std::pow(0.5, z_);
}

uint64_t ZipfGenerator::Next() {
  if (z_ == 0.0) return rng_.NextBounded(n_);
  const double u = rng_.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < second_bound_) return 1;
  if (z_ == 1.0) {
    // alpha_ is infinite at z == 1; fall back to the continuous approximation
    // F^-1(u) ~ n^u for the log-series case.
    return static_cast<uint64_t>(std::pow(double(n_), u)) % n_;
  }
  return static_cast<uint64_t>(double(n_) *
                               std::pow(eta_ * u - eta_ + 1.0, alpha_)) %
         n_;
}

ParetoGenerator::ParetoGenerator(uint64_t n, double shape, uint64_t seed)
    : n_(n),
      la_(std::pow(1.0, shape)),
      ha_(std::pow(double(n), shape)),
      exponent_(-1.0 / shape),
      rng_(seed) {
  SLASH_CHECK_GT(n, 0u);
  SLASH_CHECK_GT(shape, 0.0);
}

uint64_t ParetoGenerator::Next() {
  // Bounded Pareto over [l, h] = [1, n], inverse-CDF sampled, then shifted
  // to [0, n).
  double u = rng_.NextDouble();
  if (u >= 1.0) u = std::nextafter(1.0, 0.0);
  const double x =
      std::pow(-(u * ha_ - u * la_ - ha_) / (ha_ * la_), exponent_);
  uint64_t k = static_cast<uint64_t>(x) - 1;
  return k >= n_ ? n_ - 1 : k;
}

}  // namespace slash
