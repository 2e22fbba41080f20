// Unit tests for src/common: Status/Result, hashing, RNG and distributions,
// statistics helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/status.h"
#include "common/units.h"

namespace slash {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad credits");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad credits");
  EXPECT_EQ(s.ToString(), "invalid_argument: bad credits");
}

TEST(StatusTest, CopyPreservesError) {
  Status s = Status::NotFound("x");
  Status t = s;
  EXPECT_EQ(t.code(), StatusCode::kNotFound);
  EXPECT_EQ(t.message(), "x");
  EXPECT_EQ(s, t);
}

TEST(StatusTest, MoveLeavesSourceOk) {
  Status s = Status::Internal("boom");
  Status t = std::move(s);
  EXPECT_EQ(t.code(), StatusCode::kInternal);
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ResourceExhausted("").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::FailedPrecondition("").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Aborted("").code(), StatusCode::kAborted);
  EXPECT_EQ(Status::AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Unimplemented("").code(), StatusCode::kUnimplemented);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, ArrowAndDeref) {
  struct Pair {
    int a;
  };
  Result<Pair> r = Pair{7};
  EXPECT_EQ(r->a, 7);
  EXPECT_EQ((*r).a, 7);
}

TEST(HashTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  EXPECT_NE(Mix64(1), Mix64(2));
  // Low bits of sequential keys should differ (avalanche).
  std::set<uint64_t> low_bits;
  for (uint64_t k = 0; k < 1000; ++k) low_bits.insert(Mix64(k) & 0xFFF);
  EXPECT_GT(low_bits.size(), 700u);
}

TEST(HashTest, KeyHashTagNonZero) {
  // A zero tag would collide with empty index entries.
  for (uint64_t k = 0; k < 10000; ++k) {
    EXPECT_NE(HashKey(k).tag, 0);
  }
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(3);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
  }
}

TEST(ZipfTest, ZeroSkewIsUniform) {
  ZipfGenerator gen(100, 0.0, 42);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[gen.Next()];
  for (int c : counts) EXPECT_NEAR(c, 1000, 350);
}

TEST(ZipfTest, HighSkewConcentratesOnHotKeys) {
  ZipfGenerator gen(1000000, 1.5, 42);
  uint64_t hot = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (gen.Next() < 10) ++hot;
  }
  // With z=1.5 the top 10 keys receive the large majority of draws.
  EXPECT_GT(hot, uint64_t(n) * 6 / 10);
}

TEST(ZipfTest, SkewOrderingHolds) {
  // Higher z => more probability mass on key 0.
  auto mass_on_zero = [](double z) {
    ZipfGenerator gen(10000, z, 99);
    int zero = 0;
    for (int i = 0; i < 50000; ++i) zero += gen.Next() == 0;
    return zero;
  };
  const int z02 = mass_on_zero(0.2);
  const int z10 = mass_on_zero(1.0);
  const int z20 = mass_on_zero(2.0);
  EXPECT_LT(z02, z10);
  EXPECT_LT(z10, z20);
}

TEST(ZipfTest, StaysInRange) {
  for (double z : {0.0, 0.5, 1.0, 1.7}) {
    ZipfGenerator gen(100, z, 5);
    for (int i = 0; i < 10000; ++i) EXPECT_LT(gen.Next(), 100u);
  }
}

// The per-draw constants are computed once at construction and zeta once
// per (n, z): the first draws match the values the generators produced when
// every draw recomputed its constants and every generator re-summed zeta.
TEST(ZipfTest, FirstDrawsArePinned) {
  ZipfGenerator gen(12500, 0.9, 42);
  std::vector<uint64_t> draws;
  for (int i = 0; i < 12; ++i) draws.push_back(gen.Next());
  EXPECT_EQ(draws, (std::vector<uint64_t>{2042, 1300, 2935, 26, 0, 9, 5127, 0,
                                          8580, 10548, 265, 1}));
  // The next 10 000 draws, by sum and by how many took key 1's branch.
  uint64_t sum = 0;
  uint64_t ones = 0;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t key = gen.Next();
    sum += key;
    ones += key == 1;
  }
  EXPECT_EQ(sum, 17871837u);
  EXPECT_EQ(ones, 370u);
}

TEST(ZipfTest, CachedZetaEqualsAFreshSumBitForBit) {
  double fresh = 0;
  for (uint64_t i = 1; i <= 12500; ++i) fresh += 1.0 / std::pow(double(i), 0.9);
  const double first = Zeta(12500, 0.9);
  const double again = Zeta(12500, 0.9);
  EXPECT_EQ(std::memcmp(&first, &fresh, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&again, &fresh, sizeof(double)), 0);
}

TEST(ParetoTest, FirstDrawsArePinned) {
  ParetoGenerator gen(100000, 1.1, 42);
  std::vector<uint64_t> draws;
  for (int i = 0; i < 12; ++i) draws.push_back(gen.Next());
  EXPECT_EQ(draws,
            (std::vector<uint64_t>{2, 1, 3, 0, 0, 0, 5, 0, 12, 26, 0, 0}));
  uint64_t sum = 0;
  for (int i = 0; i < 10000; ++i) sum += gen.Next();
  EXPECT_EQ(sum, 63997u);
}

TEST(ParetoTest, HeavyHittersAtSmallKeys) {
  ParetoGenerator gen(1000000, 1.0, 42);
  int small = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) small += gen.Next() < 100;
  // A shape-1 bounded Pareto puts most of the mass on the smallest keys.
  EXPECT_GT(small, n / 2);
}

TEST(ParetoTest, StaysInRange) {
  ParetoGenerator gen(1000, 1.2, 7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(gen.Next(), 1000u);
}

// The latency-histogram tests moved to obs_test.cc with the histogram
// itself (now obs::Histogram).

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(64), "64 B");
  EXPECT_EQ(FormatBytes(64 * kKiB), "64 KiB");
  EXPECT_EQ(FormatBytes(3 * kMiB), "3 MiB");
  EXPECT_EQ(FormatBytes(2 * kGiB), "2 GiB");
}

TEST(UnitsTest, FormatNanos) {
  EXPECT_EQ(FormatNanos(500), "500 ns");
  EXPECT_EQ(FormatNanos(1500), "1.50 us");
  EXPECT_EQ(FormatNanos(2 * kMillisecond), "2.00 ms");
  EXPECT_EQ(FormatNanos(3 * kSecond), "3.00 s");
}

}  // namespace
}  // namespace slash
