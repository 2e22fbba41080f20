// Property-style tests of the CRDT laws that Slash's consistency argument
// rests on (Sec. 5.1): commutativity, associativity and identity for the
// aggregate monoid. The holistic append set is the partition log itself;
// state_test covers its append chaining and delta union.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "state/crdt.h"

namespace slash::state {
namespace {

AggState FromValues(const std::vector<int64_t>& values) {
  AggState s;
  for (int64_t v : values) s.Apply(v);
  return s;
}

TEST(AggStateTest, IdentityIsNeutral) {
  AggState s = FromValues({3, -1, 7});
  AggState merged = s;
  merged.Merge(AggState{});
  EXPECT_EQ(merged, s);
  AggState other;
  other.Merge(s);
  EXPECT_EQ(other, s);
}

TEST(AggStateTest, ApplyTracksAllAggregates) {
  AggState s = FromValues({5, -2, 9, 0});
  EXPECT_EQ(s.sum, 12);
  EXPECT_EQ(s.count, 4);
  EXPECT_EQ(s.min, -2);
  EXPECT_EQ(s.max, 9);
  EXPECT_EQ(s.Extract(AggKind::kSum), 12);
  EXPECT_EQ(s.Extract(AggKind::kCount), 4);
  EXPECT_EQ(s.Extract(AggKind::kMin), -2);
  EXPECT_EQ(s.Extract(AggKind::kMax), 9);
  EXPECT_EQ(s.Extract(AggKind::kAvg), 3);
}

TEST(AggStateTest, EmptyExtraction) {
  AggState s;
  EXPECT_EQ(s.Extract(AggKind::kSum), 0);
  EXPECT_EQ(s.Extract(AggKind::kCount), 0);
  EXPECT_EQ(s.Extract(AggKind::kAvg), 0);
}

TEST(AggStateTest, MergeEqualsSequentialApplication) {
  // P2: a distributed computation (two partials merged) must equal the
  // sequential computation over the concatenated input.
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<int64_t> a, b, all;
    const int na = int(rng.NextBounded(20));
    const int nb = int(rng.NextBounded(20));
    for (int i = 0; i < na; ++i) {
      a.push_back(int64_t(rng.NextBounded(2000)) - 1000);
    }
    for (int i = 0; i < nb; ++i) {
      b.push_back(int64_t(rng.NextBounded(2000)) - 1000);
    }
    all = a;
    all.insert(all.end(), b.begin(), b.end());
    AggState pa = FromValues(a);
    pa.Merge(FromValues(b));
    EXPECT_EQ(pa, FromValues(all));
  }
}

class AggStateLawTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggStateLawTest, MergeIsCommutativeAndAssociative) {
  Rng rng(GetParam());
  auto random_state = [&rng] {
    AggState s;
    const int n = 1 + int(rng.NextBounded(10));
    for (int i = 0; i < n; ++i) {
      s.Apply(int64_t(rng.NextBounded(10000)) - 5000);
    }
    return s;
  };
  const AggState a = random_state();
  const AggState b = random_state();
  const AggState c = random_state();

  AggState ab = a;
  ab.Merge(b);
  AggState ba = b;
  ba.Merge(a);
  EXPECT_EQ(ab, ba);  // commutativity

  AggState ab_c = ab;
  ab_c.Merge(c);
  AggState bc = b;
  bc.Merge(c);
  AggState a_bc = a;
  a_bc.Merge(bc);
  EXPECT_EQ(ab_c, a_bc);  // associativity
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggStateLawTest,
                         ::testing::Range<uint64_t>(0, 50));

}  // namespace
}  // namespace slash::state
