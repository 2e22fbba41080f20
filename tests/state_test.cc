// Tests for the Slash State Backend storage layer: log-structured store
// invariants (wrap, adaptive resize, read-only boundary, truncation), hash
// index behaviour under collisions, growth and real-thread concurrency,
// partition RMW/append semantics, delta serialization round-trips, and the
// SSB leader/helper epoch flow and fragment sizing.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "state/hash_index.h"
#include "state/log_store.h"
#include "state/partition.h"
#include "state/state_backend.h"

namespace slash::state {
namespace {

// --- LogStructuredStore -----------------------------------------------------

TEST(LogStoreTest, AllocateAdvancesTailAligned) {
  LogStructuredStore lss(1024);
  const uint64_t a = lss.Allocate(40);
  const uint64_t b = lss.Allocate(1);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 64u);  // 40 -> 64 (32-byte alignment)
  EXPECT_EQ(lss.tail(), 96u);
  EXPECT_EQ(lss.live_bytes(), 96u);
}

TEST(LogStoreTest, EntriesNeverStraddleWrap) {
  LogStructuredStore lss(256);
  std::vector<uint64_t> addrs;
  // 96-byte entries (32B header + 64B value): the third would straddle the
  // 256-byte lap; truncation keeps the window small so no growth is needed.
  for (int i = 0; i < 8; ++i) {
    const uint64_t addr = lss.Allocate(96);
    auto* h = lss.HeaderAt(addr);
    *h = EntryHeader{};
    h->key = uint64_t(i);
    h->value_len = 64;
    h->flags = kEntryAggregate;
    addrs.push_back(addr);
    // Physical contiguity inside the lap.
    EXPECT_LE((addr % 256) + 96, 256u);
    lss.TruncateTo(addr);  // keep only the newest entry live
  }
}

TEST(LogStoreTest, ForEachEntrySkipsFillers) {
  LogStructuredStore lss(256);
  // Two 96-byte entries fill 192 of 256; the next allocation inserts a
  // 64-byte filler and wraps (after truncation makes room).
  std::vector<uint64_t> addrs;
  for (int i = 0; i < 3; ++i) {
    const uint64_t addr = lss.Allocate(96);
    auto* h = lss.HeaderAt(addr);
    *h = EntryHeader{};
    h->key = 100 + uint64_t(i);
    h->value_len = 64;
    h->flags = kEntryAggregate;
    addrs.push_back(addr);
    if (i == 1) lss.TruncateTo(96);  // free the first entry before wrapping
  }
  std::vector<uint64_t> seen;
  lss.ForEachEntry(lss.head(), lss.tail(),
                   [&](uint64_t, const EntryHeader& h) {
                     seen.push_back(h.key);
                   });
  EXPECT_EQ(seen, (std::vector<uint64_t>{101, 102}));
}

TEST(LogStoreTest, AdaptiveResizePreservesContent) {
  LogStructuredStore lss(256);
  std::vector<uint64_t> addrs;
  // Write 20 entries of 96 bytes; capacity must grow, content must survive.
  for (int i = 0; i < 20; ++i) {
    const uint64_t addr = lss.Allocate(96);
    auto* h = lss.HeaderAt(addr);
    *h = EntryHeader{};
    h->key = uint64_t(i);
    h->value_len = 64;
    h->flags = kEntryAggregate;
    std::memset(lss.At(addr) + sizeof(EntryHeader), i, 64);
    addrs.push_back(addr);
  }
  EXPECT_GT(lss.resize_count(), 0u);
  EXPECT_GE(lss.capacity(), 20u * 96);
  for (int i = 0; i < 20; ++i) {
    const auto* h = lss.HeaderAt(addrs[i]);
    EXPECT_EQ(h->key, uint64_t(i));
    const uint8_t* v = lss.At(addrs[i]) + sizeof(EntryHeader);
    for (int b = 0; b < 64; ++b) EXPECT_EQ(v[b], uint8_t(i));
  }
}

TEST(LogStoreTest, ReadOnlyBoundaryAndTruncate) {
  LogStructuredStore lss(1024);
  const uint64_t a = lss.Allocate(64);
  const uint64_t b = lss.Allocate(64);
  lss.MarkReadOnlyUpTo(lss.tail());
  EXPECT_FALSE(lss.Mutable(a));
  EXPECT_FALSE(lss.Mutable(b));
  const uint64_t c = lss.Allocate(64);
  EXPECT_TRUE(lss.Mutable(c));
  lss.TruncateTo(c);
  EXPECT_EQ(lss.head(), c);
  EXPECT_EQ(lss.live_bytes(), 64u);
}

TEST(LogStoreTest, DeathOnOutOfRangeAccess) {
  LogStructuredStore lss(1024);
  lss.Allocate(64);
  EXPECT_DEATH(lss.At(64), "outside live range");
}

// --- HashIndex ---------------------------------------------------------------

TEST(HashIndexTest, InsertAndFind) {
  HashIndex index(64);
  const KeyHash h = HashKey(42);
  EXPECT_EQ(index.Find(h), HashIndex::kInvalidAddress);
  uint64_t observed;
  EXPECT_TRUE(index.CompareExchangeHead(h, HashIndex::kInvalidAddress, 100,
                                        &observed));
  EXPECT_EQ(index.Find(h), 100u);
  EXPECT_EQ(index.size(), 1u);
}

TEST(HashIndexTest, CasFailsOnStaleExpected) {
  HashIndex index(64);
  const KeyHash h = HashKey(42);
  uint64_t observed;
  ASSERT_TRUE(index.CompareExchangeHead(h, HashIndex::kInvalidAddress, 100,
                                        &observed));
  EXPECT_FALSE(index.CompareExchangeHead(h, HashIndex::kInvalidAddress, 200,
                                         &observed));
  EXPECT_EQ(observed, 100u);
  EXPECT_TRUE(index.CompareExchangeHead(h, 100, 200, &observed));
  EXPECT_EQ(index.Find(h), 200u);
}

// Keys whose (bucket, tag) collide share one chain head: inserts must use
// the CAS loop, and Find returns the most recent head of the group.
TEST(HashIndexTest, ManyKeysOverflowIntoChains) {
  HashIndex index(4);  // tiny: forces overflow buckets
  std::map<std::pair<uint64_t, uint16_t>, uint64_t> group_head;
  for (uint64_t k = 0; k < 200; ++k) {
    const KeyHash h = HashKey(k);
    uint64_t expected = index.Find(h);
    uint64_t observed;
    while (!index.CompareExchangeHead(h, expected, k + 1, &observed)) {
      expected = observed;
    }
    group_head[std::make_pair(h.bucket_hash & 3, h.tag)] = k + 1;
  }
  EXPECT_GT(index.overflow_count(), 0u);
  for (uint64_t k = 0; k < 200; ++k) {
    const KeyHash h = HashKey(k);
    const uint64_t want = group_head[std::make_pair(h.bucket_hash & 3, h.tag)];
    EXPECT_EQ(index.Find(h), want);
  }
  EXPECT_EQ(index.size(), group_head.size());
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(HashKey(3)), HashIndex::kInvalidAddress);
}

// Clear() zeroes only the claimed primary buckets and hands overflow buckets
// out again from a reused directory: after each Clear() no old key may
// resolve, and a fresh key set spilling across three geometric segments
// (1024 + 2048 + 4096 buckets) must see none of the previous round's slots.
TEST(HashIndexTest, ClearReusesClaimedBucketsAndOverflowSegments) {
  HashIndex index(4);
  constexpr uint64_t kKeys = 32768;
  for (uint64_t round = 0; round < 3; ++round) {
    const uint64_t first = round * kKeys;
    std::map<std::pair<uint64_t, uint16_t>, uint64_t> group_head;
    for (uint64_t k = first; k < first + kKeys; ++k) {
      const KeyHash h = HashKey(k);
      uint64_t expected = HashIndex::kInvalidAddress;  // most groups are new
      uint64_t observed;
      while (!index.CompareExchangeHead(h, expected, k + 1, &observed)) {
        expected = observed;
      }
      group_head[std::make_pair(h.bucket_hash & 3, h.tag)] = k + 1;
    }
    ASSERT_GT(index.overflow_count(), 3072u) << "round " << round;
    EXPECT_EQ(index.size(), group_head.size()) << "round " << round;
    for (uint64_t k = first; k < first + kKeys; ++k) {
      const KeyHash h = HashKey(k);
      ASSERT_EQ(index.Find(h),
                group_head[std::make_pair(h.bucket_hash & 3, h.tag)])
          << "round " << round << " key " << k;
    }
    index.Clear();
    for (uint64_t k = first; k < first + kKeys; ++k) {
      ASSERT_EQ(index.Find(HashKey(k)), HashIndex::kInvalidAddress)
          << "round " << round << " key " << k << " survived Clear()";
    }
    EXPECT_EQ(index.size(), 0u);
    EXPECT_EQ(index.overflow_count(), 0u);
  }
}

// Inserts keys [first, first + n) (key k at address k + 1), then checks that
// every key resolves to the newest key of its (bucket, tag) group.
void InsertAndVerify(HashIndex* index, uint64_t first, uint64_t n) {
  const uint64_t mask = index->bucket_count() - 1;
  std::map<std::pair<uint64_t, uint16_t>, uint64_t> group_head;
  for (uint64_t k = first; k < first + n; ++k) {
    const KeyHash h = HashKey(k);
    uint64_t expected = index->Find(h);
    uint64_t observed;
    while (!index->CompareExchangeHead(h, expected, k + 1, &observed)) {
      expected = observed;
    }
    group_head[std::make_pair(h.bucket_hash & mask, h.tag)] = k + 1;
  }
  for (uint64_t k = first; k < first + n; ++k) {
    const KeyHash h = HashKey(k);
    ASSERT_EQ(index->Find(h),
              group_head[std::make_pair(h.bucket_hash & mask, h.tag)])
        << "key " << k << " at " << index->bucket_count() << " buckets";
  }
}

// An index that starts small keeps its array while the cleared contents
// used at most 3/4 of its buckets, grows geometrically at Clear() once they
// used more, and never grows past its maximum.
TEST(HashIndexTest, GrowsAtClearUpToItsMaximum) {
  HashIndex index(16, 256);

  InsertAndVerify(&index, 0, 8);  // at most 8 of 16 buckets claimed
  index.Clear();
  EXPECT_EQ(index.bucket_count(), 16u);

  // 200 keys claim all 16 buckets and spill into overflow buckets: the next
  // Clear() grows the array past 16, short of the cap.
  InsertAndVerify(&index, 0, 200);
  EXPECT_GT(index.overflow_count(), 0u);
  index.Clear();
  const size_t grown = index.bucket_count();
  EXPECT_GT(grown, 16u);
  EXPECT_LT(grown, 256u);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.overflow_count(), 0u);
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_EQ(index.Find(HashKey(k)), HashIndex::kInvalidAddress)
        << "key " << k << " survived growth";
  }
  InsertAndVerify(&index, 0, 200);  // every re-inserted key is found

  // Far above the threshold at every size: the array stops at the cap.
  for (uint64_t round = 0; round < 3; ++round) {
    InsertAndVerify(&index, round * 4000, 4000);
    index.Clear();
    EXPECT_EQ(index.bucket_count(), 256u) << "round " << round;
  }
}

TEST(HashIndexTest, ConcurrentInsertsFromRealThreads) {
  HashIndex index(1024);
  constexpr int kThreads = 4;
  constexpr uint64_t kKeysPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&index, t] {
      for (uint64_t i = 0; i < kKeysPerThread; ++i) {
        const uint64_t key = uint64_t(t) * kKeysPerThread + i;
        const KeyHash h = HashKey(key);
        uint64_t expected = index.Find(h);
        uint64_t observed;
        while (!index.CompareExchangeHead(h, expected, key + 1, &observed)) {
          expected = observed;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Each (bucket, tag) group's head must be one of the keys mapped to it.
  std::map<std::pair<uint64_t, uint16_t>, std::set<uint64_t>> groups;
  for (uint64_t key = 0; key < kThreads * kKeysPerThread; ++key) {
    const KeyHash h = HashKey(key);
    groups[std::make_pair(h.bucket_hash & 1023, h.tag)].insert(key + 1);
  }
  for (const auto& [group, members] : groups) {
    const uint64_t found = index.Find(HashKey(*members.begin() - 1));
    EXPECT_TRUE(members.count(found))
        << "group head " << found << " not a member address";
  }
  EXPECT_EQ(index.size(), groups.size());
}

// --- Partition ----------------------------------------------------------------

PartitionConfig SmallAggConfig() {
  PartitionConfig cfg;
  cfg.kind = StateKind::kAggregate;
  cfg.lss_capacity = 1 << 12;
  cfg.index_buckets = 64;
  return cfg;
}

PartitionConfig SmallAppendConfig() {
  PartitionConfig cfg;
  cfg.kind = StateKind::kAppend;
  cfg.lss_capacity = 1 << 12;
  cfg.index_buckets = 64;
  return cfg;
}

TEST(PartitionTest, AggregateRmwAccumulates) {
  Partition p(0, SmallAggConfig());
  p.UpdateAggregate({7, 0}, 10);
  p.UpdateAggregate({7, 0}, 5);
  p.UpdateAggregate({7, 1}, 100);  // different bucket: separate state
  AggState s;
  ASSERT_TRUE(p.LookupAggregate({7, 0}, &s));
  EXPECT_EQ(s.sum, 15);
  EXPECT_EQ(s.count, 2);
  ASSERT_TRUE(p.LookupAggregate({7, 1}, &s));
  EXPECT_EQ(s.sum, 100);
  EXPECT_FALSE(p.LookupAggregate({8, 0}, &s));
  EXPECT_EQ(p.entry_count(), 2u);
}

TEST(PartitionTest, AggregateMatchesSequentialOracle) {
  Partition p(0, SmallAggConfig());
  std::map<std::pair<uint64_t, int64_t>, AggState> oracle;
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t key = rng.NextBounded(37);
    const int64_t bucket = int64_t(rng.NextBounded(4));
    const int64_t value = int64_t(rng.NextBounded(100)) - 50;
    p.UpdateAggregate({key, bucket}, value);
    oracle[{key, bucket}].Apply(value);
  }
  for (const auto& [kb, expected] : oracle) {
    AggState got;
    ASSERT_TRUE(p.LookupAggregate({kb.first, kb.second}, &got));
    EXPECT_EQ(got, expected) << "key " << kb.first << " bucket " << kb.second;
  }
}

TEST(PartitionTest, ConcurrentRmwFromRealThreads) {
  PartitionConfig cfg = SmallAggConfig();
  cfg.index_buckets = 1024;
  cfg.lss_capacity = 1 << 20;
  Partition p(0, cfg);
  constexpr int kThreads = 4;
  constexpr int kUpdates = 20000;
  constexpr uint64_t kKeys = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&p, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kUpdates; ++i) {
        p.UpdateAggregate({rng.NextBounded(kKeys), 0}, 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  int64_t total = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    AggState s;
    if (p.LookupAggregate({k, 0}, &s)) total += s.count;
  }
  EXPECT_EQ(total, int64_t(kThreads) * kUpdates);
}

TEST(PartitionTest, AppendAndCollect) {
  Partition p(0, SmallAppendConfig());
  const uint8_t a[] = {1, 2, 3};
  const uint8_t b[] = {4, 5};
  p.Append({9, 2}, 0, a, sizeof(a));
  p.Append({9, 2}, 1, b, sizeof(b));
  p.Append({9, 3}, 0, a, sizeof(a));  // other bucket
  AppendSet set;
  p.CollectAppends({9, 2}, &set);
  ASSERT_EQ(set.size(), 2u);
  AppendSet expected;
  expected.Add(1, {4, 5});
  expected.Add(0, {1, 2, 3});
  EXPECT_TRUE(set.EquivalentTo(expected));
}

TEST(PartitionTest, TombstoneHidesTriggeredBuckets) {
  Partition p(0, SmallAggConfig());
  p.UpdateAggregate({1, 0}, 1);
  p.UpdateAggregate({2, 1}, 1);
  p.UpdateAggregate({3, 2}, 1);
  EXPECT_EQ(p.TombstoneBucketsUpTo(1), 2u);
  AggState s;
  EXPECT_FALSE(p.LookupAggregate({1, 0}, &s));
  EXPECT_FALSE(p.LookupAggregate({2, 1}, &s));
  EXPECT_TRUE(p.LookupAggregate({3, 2}, &s));
  int live = 0;
  p.ForEachLive([&](const EntryHeader&, const uint8_t*) { ++live; });
  EXPECT_EQ(live, 1);
}

TEST(PartitionTest, DeltaRoundTripAggregate) {
  Partition helper(1, SmallAggConfig());
  helper.UpdateAggregate({1, 0}, 10);
  helper.UpdateAggregate({1, 0}, 20);
  helper.UpdateAggregate({2, 0}, -5);

  std::vector<uint8_t> wire;
  EXPECT_EQ(helper.SerializeDelta(&wire), 2u);
  helper.Reset();
  EXPECT_EQ(helper.entry_count(), 0u);
  AggState s;
  EXPECT_FALSE(helper.LookupAggregate({1, 0}, &s));

  Partition leader(1, SmallAggConfig());
  leader.UpdateAggregate({1, 0}, 100);  // pre-existing primary state
  ASSERT_TRUE(leader.MergeDelta(wire.data(), wire.size()).ok());
  ASSERT_TRUE(leader.LookupAggregate({1, 0}, &s));
  EXPECT_EQ(s.sum, 130);
  EXPECT_EQ(s.count, 3);
  ASSERT_TRUE(leader.LookupAggregate({2, 0}, &s));
  EXPECT_EQ(s.sum, -5);
}

TEST(PartitionTest, DeltaRoundTripAppend) {
  Partition helper(1, SmallAppendConfig());
  const uint8_t a[] = {9, 9};
  helper.Append({5, 1}, 0, a, sizeof(a));
  helper.Append({5, 1}, 1, a, sizeof(a));
  std::vector<uint8_t> wire;
  EXPECT_EQ(helper.SerializeDelta(&wire), 2u);
  helper.Reset();

  Partition leader(1, SmallAppendConfig());
  ASSERT_TRUE(leader.MergeDelta(wire.data(), wire.size()).ok());
  AppendSet set;
  leader.CollectAppends({5, 1}, &set);
  EXPECT_EQ(set.size(), 2u);
}

TEST(PartitionTest, MergeDeltaRejectsGarbage) {
  Partition p(0, SmallAggConfig());
  const uint8_t junk[] = {1, 2, 3};
  EXPECT_FALSE(p.MergeDelta(junk, sizeof(junk)).ok());
  // Kind mismatch: an append delta into aggregate state.
  Partition append_src(0, SmallAppendConfig());
  const uint8_t v[] = {1};
  append_src.Append({1, 0}, 0, v, 1);
  std::vector<uint8_t> wire;
  append_src.SerializeDelta(&wire);
  EXPECT_FALSE(p.MergeDelta(wire.data(), wire.size()).ok());
}

TEST(PartitionTest, RmwAfterResetRestartsFromZero) {
  Partition p(0, SmallAggConfig());
  p.UpdateAggregate({1, 0}, 42);
  std::vector<uint8_t> wire;
  p.SerializeDelta(&wire);
  p.Reset();
  p.UpdateAggregate({1, 0}, 1);
  AggState s;
  ASSERT_TRUE(p.LookupAggregate({1, 0}, &s));
  EXPECT_EQ(s.sum, 1);  // restarted from the identity, not 43
  EXPECT_EQ(s.count, 1);
}

// A fragment recycled by Reset() across many epochs must serialize each
// epoch exactly as a fresh partition fed the same records: nothing from an
// earlier epoch may leak through the cleared index, the reused overflow
// buckets or the wrapped log.
TEST(PartitionTest, EpochCyclesMatchFreshPartition) {
  PartitionConfig cfg = SmallAggConfig();
  cfg.index_buckets = 8;  // tiny: chains spill into overflow buckets
  cfg.lss_capacity = 1 << 13;
  Partition recycled(0, cfg);
  Rng rng(21);
  for (int epoch = 0; epoch < 12; ++epoch) {
    std::vector<StateKey> keys;
    std::vector<int64_t> values;
    const uint64_t key_space = 20 + rng.NextBounded(120);
    for (int i = 0; i < 300; ++i) {
      keys.push_back({rng.NextBounded(key_space), int64_t(rng.NextBounded(3))});
      values.push_back(int64_t(rng.NextBounded(1000)) - 500);
    }
    Partition fresh(0, cfg);
    for (size_t i = 0; i < keys.size(); ++i) {
      recycled.UpdateAggregate(keys[i], values[i]);
      fresh.UpdateAggregate(keys[i], values[i]);
    }

    std::vector<uint8_t> got, want;
    EXPECT_EQ(recycled.SerializeDelta(&got), fresh.SerializeDelta(&want));
    EXPECT_EQ(got, want) << "epoch " << epoch;
    recycled.Reset();
    EXPECT_EQ(recycled.entry_count(), 0u);
  }
}

TEST(PartitionTest, RmwOnReadOnlyRegionDies) {
  Partition p(0, SmallAggConfig());
  p.UpdateAggregate({1, 0}, 1);
  std::vector<uint8_t> wire;
  p.SerializeDelta(&wire);  // marks read-only, no Reset yet
  EXPECT_DEATH(p.UpdateAggregate({1, 0}, 1), "read-only");
}

// --- StateBackend ---------------------------------------------------------------

SsbConfig SmallSsbConfig(int nodes, StateKind kind = StateKind::kAggregate) {
  SsbConfig cfg;
  cfg.nodes = nodes;
  cfg.kind = kind;
  cfg.lss_capacity = 1 << 12;
  cfg.index_buckets = 64;
  cfg.epoch_bytes = 1000;
  return cfg;
}

TEST(StateBackendTest, PartitionRoutingIsConsistentAcrossNodes) {
  StateBackend a(0, SmallSsbConfig(4));
  StateBackend b(3, SmallSsbConfig(4));
  for (uint64_t key = 0; key < 1000; ++key) {
    EXPECT_EQ(a.partition_of(key), b.partition_of(key));
    EXPECT_GE(a.partition_of(key), 0);
    EXPECT_LT(a.partition_of(key), 4);
  }
}

TEST(StateBackendTest, EpochAccounting) {
  StateBackend ssb(0, SmallSsbConfig(2));
  EXPECT_FALSE(ssb.EpochDue());
  ssb.AccountProcessedBytes(999);
  EXPECT_FALSE(ssb.EpochDue());
  ssb.AccountProcessedBytes(1);
  EXPECT_TRUE(ssb.EpochDue());
  ssb.BeginEpoch();
  EXPECT_FALSE(ssb.EpochDue());
  EXPECT_EQ(ssb.local(1)->epoch(), 1u);
  EXPECT_EQ(ssb.local(0)->epoch(), 0u);  // the primary's counter is remote-owned
}

TEST(StateBackendTest, HelperDrainLeaderMergeConverges) {
  // Two nodes; both update the same keys; after draining helpers into
  // leaders, each leader's primary holds exactly the global state of its
  // partition (P2 at the partition level).
  const int nodes = 2;
  std::vector<std::unique_ptr<StateBackend>> ssb;
  for (int n = 0; n < nodes; ++n) {
    ssb.push_back(std::make_unique<StateBackend>(n, SmallSsbConfig(nodes)));
  }
  std::map<std::pair<uint64_t, int64_t>, AggState> oracle;
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const int node = int(rng.NextBounded(nodes));
    const uint64_t key = rng.NextBounded(50);
    const int64_t value = int64_t(rng.NextBounded(100));
    ssb[node]->UpdateAggregate(key, 0, value);
    oracle[{key, 0}].Apply(value);
  }
  // Epoch: each helper drains each remote partition to its leader.
  for (int helper = 0; helper < nodes; ++helper) {
    for (int p = 0; p < nodes; ++p) {
      if (p == helper) continue;
      std::vector<uint8_t> wire;
      ssb[helper]->BeginEpoch();
      ssb[helper]->DrainFragment(p, /*low_watermark=*/0, &wire);
      DeltaEnvelope env;
      ASSERT_TRUE(ssb[p]->MergeIntoPrimary(wire.data(), wire.size(), &env).ok());
      EXPECT_EQ(env.helper_node, uint32_t(helper));
      EXPECT_EQ(env.partition, uint32_t(p));
    }
  }
  for (const auto& [kb, expected] : oracle) {
    const int p = ssb[0]->partition_of(kb.first);
    AggState got;
    ASSERT_TRUE(ssb[p]->primary()->LookupAggregate(
        {kb.first, kb.second}, &got))
        << "key " << kb.first;
    EXPECT_EQ(got, expected) << "key " << kb.first;
  }
}

TEST(PartitionTest, SnapshotRestoreRoundTrip) {
  Partition p(0, SmallAggConfig());
  p.UpdateAggregate({1, 0}, 10);
  p.UpdateAggregate({2, 3}, -4);
  p.UpdateAggregate({1, 0}, 5);

  std::vector<uint8_t> snapshot;
  EXPECT_EQ(p.Snapshot(&snapshot), 2u);
  // Snapshotting does not freeze the partition (unlike SerializeDelta).
  p.UpdateAggregate({1, 0}, 100);

  Partition restored(0, SmallAggConfig());
  ASSERT_TRUE(restored.Restore(snapshot.data(), snapshot.size()).ok());
  AggState s;
  ASSERT_TRUE(restored.LookupAggregate({1, 0}, &s));
  EXPECT_EQ(s.sum, 15);  // pre-snapshot state only
  EXPECT_EQ(s.count, 2);
  ASSERT_TRUE(restored.LookupAggregate({2, 3}, &s));
  EXPECT_EQ(s.sum, -4);
}

TEST(PartitionTest, SnapshotSkipsTombstones) {
  Partition p(0, SmallAggConfig());
  p.UpdateAggregate({1, 0}, 1);
  p.UpdateAggregate({2, 5}, 1);
  p.TombstoneBucketsUpTo(0);
  std::vector<uint8_t> snapshot;
  EXPECT_EQ(p.Snapshot(&snapshot), 1u);
  Partition restored(0, SmallAggConfig());
  ASSERT_TRUE(restored.Restore(snapshot.data(), snapshot.size()).ok());
  AggState s;
  EXPECT_FALSE(restored.LookupAggregate({1, 0}, &s));
  EXPECT_TRUE(restored.LookupAggregate({2, 5}, &s));
}

// Checks that bucket_floor() bounds the bucket of every live entry.
void ExpectFloorBoundsLive(const Partition& p) {
  p.ForEachLive([&](const EntryHeader& header, const uint8_t*) {
    EXPECT_GE(header.bucket, p.bucket_floor()) << "key " << header.key;
  });
}

constexpr int64_t kNoFloor = std::numeric_limits<int64_t>::max();

TEST(PartitionTest, BucketFloorFollowsInsertsRetirementAndReset) {
  Partition p(0, SmallAggConfig());
  EXPECT_EQ(p.bucket_floor(), kNoFloor);
  p.UpdateAggregate({1, 5}, 1);
  p.UpdateAggregate({2, 3}, 1);
  EXPECT_EQ(p.bucket_floor(), 3);
  EXPECT_EQ(p.TombstoneBucketsUpTo(2), 0u);  // below the floor
  EXPECT_EQ(p.bucket_floor(), 3);
  EXPECT_EQ(p.TombstoneBucketsUpTo(3), 1u);
  EXPECT_EQ(p.bucket_floor(), 4);
  ExpectFloorBoundsLive(p);
  EXPECT_EQ(p.TombstoneBucketsUpTo(9), 1u);
  EXPECT_EQ(p.bucket_floor(), 10);
  p.UpdateAggregate({3, 1}, 1);  // late entry for a retired bucket
  EXPECT_EQ(p.bucket_floor(), 1);
  EXPECT_EQ(p.TombstoneBucketsUpTo(kNoFloor), 1u);
  EXPECT_EQ(p.bucket_floor(), kNoFloor);
  p.UpdateAggregate({4, 7}, 1);
  p.Reset();
  EXPECT_EQ(p.bucket_floor(), kNoFloor);
  p.UpdateAggregate({4, 8}, 1);
  EXPECT_EQ(p.bucket_floor(), 8);
}

TEST(PartitionTest, BucketFloorAfterMergeDeltaAndRestore) {
  Partition helper(1, SmallAppendConfig());
  const uint8_t v[] = {1};
  helper.Append({5, 4}, 0, v, 1);
  helper.Append({6, 2}, 1, v, 1);
  std::vector<uint8_t> delta;
  helper.SerializeDelta(&delta);

  Partition leader(1, SmallAppendConfig());
  leader.Append({7, 6}, 0, v, 1);
  ASSERT_TRUE(leader.MergeDelta(delta.data(), delta.size()).ok());
  EXPECT_EQ(leader.bucket_floor(), 2);
  ExpectFloorBoundsLive(leader);

  // A snapshot holds live entries only; the restored floor is theirs.
  EXPECT_EQ(leader.TombstoneBucketsUpTo(2), 1u);
  std::vector<uint8_t> snapshot;
  EXPECT_EQ(leader.Snapshot(&snapshot), 2u);
  Partition restored(1, SmallAppendConfig());
  ASSERT_TRUE(restored.Restore(snapshot.data(), snapshot.size()).ok());
  EXPECT_EQ(restored.bucket_floor(), 4);
  ExpectFloorBoundsLive(restored);
}

TEST(PartitionTest, RetireVisitsDueEntriesOnceInLogOrder) {
  Partition p(0, SmallAppendConfig());
  const int64_t buckets[] = {2, 0, 3, 1, 0, 2};
  for (size_t i = 0; i < std::size(buckets); ++i) {
    const uint8_t v = uint8_t(i);
    p.Append({i, buckets[i]}, 0, &v, 1);
  }
  std::vector<uint8_t> visited;
  EXPECT_EQ(p.RetireBucketsUpTo(
                1, [&](const EntryHeader& header, const uint8_t* value) {
                  EXPECT_LE(header.bucket, 1);
                  visited.push_back(*value);
                }),
            3u);
  EXPECT_EQ(visited, (std::vector<uint8_t>{1, 3, 4}));
  EXPECT_EQ(p.entry_count(), 3u);
  EXPECT_EQ(p.bucket_floor(), 2);
  // Retired entries are not visited again.
  visited.clear();
  EXPECT_EQ(p.RetireBucketsUpTo(
                2, [&](const EntryHeader&, const uint8_t* value) {
                  visited.push_back(*value);
                }),
            2u);
  EXPECT_EQ(visited, (std::vector<uint8_t>{0, 5}));
}

TEST(PartitionTest, ConcurrentInsertsThenRetireFromRealThreads) {
  PartitionConfig cfg = SmallAggConfig();
  cfg.index_buckets = 1024;
  cfg.lss_capacity = 1 << 20;
  Partition p(0, cfg);
  constexpr int kThreads = 4;
  constexpr int kUpdates = 5000;
  constexpr uint64_t kKeys = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&p, t] {
      Rng rng(2000 + t);
      for (int i = 0; i < kUpdates; ++i) {
        // Thread t writes buckets t + 1 .. t + 4.
        p.UpdateAggregate({rng.NextBounded(kKeys), t + 1 + (i % 4)}, 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(p.bucket_floor(), 1);
  ExpectFloorBoundsLive(p);
  int64_t retired = 0;
  p.RetireBucketsUpTo(4, [&](const EntryHeader&, const uint8_t* value) {
    AggState s;
    std::memcpy(&s, value, sizeof(s));
    retired += s.count;
  });
  EXPECT_EQ(p.bucket_floor(), 5);
  ExpectFloorBoundsLive(p);
  int64_t live = 0;
  p.ForEachLive([&](const EntryHeader&, const uint8_t* value) {
    AggState s;
    std::memcpy(&s, value, sizeof(s));
    live += s.count;
  });
  EXPECT_EQ(retired + live, int64_t(kThreads) * kUpdates);
  EXPECT_GT(live, 0);
}

TEST(StateBackendTest, PrimaryCheckpointRoundTrip) {
  StateBackend ssb(0, SmallSsbConfig(2));
  // Keys owned by partition 0 land in the primary.
  for (uint64_t key = 0; key < 200; ++key) {
    if (ssb.partition_of(key) == 0) ssb.UpdateAggregate(key, 1, int64_t(key));
  }
  std::vector<uint8_t> checkpoint;
  const size_t entries = ssb.SnapshotPrimary(&checkpoint);
  EXPECT_GT(entries, 0u);

  StateBackend recovered(0, SmallSsbConfig(2));
  ASSERT_TRUE(
      recovered.RestorePrimary(checkpoint.data(), checkpoint.size()).ok());
  for (uint64_t key = 0; key < 200; ++key) {
    if (ssb.partition_of(key) != 0) continue;
    AggState a, b;
    ASSERT_TRUE(ssb.primary()->LookupAggregate({key, 1}, &a));
    ASSERT_TRUE(recovered.primary()->LookupAggregate({key, 1}, &b));
    EXPECT_EQ(a, b);
  }
}

// Fragments start at 1/bit_ceil(nodes) of the primary index and LSS, with
// floors of 256 buckets and 64 KiB, and never above the primary size.
TEST(StateBackendTest, FragmentsStartAtAShareOfThePrimary) {
  struct Case {
    int nodes;
    size_t index_buckets;
    uint64_t lss_capacity;
    size_t fragment_buckets;
    uint64_t fragment_lss;
  };
  const Case cases[] = {
      {16, 1 << 14, 1 << 20, 1 << 10, 1 << 16},  // the JobConfig defaults
      {6, 1 << 14, 1 << 22, 1 << 11, 1 << 19},   // bit_ceil(6) = 8
      {6, 1 << 10, 1 << 18, 256, 1 << 16},       // both floors
      {4, 64, 1 << 12, 64, 1 << 12},             // already below the floors
  };
  for (const Case& c : cases) {
    SsbConfig cfg;
    cfg.nodes = c.nodes;
    cfg.index_buckets = c.index_buckets;
    cfg.lss_capacity = c.lss_capacity;
    StateBackend ssb(1, cfg);
    for (int p = 0; p < c.nodes; ++p) {
      const bool primary = p == 1;
      EXPECT_EQ(ssb.local(p)->index_buckets(),
                primary ? c.index_buckets : c.fragment_buckets)
          << c.nodes << " nodes, partition " << p;
      EXPECT_EQ(ssb.local(p)->lss().capacity(),
                primary ? c.lss_capacity : c.fragment_lss)
          << c.nodes << " nodes, partition " << p;
    }
  }
}

// A fragment whose epochs outgrow its index grows at the drain's reset, up
// to the primary size, and the leader still merges the exact state.
TEST(StateBackendTest, FragmentIndexGrowsAtDrainUpToPrimarySize) {
  SsbConfig cfg = SmallSsbConfig(4);
  cfg.index_buckets = 1 << 10;  // fragments start at the 256-bucket floor
  StateBackend helper(0, cfg);
  StateBackend leader(1, cfg);
  ASSERT_EQ(helper.local(1)->index_buckets(), 256u);
  std::map<uint64_t, int64_t> oracle;
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (uint64_t key = 0; key < 40000; ++key) {
      if (helper.partition_of(key) != 1) continue;
      helper.UpdateAggregate(key, epoch, int64_t(key));
      oracle[key] += int64_t(key);
    }
    helper.BeginEpoch();
    std::vector<uint8_t> wire;
    helper.DrainFragment(1, 0, &wire);
    ASSERT_TRUE(
        leader.MergeIntoPrimary(wire.data(), wire.size(), nullptr).ok());
    EXPECT_GT(helper.local(1)->index_buckets(), 256u) << "epoch " << epoch;
    EXPECT_LE(helper.local(1)->index_buckets(), cfg.index_buckets);
  }
  EXPECT_EQ(helper.local(1)->index_buckets(), cfg.index_buckets);
  for (const auto& [key, sum] : oracle) {
    int64_t merged = 0;
    for (int epoch = 0; epoch < 3; ++epoch) {
      AggState s;
      ASSERT_TRUE(leader.primary()->LookupAggregate({key, epoch}, &s));
      merged += s.sum;
    }
    ASSERT_EQ(merged, sum) << "key " << key;
  }
}

// Promotion re-provisions the empty fragment at primary size; promoting a
// fragment that already took updates is a bug.
TEST(StateBackendTest, AddLeadershipReprovisionsAtPrimarySize) {
  SsbConfig cfg = SmallSsbConfig(4);
  cfg.index_buckets = 1 << 12;
  cfg.lss_capacity = 1 << 20;
  StateBackend ssb(0, cfg);
  ASSERT_EQ(ssb.local(2)->index_buckets(), 1u << 10);
  ASSERT_EQ(ssb.local(2)->lss().capacity(), 1u << 18);
  ssb.AddLeadership(2);
  EXPECT_TRUE(ssb.leads(2));
  EXPECT_EQ(ssb.local(2)->index_buckets(), cfg.index_buckets);
  EXPECT_EQ(ssb.local(2)->lss().capacity(), cfg.lss_capacity);
  EXPECT_EQ(ssb.local(2)->id(), 2);

  uint64_t key = 0;
  while (ssb.partition_of(key) != 3) ++key;
  ssb.UpdateAggregate(key, 0, 1);
  EXPECT_DEATH(ssb.AddLeadership(3), "promoted after it took updates");
}

TEST(StateBackendTest, MergeRejectsWrongLeader) {
  StateBackend helper(1, SmallSsbConfig(3));
  StateBackend wrong_leader(2, SmallSsbConfig(3));
  helper.UpdateAggregate(/*key=*/0, 0, 5);
  // Drain partition 0's fragment but deliver it to node 2.
  std::vector<uint8_t> wire;
  helper.DrainFragment(0, 0, &wire);
  EXPECT_FALSE(
      wrong_leader.MergeIntoPrimary(wire.data(), wire.size(), nullptr).ok());
  EXPECT_FALSE(wrong_leader.MergeIntoPrimary(wire.data(), 3, nullptr).ok());
}

}  // namespace
}  // namespace slash::state
