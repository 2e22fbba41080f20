// Tests for the Slash State Backend storage layer: log-structured store
// invariants (adaptive resize in place, read-only boundary, clear), hash
// index behaviour under collisions, growth and real-thread concurrency,
// partition RMW/append semantics, delta serialization round-trips, and the
// SSB leader/helper epoch flow and fragment sizing.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/status.h"
#include "common/units.h"
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
  EXPECT_EQ(lss.allocated_bytes(), 96u);
}

// Writes a 96-byte entry (32-byte header, 64-byte value filled with `fill`)
// and returns its address.
uint64_t AppendEntry(LogStructuredStore* lss, uint64_t key, uint8_t fill) {
  const uint64_t addr = lss->Allocate(96);
  auto* h = lss->HeaderAt(addr);
  *h = EntryHeader{};
  h->key = key;
  h->value_len = 64;
  h->flags = kEntryAggregate;
  std::memset(lss->At(addr) + sizeof(EntryHeader), fill, 64);
  return addr;
}

TEST(LogStoreTest, AdaptiveResizePreservesContent) {
  LogStructuredStore lss(256);
  std::vector<uint64_t> addrs;
  // Write 20 entries of 96 bytes; capacity must grow, content must survive.
  for (int i = 0; i < 20; ++i) {
    addrs.push_back(AppendEntry(&lss, uint64_t(i), uint8_t(i)));
  }
  EXPECT_GT(lss.resize_count(), 0u);
  EXPECT_GE(lss.capacity(), 20u * 96);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(addrs[i], uint64_t(i) * 96);  // a plain offset into the log
    const auto* h = lss.HeaderAt(addrs[i]);
    EXPECT_EQ(h->key, uint64_t(i));
    const uint8_t* v = lss.At(addrs[i]) + sizeof(EntryHeader);
    for (int b = 0; b < 64; ++b) EXPECT_EQ(v[b], uint8_t(i));
  }
}

// Clear() returns the next entry to address 0, keeps the grown capacity, and
// leaves nothing for a scan; a cleared log refills without growing.
TEST(LogStoreTest, ClearRewindsToAddressZeroAndKeepsCapacity) {
  LogStructuredStore lss(256);
  for (int i = 0; i < 8; ++i) AppendEntry(&lss, uint64_t(i), uint8_t(i));
  lss.MarkReadOnlyUpTo(lss.tail());
  const uint64_t capacity = lss.capacity();
  const uint64_t resizes = lss.resize_count();
  ASSERT_GT(resizes, 0u);

  lss.Clear();
  EXPECT_EQ(lss.tail(), 0u);
  EXPECT_EQ(lss.read_only_boundary(), 0u);
  EXPECT_EQ(lss.capacity(), capacity);
  EXPECT_EQ(lss.allocated_bytes(), 8u * 96);
  size_t visited = 0;
  lss.ForEachEntry([&](uint64_t, const EntryHeader&) { ++visited; });
  EXPECT_EQ(visited, 0u);

  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(AppendEntry(&lss, 100 + uint64_t(i), uint8_t(i)),
              uint64_t(i) * 96);
  }
  EXPECT_TRUE(lss.Mutable(0));
  EXPECT_EQ(lss.resize_count(), resizes);
  EXPECT_EQ(lss.capacity(), capacity);
  std::vector<uint64_t> seen;
  lss.ForEachEntry([&](uint64_t, const EntryHeader& h) {
    seen.push_back(h.key);
  });
  EXPECT_EQ(seen, (std::vector<uint64_t>{100, 101, 102, 103, 104, 105, 106,
                                         107}));
}

TEST(LogStoreTest, ReadOnlyBoundaryAndClear) {
  LogStructuredStore lss(1024);
  const uint64_t a = lss.Allocate(64);
  const uint64_t b = lss.Allocate(64);
  lss.MarkReadOnlyUpTo(lss.tail());
  EXPECT_FALSE(lss.Mutable(a));
  EXPECT_FALSE(lss.Mutable(b));
  const uint64_t c = lss.Allocate(64);
  EXPECT_TRUE(lss.Mutable(c));
  lss.Clear();
  EXPECT_FALSE(lss.Mutable(a));  // nothing is live
  EXPECT_EQ(lss.Allocate(64), 0u);
  EXPECT_TRUE(lss.Mutable(0));
}

// Growing a written log keeps its pages where they are. A Grow() that
// copied the log into a fresh buffer would fault in one page per 4 KiB
// copied: about 1 024 for 4 MiB.
TEST(LogStoreTest, GrowDoesNotFaultTheLogInAgain) {
  constexpr uint64_t kLog = 4 * kMiB;
  LogStructuredStore lss(kLog);
  for (uint64_t page = 0; page < kLog / 4096; ++page) {
    std::memset(lss.At(lss.Allocate(4096)), 0xab, 4096);
  }
  ASSERT_EQ(lss.tail(), kLog);
  ASSERT_EQ(lss.resize_count(), 0u);

  rusage before{}, after{};
  getrusage(RUSAGE_THREAD, &before);
  const uint64_t grown = lss.Allocate(96);
  getrusage(RUSAGE_THREAD, &after);

  ASSERT_EQ(lss.resize_count(), 1u);
  EXPECT_EQ(lss.capacity(), 2 * kLog);
  EXPECT_LT(after.ru_minflt - before.ru_minflt, 64)
      << "Grow() faulted the log in again";
  EXPECT_EQ(grown, kLog);
  const uint8_t* log = lss.At(0);
  for (uint64_t i = 0; i < kLog; i += 4096) ASSERT_EQ(log[i], 0xab) << i;
  EXPECT_EQ(log[kLog - 1], 0xab);
}

// ForEachEntry prefetches up to kScanPrefetchBytes ahead of its cursor,
// clamped to the tail. Whatever the tail (below, at and past that distance,
// on and off a 64-byte line) and whatever the entry sizes (empty values, one
// entry longer than the distance), a scan visits every header once, in log
// order.
TEST(LogStoreTest, ScanVisitsEveryHeaderOnceAtAnyTail) {
  constexpr uint64_t kDistance = LogStructuredStore::kScanPrefetchBytes;
  LogStructuredStore lss(256);
  std::vector<uint64_t> addrs;
  auto append = [&](uint32_t value_len) {
    const uint64_t addr =
        lss.Allocate(uint32_t(sizeof(EntryHeader)) + value_len);
    auto* h = lss.HeaderAt(addr);
    *h = EntryHeader{};
    h->key = addrs.size();
    h->value_len = value_len;
    addrs.push_back(addr);
  };
  std::set<uint64_t> tails;
  auto check_scan = [&] {
    tails.insert(lss.tail());
    std::vector<uint64_t> seen;
    const uint64_t scanned = lss.entries_scanned();
    lss.ForEachEntry([&](uint64_t addr, const EntryHeader& h) {
      EXPECT_EQ(h.key, seen.size()) << "at " << addr;
      seen.push_back(addr);
    });
    ASSERT_EQ(seen, addrs) << "tail " << lss.tail();
    EXPECT_EQ(lss.entries_scanned() - scanned, addrs.size());
  };

  check_scan();  // empty log
  for (const uint32_t len : {0u, 1u, 33u, 64u, 0u, 200u, 31u, 95u}) {
    append(len);
    check_scan();
  }
  while (lss.tail() < kDistance) {  // header-only entries land on kDistance
    append(0);
    check_scan();
  }
  append(uint32_t(kDistance) + 100);  // one entry longer than the distance
  check_scan();
  for (int i = 0; i < 40; ++i) {
    append(uint32_t(i * 37 % 300));
    check_scan();
  }

  EXPECT_TRUE(tails.count(kDistance));
  EXPECT_LT(*std::next(tails.begin()), kDistance);
  EXPECT_GT(*tails.rbegin(), 2 * kDistance);
  size_t off_line = 0;
  for (const uint64_t tail : tails) off_line += tail % 64 != 0;
  EXPECT_GT(off_line, 5u);
  EXPECT_GT(lss.resize_count(), 0u);
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
  const HashIndex::Slot slot = index.Claim(h);
  // A claimed slot whose chain is still empty has no head.
  EXPECT_EQ(HashIndex::Head(slot), HashIndex::kInvalidAddress);
  EXPECT_EQ(index.Find(h), HashIndex::kInvalidAddress);
  uint64_t head = HashIndex::kInvalidAddress;
  EXPECT_TRUE(HashIndex::CompareExchangeHead(slot, &head, 100));
  EXPECT_EQ(index.Find(h), 100u);
  EXPECT_EQ(index.size(), 1u);
  // Claiming a present key returns its slot and claims nothing.
  EXPECT_EQ(index.Claim(h), slot);
  EXPECT_EQ(HashIndex::Head(slot), 100u);
  EXPECT_EQ(index.size(), 1u);
}

TEST(HashIndexTest, CasFailsOnStaleExpected) {
  HashIndex index(64);
  const KeyHash h = HashKey(42);
  const HashIndex::Slot slot = index.Claim(h);
  uint64_t head = HashIndex::kInvalidAddress;
  ASSERT_TRUE(HashIndex::CompareExchangeHead(slot, &head, 100));
  head = HashIndex::kInvalidAddress;  // stale
  EXPECT_FALSE(HashIndex::CompareExchangeHead(slot, &head, 200));
  EXPECT_EQ(head, 100u);
  EXPECT_TRUE(HashIndex::CompareExchangeHead(slot, &head, 200));
  EXPECT_EQ(index.Find(h), 200u);
}

// Keys whose (bucket, tag) collide share one chain head: inserts must use
// the CAS loop, and Find returns the most recent head of the group.
TEST(HashIndexTest, ManyKeysOverflowIntoChains) {
  HashIndex index(4);  // tiny: forces overflow buckets
  std::map<std::pair<uint64_t, uint16_t>, uint64_t> group_head;
  for (uint64_t k = 0; k < 200; ++k) {
    const KeyHash h = HashKey(k);
    const HashIndex::Slot slot = index.Claim(h);
    uint64_t head = HashIndex::Head(slot);
    while (!HashIndex::CompareExchangeHead(slot, &head, k + 1)) {
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
      const HashIndex::Slot slot = index.Claim(h);
      uint64_t head = HashIndex::kInvalidAddress;  // most groups are new
      while (!HashIndex::CompareExchangeHead(slot, &head, k + 1)) {
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
    const HashIndex::Slot slot = index->Claim(h);
    uint64_t head = HashIndex::Head(slot);
    while (!HashIndex::CompareExchangeHead(slot, &head, k + 1)) {
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

// After a heavy load grows the index to its cap, lighter loads shrink it at
// Clear() to the smallest size that keeps them under 3/4, never below the
// start size; a load between 1/4 and 3/4 of the buckets keeps the size.
TEST(HashIndexTest, ShrinksAtClearDownToItsStartSize) {
  HashIndex index(16, 256);
  InsertAndVerify(&index, 0, 4000);
  index.Clear();
  ASSERT_EQ(index.bucket_count(), 256u);

  // 80 keys claim more than 64 of 256 buckets: they would fit in 128 under
  // 3/4, but a load above 1/4 keeps the size.
  InsertAndVerify(&index, 0, 80);
  index.Clear();
  EXPECT_EQ(index.bucket_count(), 256u);

  // 40 keys claim fewer than 64 of 256 buckets but more than 24: the array
  // shrinks to 64, the smallest size that keeps them under 3/4.
  InsertAndVerify(&index, 0, 40);
  index.Clear();
  EXPECT_EQ(index.bucket_count(), 64u);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.overflow_count(), 0u);
  for (uint64_t k = 0; k < 4000; ++k) {
    ASSERT_EQ(index.Find(HashKey(k)), HashIndex::kInvalidAddress)
        << "key " << k << " survived the shrink";
  }
  InsertAndVerify(&index, 0, 40);  // every re-inserted key is found

  // The same load at 64 buckets sits between 1/4 and 3/4: no remap.
  index.Clear();
  EXPECT_EQ(index.bucket_count(), 64u);

  // A light load and then an empty one end at the start size, not below.
  InsertAndVerify(&index, 100, 8);
  index.Clear();
  EXPECT_EQ(index.bucket_count(), 16u);
  index.Clear();
  EXPECT_EQ(index.bucket_count(), 16u);
  for (uint64_t k = 100; k < 108; ++k) {
    ASSERT_EQ(index.Find(HashKey(k)), HashIndex::kInvalidAddress)
        << "key " << k << " survived the shrink";
  }
  InsertAndVerify(&index, 0, 200);
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
        const HashIndex::Slot slot = index.Claim(HashKey(key));
        uint64_t head = HashIndex::Head(slot);
        while (!HashIndex::CompareExchangeHead(slot, &head, key + 1)) {
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

// Four threads update the same fresh keys of a 4-bucket partition in the
// same order, so they race to claim the same tags, to extend the same
// overflow chains and to insert the same aggregate: exactly one entry per
// key may survive, holding every update.
TEST(PartitionTest, ConcurrentFreshKeysInATinyIndex) {
  PartitionConfig cfg = SmallAggConfig();
  cfg.index_buckets = 4;
  cfg.lss_capacity = 1 << 21;  // room for every orphan: no Grow() mid-race
  Partition p(0, cfg);
  constexpr int kThreads = 4;
  constexpr uint64_t kKeys = 1024;
  constexpr int64_t kBuckets = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&p] {
      for (uint64_t key = 0; key < kKeys; ++key) {
        for (int64_t bucket = 0; bucket < kBuckets; ++bucket) {
          p.UpdateAggregate({key, bucket}, 1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  std::set<std::pair<uint64_t, int64_t>> live;
  size_t visited = 0;
  int64_t total = 0;
  p.ForEachLive([&](const EntryHeader& header, const uint8_t* value) {
    live.insert({header.key, header.bucket});
    ++visited;
    AggState s;
    std::memcpy(&s, value, sizeof(s));
    total += s.count;
  });
  EXPECT_EQ(live.size(), kKeys * kBuckets);
  EXPECT_EQ(visited, live.size());  // one live entry per (key, bucket)
  EXPECT_EQ(p.entry_count(), kKeys * kBuckets);
  EXPECT_EQ(total, int64_t(kThreads) * kKeys * kBuckets);
}

// Like ConcurrentFreshKeysInATinyIndex, but thread t adds a value of its own
// to each (key, bucket). A fresh accumulator starts at its inserter's
// delta, and only an insert that lost the race merges into the winner, so a
// lost race that dropped or double-applied a delta would show in the sum,
// count, min or max against a sequential fold.
TEST(PartitionTest, ConcurrentFreshDistinctValuesMatchASequentialFold) {
  PartitionConfig cfg = SmallAggConfig();
  cfg.index_buckets = 4;
  cfg.lss_capacity = 1 << 21;  // room for every orphan: no Grow() mid-race
  Partition p(0, cfg);
  constexpr int kThreads = 4;
  constexpr uint64_t kKeys = 1024;
  constexpr int64_t kBuckets = 4;
  auto value_of = [](int t, uint64_t key, int64_t bucket) {
    return int64_t(Mix64((key << 8) | (uint64_t(bucket) << 4) | uint64_t(t)) %
                   200'001) -
           100'000;
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&p, &value_of, t] {
      for (uint64_t key = 0; key < kKeys; ++key) {
        for (int64_t bucket = 0; bucket < kBuckets; ++bucket) {
          p.UpdateAggregate({key, bucket}, value_of(t, key, bucket));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (uint64_t key = 0; key < kKeys; ++key) {
    for (int64_t bucket = 0; bucket < kBuckets; ++bucket) {
      AggState want;
      for (int t = 0; t < kThreads; ++t) want.Apply(value_of(t, key, bucket));
      AggState got;
      ASSERT_TRUE(p.LookupAggregate({key, bucket}, &got));
      ASSERT_EQ(got, want) << "key " << key << " bucket " << bucket;
    }
  }
  size_t visited = 0;
  p.ForEachLive([&](const EntryHeader&, const uint8_t*) { ++visited; });
  EXPECT_EQ(visited, kKeys * kBuckets);  // one live entry per (key, bucket)
  EXPECT_EQ(p.entry_count(), kKeys * kBuckets);
}

// One live append entry as ForEachLive visits it: the header in the log and
// a copy of its payload.
struct LiveAppend {
  const EntryHeader* header;
  std::vector<uint8_t> payload;
};

std::vector<LiveAppend> LiveAppends(const Partition& p) {
  std::vector<LiveAppend> out;
  p.ForEachLive([&](const EntryHeader& header, const uint8_t* value) {
    out.push_back(
        {&header, std::vector<uint8_t>(value, value + header.value_len)});
  });
  return out;
}

constexpr PartitionRole kRoles[] = {PartitionRole::kFragment,
                                    PartitionRole::kRetiring};

const char* RoleName(PartitionRole role) {
  return role == PartitionRole::kFragment ? "fragment" : "retiring";
}

void ExpectAppend(const LiveAppend& e, uint64_t key, int64_t bucket,
                  uint16_t stream_id, std::vector<uint8_t> payload) {
  EXPECT_EQ(e.header->key, key);
  EXPECT_EQ(e.header->bucket, bucket);
  EXPECT_EQ(e.header->stream_id, stream_id);
  EXPECT_TRUE(e.header->flags & kEntryAppend);
  EXPECT_EQ(e.header->value_len, payload.size());
  EXPECT_EQ(e.payload, payload);
}

// A fragment keeps its appends in log order; a retiring partition visits
// them bucket by bucket, ascending, each bucket in append order. Appends
// link no hash chain.
TEST(PartitionTest, AppendAndCollect) {
  for (const PartitionRole role : kRoles) {
    SCOPED_TRACE(RoleName(role));
    Partition p(0, SmallAppendConfig(), role);
    const uint8_t a[] = {1, 2, 3};
    const uint8_t b[] = {4, 5};
    const uint8_t c[] = {6};
    p.Append({9, 3}, 0, a, sizeof(a));
    p.Append({9, 2}, 0, b, sizeof(b));
    p.Append({8, 3}, 1, c, sizeof(c));
    p.Append({9, 2}, 1, a, sizeof(a));
    EXPECT_EQ(p.entry_count(), 4u);
    EXPECT_EQ(p.bucket_floor(), 2);
    const std::vector<LiveAppend> live = LiveAppends(p);
    ASSERT_EQ(live.size(), 4u);
    if (role == PartitionRole::kFragment) {
      ExpectAppend(live[0], 9, 3, 0, {1, 2, 3});
      ExpectAppend(live[1], 9, 2, 0, {4, 5});
      ExpectAppend(live[2], 8, 3, 1, {6});
      ExpectAppend(live[3], 9, 2, 1, {1, 2, 3});
    } else {
      ExpectAppend(live[0], 9, 2, 0, {4, 5});
      ExpectAppend(live[1], 9, 2, 1, {1, 2, 3});
      ExpectAppend(live[2], 9, 3, 0, {1, 2, 3});
      ExpectAppend(live[3], 8, 3, 1, {6});
    }
    for (const LiveAppend& e : live) {
      EXPECT_EQ(e.header->prev, HashIndex::kInvalidAddress);
    }
  }
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
  const uint8_t b[] = {7, 8, 6};
  const uint8_t c[] = {42};
  helper.Append({5, 1}, 0, a, sizeof(a));
  helper.Append({6, 2}, 1, c, sizeof(c));
  helper.Append({5, 1}, 1, b, sizeof(b));
  std::vector<uint8_t> wire;
  EXPECT_EQ(helper.SerializeDelta(&wire), 3u);
  helper.Reset();

  // The merge unions the delta into the leader's own elements: every
  // element arrives intact, after the leader's, in the helper's log order;
  // a retiring leader files each under its bucket.
  for (const PartitionRole role : kRoles) {
    SCOPED_TRACE(RoleName(role));
    Partition leader(1, SmallAppendConfig(), role);
    const uint8_t own[] = {1, 2, 3, 4};
    leader.Append({6, 2}, 2, own, sizeof(own));
    ASSERT_TRUE(leader.MergeDelta(wire.data(), wire.size()).ok());
    EXPECT_EQ(leader.entry_count(), 4u);
    EXPECT_EQ(leader.bucket_floor(), 1);
    const std::vector<LiveAppend> live = LiveAppends(leader);
    ASSERT_EQ(live.size(), 4u);
    if (role == PartitionRole::kFragment) {
      ExpectAppend(live[0], 6, 2, 2, {1, 2, 3, 4});
      ExpectAppend(live[1], 5, 1, 0, {9, 9});
      ExpectAppend(live[2], 6, 2, 1, {42});
      ExpectAppend(live[3], 5, 1, 1, {7, 8, 6});
    } else {
      ExpectAppend(live[0], 5, 1, 0, {9, 9});
      ExpectAppend(live[1], 5, 1, 1, {7, 8, 6});
      ExpectAppend(live[2], 6, 2, 2, {1, 2, 3, 4});
      ExpectAppend(live[3], 6, 2, 1, {42});
    }
  }
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

// --- MergeDelta lookahead -------------------------------------------------

// MergeDelta prefetches ahead of its apply cursor; these tests pin that it
// applies exactly what per-entry MergeAggregate/Append calls apply, at every
// delta length around the prefetch distance, and that a truncated delta
// still stops at the cut.
constexpr size_t kWireHeaderBytes = 24;  // WireEntry, partition.cc
constexpr int kAhead = Partition::kMergePrefetchDistance;

std::vector<uint8_t> SnapshotOf(const Partition& p) {
  std::vector<uint8_t> out;
  p.Snapshot(&out);
  return out;
}

// A helper fragment holding `n` entries. Aggregate entries are distinct
// (key, bucket)s, every other one a key the leader below already holds.
// Append entries reuse five keys, so chains form, and carry 0 to 70 bytes.
std::unique_ptr<Partition> HelperOf(StateKind kind, int n) {
  PartitionConfig cfg =
      kind == StateKind::kAggregate ? SmallAggConfig() : SmallAppendConfig();
  auto helper = std::make_unique<Partition>(1, cfg);
  Rng rng(77);
  for (int i = 0; i < n; ++i) {
    const uint64_t key = uint64_t(i);
    if (kind == StateKind::kAggregate) {
      helper->UpdateAggregate({key, i % 3}, int64_t(rng.NextBounded(1000)) - 500);
      helper->UpdateAggregate({key, i % 3}, int64_t(rng.NextBounded(1000)));
    } else {
      uint8_t value[70];
      const uint32_t len = uint32_t(rng.NextBounded(sizeof(value) + 1));
      for (uint32_t b = 0; b < len; ++b) value[b] = uint8_t(rng.NextBounded(256));
      helper->Append({key % 5, i % 2}, uint16_t(i % 3), value, len);
    }
  }
  return helper;
}

// A leader with state of its own: aggregates for even keys (so half the
// delta merges into existing accumulators), one append per chain key.
std::unique_ptr<Partition> LeaderOf(StateKind kind) {
  PartitionConfig cfg =
      kind == StateKind::kAggregate ? SmallAggConfig() : SmallAppendConfig();
  auto leader = std::make_unique<Partition>(1, cfg);
  for (uint64_t key = 0; key < 64; key += 2) {
    if (kind == StateKind::kAggregate) {
      leader->UpdateAggregate({key, int64_t(key % 3)}, int64_t(key));
    } else if (key < 10) {
      const uint8_t v[] = {uint8_t(key)};
      leader->Append({key % 5, int64_t(key % 2)}, 0, v, sizeof(v));
    }
  }
  return leader;
}

// Applies the helper's first `count` live entries one call at a time.
void ApplyPerEntry(const Partition& helper, size_t count, Partition* leader) {
  size_t i = 0;
  helper.ForEachLive([&](const EntryHeader& header, const uint8_t* value) {
    if (i++ >= count) return;
    const StateKey k{header.key, header.bucket};
    if (header.flags & kEntryAggregate) {
      AggState delta;
      std::memcpy(&delta, value, sizeof(delta));
      leader->MergeAggregate(k, delta);
    } else {
      leader->Append(k, header.stream_id, value, header.value_len);
    }
  });
}

TEST(PartitionTest, MergeDeltaMatchesPerEntryMergeAtEveryLength) {
  const int lengths[] = {0, 1, kAhead - 1, kAhead, kAhead + 1, 200};
  for (const StateKind kind : {StateKind::kAggregate, StateKind::kAppend}) {
    for (const int n : lengths) {
      SCOPED_TRACE(::testing::Message()
                   << "kind " << int(kind) << ", " << n << " entries");
      const std::unique_ptr<Partition> helper = HelperOf(kind, n);
      ASSERT_EQ(helper->entry_count(), size_t(n));
      std::vector<uint8_t> delta;
      helper->Snapshot(&delta);

      const std::unique_ptr<Partition> merged = LeaderOf(kind);
      ASSERT_TRUE(merged->MergeDelta(delta.data(), delta.size()).ok());
      const std::unique_ptr<Partition> want = LeaderOf(kind);
      ApplyPerEntry(*helper, size_t(n), want.get());
      EXPECT_EQ(merged->entry_count(), want->entry_count());
      EXPECT_EQ(merged->bucket_floor(), want->bucket_floor());
      EXPECT_EQ(SnapshotOf(*merged), SnapshotOf(*want));
    }
  }
}

TEST(PartitionTest, MergeDeltaCutInsideTheLookaheadStopsAtTheCut) {
  const int n = kAhead + 3;
  for (const StateKind kind : {StateKind::kAggregate, StateKind::kAppend}) {
    const std::unique_ptr<Partition> helper = HelperOf(kind, n);
    std::vector<uint8_t> delta;
    helper->Snapshot(&delta);
    std::vector<size_t> start;  // byte offset of each wire entry
    std::vector<uint32_t> value_len;
    size_t offset = 0;
    helper->ForEachLive([&](const EntryHeader& header, const uint8_t*) {
      start.push_back(offset);
      value_len.push_back(header.value_len);
      offset += kWireHeaderBytes + header.value_len;
    });
    ASSERT_EQ(offset, delta.size());

    for (const int cut : {0, 1, kAhead / 2, kAhead - 1, kAhead, n - 1}) {
      // A cut inside the entry's header, and one inside its value.
      std::vector<std::pair<size_t, std::string_view>> cuts = {
          {start[cut] + kWireHeaderBytes / 2, "truncated delta entry header"}};
      if (value_len[cut] > 0) {
        cuts.push_back({start[cut] + kWireHeaderBytes + value_len[cut] / 2,
                        "truncated delta entry value"});
      }
      for (const auto& [len, message] : cuts) {
        SCOPED_TRACE(::testing::Message() << "kind " << int(kind) << ", cut in "
                                          << cut << " at byte " << len);
        const std::unique_ptr<Partition> merged = LeaderOf(kind);
        const Status status = merged->MergeDelta(delta.data(), len);
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(status.message(), message);
        const std::unique_ptr<Partition> want = LeaderOf(kind);
        ApplyPerEntry(*helper, size_t(cut), want.get());
        EXPECT_EQ(SnapshotOf(*merged), SnapshotOf(*want));
      }
    }
  }
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

// A fragment's retire walks its whole log and visits the due entries in
// log order; a retiring partition's walks only the due buckets' logs,
// bucket by bucket. A late entry for a fired bucket fires at the next call.
TEST(PartitionTest, RetireVisitsDueEntriesOnce) {
  const int64_t buckets[] = {2, 0, 3, 1, 0, 2};
  for (const PartitionRole role : kRoles) {
    SCOPED_TRACE(RoleName(role));
    const bool retiring = role == PartitionRole::kRetiring;
    Partition p(0, SmallAppendConfig(), role);
    for (size_t i = 0; i < std::size(buckets); ++i) {
      const uint8_t v = uint8_t(i);
      p.Append({i, buckets[i]}, 0, &v, 1);
    }
    std::vector<uint8_t> visited;
    auto collect = [&](const EntryHeader&, const uint8_t* value) {
      visited.push_back(*value);
    };
    uint64_t scanned = p.entries_scanned();
    EXPECT_EQ(p.RetireBucketsUpTo(
                  1, [&](const EntryHeader& header, const uint8_t* value) {
                    EXPECT_LE(header.bucket, 1);
                    visited.push_back(*value);
                  }),
              3u);
    EXPECT_EQ(visited, retiring ? (std::vector<uint8_t>{1, 4, 3})
                                : (std::vector<uint8_t>{1, 3, 4}));
    EXPECT_EQ(p.entries_scanned() - scanned, retiring ? 3u : 6u);
    EXPECT_EQ(p.entry_count(), 3u);
    EXPECT_EQ(p.bucket_floor(), 2);
    // Retired entries are not visited again.
    visited.clear();
    scanned = p.entries_scanned();
    EXPECT_EQ(p.RetireBucketsUpTo(2, collect), 2u);
    EXPECT_EQ(visited, (std::vector<uint8_t>{0, 5}));
    EXPECT_EQ(p.entries_scanned() - scanned, retiring ? 2u : 6u);
    EXPECT_EQ(p.bucket_floor(), 3);
    // A late entry for a fired bucket lowers the floor and fires next.
    const uint8_t late = 6;
    p.Append({6, 0}, 0, &late, 1);
    EXPECT_EQ(p.bucket_floor(), 0);
    visited.clear();
    EXPECT_EQ(p.RetireBucketsUpTo(2, collect), 1u);
    EXPECT_EQ(visited, (std::vector<uint8_t>{6}));
    EXPECT_EQ(p.bucket_floor(), 3);
    EXPECT_EQ(p.entry_count(), 1u);
  }
}

// Random appends over interleaved buckets, some of them late into fired
// buckets, and random retirements, against a model of the live entries in
// append order: the partition visits, retires, snapshots and restores what
// the model says, in the role's order.
TEST(PartitionTest, AppendRetireAndRestoreMatchAModel) {
  using Entry = std::pair<int64_t, uint32_t>;  // (bucket, append sequence)
  for (const PartitionRole role : kRoles) {
    SCOPED_TRACE(RoleName(role));
    const bool retiring = role == PartitionRole::kRetiring;
    // The order the partition visits `entries` (given in append order) in.
    auto in_visit_order = [retiring](std::vector<Entry> entries) {
      if (retiring) {
        std::stable_sort(entries.begin(), entries.end(),
                         [](const Entry& a, const Entry& b) {
                           return a.first < b.first;
                         });
      }
      return entries;
    };
    auto entry_of = [](const EntryHeader& header, const uint8_t* value) {
      uint32_t seq;
      std::memcpy(&seq, value, sizeof(seq));
      return Entry{header.bucket, seq};
    };
    auto live_of = [&](const Partition& q) {
      std::vector<Entry> out;
      q.ForEachLive([&](const EntryHeader& header, const uint8_t* value) {
        out.push_back(entry_of(header, value));
      });
      return out;
    };
    Partition p(0, SmallAppendConfig(), role);
    std::vector<Entry> live;  // the model
    Rng rng(31);
    uint32_t seq = 0;
    int64_t fired = 2;  // buckets up to here have been retired
    for (int round = 0; round < 40; ++round) {
      SCOPED_TRACE(::testing::Message() << "round " << round);
      const int appends = int(rng.NextBounded(60));
      for (int i = 0; i < appends; ++i) {
        const int64_t bucket = fired - 2 + int64_t(rng.NextBounded(7));
        uint8_t value[12] = {};
        std::memcpy(value, &seq, sizeof(seq));
        const uint32_t len = uint32_t(sizeof(seq) + rng.NextBounded(9));
        p.Append({rng.NextBounded(5), bucket}, 0, value, len);
        live.push_back({bucket, seq++});
      }
      const int64_t threshold = fired + int64_t(rng.NextBounded(3));
      std::vector<Entry> due;
      std::vector<Entry> kept;
      for (const Entry& e : live) {
        (e.first <= threshold ? due : kept).push_back(e);
      }
      std::vector<Entry> retired;
      const uint64_t scanned = p.entries_scanned();
      EXPECT_EQ(p.RetireBucketsUpTo(
                    threshold,
                    [&](const EntryHeader& header, const uint8_t* value) {
                      retired.push_back(entry_of(header, value));
                    }),
                due.size());
      EXPECT_EQ(retired, in_visit_order(due));
      if (retiring) {
        EXPECT_EQ(p.entries_scanned() - scanned, due.size());
      }
      live = kept;
      fired = std::max(fired, threshold);
      EXPECT_EQ(p.entry_count(), live.size());
      EXPECT_EQ(live_of(p), in_visit_order(live));
      ExpectFloorBoundsLive(p);

      // A snapshot restores the same entries, each bucket in its order.
      std::vector<uint8_t> snapshot;
      EXPECT_EQ(p.Snapshot(&snapshot), live.size());
      Partition restored(0, SmallAppendConfig(), role);
      ASSERT_TRUE(restored.Restore(snapshot.data(), snapshot.size()).ok());
      EXPECT_EQ(live_of(restored), live_of(p));
      const int64_t floor =
          live.empty() ? kNoFloor
                       : std::min_element(live.begin(), live.end())->first;
      EXPECT_EQ(restored.bucket_floor(), floor);
    }
  }
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
  const size_t entries = ssb.SnapshotPartition(ssb.node(), &checkpoint);
  EXPECT_GT(entries, 0u);

  StateBackend recovered(0, SmallSsbConfig(2));
  ASSERT_TRUE(recovered
                  .RestorePartition(recovered.node(), checkpoint.data(),
                                    checkpoint.size())
                  .ok());
  for (uint64_t key = 0; key < 200; ++key) {
    if (ssb.partition_of(key) != 0) continue;
    AggState a, b;
    ASSERT_TRUE(ssb.primary()->LookupAggregate({key, 1}, &a));
    ASSERT_TRUE(recovered.primary()->LookupAggregate({key, 1}, &b));
    EXPECT_EQ(a, b);
  }
}

// A fragment starts at the floors, 256 index buckets and 64 KiB of LSS,
// whatever the node count, and never above the primary size.
TEST(StateBackendTest, FragmentsStartAtTheFloors) {
  struct Case {
    int nodes;
    size_t index_buckets;
    uint64_t lss_capacity;
    size_t fragment_buckets;
    uint64_t fragment_lss;
  };
  const Case cases[] = {
      {16, 1 << 14, 1 << 20, 256, 1 << 16},  // the JobConfig defaults
      {6, 1 << 14, 1 << 22, 256, 1 << 16},
      {2, 1 << 12, 1 << 20, 256, 1 << 16},
      {4, 64, 1 << 12, 64, 1 << 12},         // already below the floors
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

// Checks that the leader's merged partition holds exactly `oracle`, keyed
// by (key, bucket).
void ExpectMergedState(const StateBackend& leader,
                       const std::map<std::pair<uint64_t, int64_t>, int64_t>&
                           oracle) {
  for (const auto& [k, sum] : oracle) {
    AggState s;
    ASSERT_TRUE(leader.local(leader.node())
                    ->LookupAggregate({k.first, k.second}, &s))
        << "key " << k.first << " bucket " << k.second;
    ASSERT_EQ(s.sum, sum) << "key " << k.first << " bucket " << k.second;
  }
  EXPECT_EQ(leader.local(leader.node())->entry_count(), oracle.size());
}

// A skew shift: hot epochs outgrow fragment 1's index, which grows at the
// drain's reset to the primary size; cold epochs then shrink it back to its
// 256-bucket start. The leader merges the exact state across every resize.
TEST(StateBackendTest, FragmentIndexFollowsASkewShift) {
  SsbConfig cfg = SmallSsbConfig(4);
  cfg.index_buckets = 1 << 10;
  StateBackend helper(0, cfg);
  StateBackend leader(1, cfg);
  ASSERT_EQ(helper.local(1)->index_buckets(), 256u);
  std::map<std::pair<uint64_t, int64_t>, int64_t> oracle;
  auto epoch = [&](int64_t bucket, uint64_t first, uint64_t keys) {
    for (uint64_t key = first; key < first + keys; ++key) {
      if (helper.partition_of(key) != 1) continue;
      const int64_t value = int64_t(key % 97) - 48;
      helper.UpdateAggregate(key, bucket, value);
      oracle[{key, bucket}] += value;
    }
    helper.BeginEpoch();
    std::vector<uint8_t> wire;
    helper.DrainFragment(1, 0, &wire);
    ASSERT_TRUE(
        leader.MergeIntoPrimary(wire.data(), wire.size(), nullptr).ok());
    ExpectMergedState(leader, oracle);
  };
  for (int64_t e = 0; e < 2; ++e) {
    epoch(e, 0, 40000);  // ~10 000 fresh keys for partition 1
    EXPECT_EQ(helper.local(1)->index_buckets(), cfg.index_buckets)
        << "hot epoch " << e;
  }
  for (int64_t e = 2; e < 5; ++e) {
    epoch(e, uint64_t(e) * 1000, 200);  // ~50 keys
    EXPECT_EQ(helper.local(1)->index_buckets(), 256u) << "cold epoch " << e;
  }
  epoch(0, 0, 40000);  // the skew shifts back onto the first window's keys
  EXPECT_EQ(helper.local(1)->index_buckets(), cfg.index_buckets);
}

// At the JobConfig defaults (16 nodes, 16 384 primary buckets) a fragment
// takes about 430 fresh keys per epoch, as in ysb-16n. After every reset
// its index holds no more than 512 buckets.
TEST(StateBackendTest, SixteenNodeFragmentsSettleAtWhatTheyHold) {
  SsbConfig cfg;
  cfg.nodes = 16;
  cfg.index_buckets = 1 << 14;
  cfg.lss_capacity = 1 << 20;
  StateBackend ssb(0, cfg);
  uint64_t key = 0;
  for (int64_t epoch = 0; epoch < 3; ++epoch) {
    std::vector<int> fresh(cfg.nodes, 0);
    int full = 1;  // the primary takes no fragment keys
    for (; full < cfg.nodes; ++key) {
      const int p = ssb.partition_of(key);
      if (p == 0 || fresh[p] == 430) continue;
      ssb.UpdateAggregate(key, epoch, 1);
      if (++fresh[p] == 430) ++full;
    }
    ssb.BeginEpoch();
    std::vector<uint8_t> wire;
    for (int p = 1; p < cfg.nodes; ++p) {
      wire.clear();
      EXPECT_EQ(ssb.DrainFragment(p, 0, &wire).entry_count, 430u);
      EXPECT_LE(ssb.local(p)->index_buckets(), 512u)
          << "epoch " << epoch << ", fragment " << p;
    }
  }
}

// Promotion re-provisions the empty fragment at primary size; promoting a
// fragment that ever took updates is a bug, also once a drain has emptied
// it.
TEST(StateBackendTest, AddLeadershipReprovisionsAtPrimarySize) {
  SsbConfig cfg = SmallSsbConfig(4);
  cfg.index_buckets = 1 << 12;
  cfg.lss_capacity = 1 << 20;
  StateBackend ssb(0, cfg);
  ASSERT_EQ(ssb.local(2)->index_buckets(), 256u);
  ASSERT_EQ(ssb.local(2)->lss().capacity(), 1u << 16);
  ssb.AddLeadership(2);
  EXPECT_TRUE(ssb.leads(2));
  EXPECT_EQ(ssb.local(2)->index_buckets(), cfg.index_buckets);
  EXPECT_EQ(ssb.local(2)->lss().capacity(), cfg.lss_capacity);
  EXPECT_EQ(ssb.local(2)->id(), 2);

  uint64_t key = 0;
  while (ssb.partition_of(key) != 3) ++key;
  ssb.UpdateAggregate(key, 0, 1);
  EXPECT_DEATH(ssb.AddLeadership(3), "promoted after it took updates");

  while (ssb.partition_of(key) != 1) ++key;
  ssb.UpdateAggregate(key, 0, 1);
  ssb.BeginEpoch();
  std::vector<uint8_t> wire;
  ASSERT_EQ(ssb.DrainFragment(1, 0, &wire).entry_count, 1u);
  ASSERT_EQ(ssb.local(1)->lss().tail(), 0u);  // rewound by the drain
  EXPECT_DEATH(ssb.AddLeadership(1), "promoted after it took updates");
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
