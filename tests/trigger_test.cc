// Tests for the shared trigger logic and the delta-chunking machinery:
// TriggerableBucket arithmetic across window types, emission/tombstone
// interaction with partitions, SplitDelta entry alignment, and watermark
// boundary conditions (property P1 at the unit level).
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "engines/trigger.h"
#include "sim/simulator.h"
#include "state/partition.h"

namespace slash::engines {
namespace {

using core::QuerySpec;
using core::ResultSink;
using core::WindowSpec;
using state::AggState;
using state::Partition;
using state::PartitionConfig;

TEST(TriggerableBucketTest, TumblingBoundaries) {
  const WindowSpec w = WindowSpec::Tumbling(100);
  // Bucket b triggers when wm >= (b+1)*100.
  EXPECT_EQ(TriggerableBucket(w, 99), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(TriggerableBucket(w, 100), 0);
  EXPECT_EQ(TriggerableBucket(w, 199), 0);
  EXPECT_EQ(TriggerableBucket(w, 200), 1);
  EXPECT_EQ(TriggerableBucket(w, core::kWatermarkMax),
            std::numeric_limits<int64_t>::max());
}

TEST(TriggerableBucketTest, SessionNeedsOneExtraGap) {
  const WindowSpec w = WindowSpec::Session(/*gap=*/10, /*horizon_gaps=*/10);
  // Bucket width 100; bucket 0 triggers at 100 + gap = 110.
  EXPECT_EQ(TriggerableBucket(w, 109), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(TriggerableBucket(w, 110), 0);
}

TEST(TriggerableBucketTest, SlidingUsesSlideWidth) {
  const WindowSpec w = WindowSpec::Sliding(/*size=*/400, /*slide=*/100);
  EXPECT_EQ(TriggerableBucket(w, 100), 0);   // slice 0 complete
  EXPECT_EQ(TriggerableBucket(w, 450), 3);   // slices 0..3 complete
}

PartitionConfig AggConfig() {
  PartitionConfig cfg;
  cfg.kind = state::StateKind::kAggregate;
  cfg.lss_capacity = 1 << 14;
  cfg.index_buckets = 64;
  return cfg;
}

struct TriggerHarness {
  sim::Simulator sim;
  perf::CpuContext cpu{&sim, &perf::CostModel::Default()};
  Partition partition{0, AggConfig()};
  ResultSink sink{true};
  int64_t last_wm = core::kWatermarkMin;
};

TEST(TriggerWindowsTest, EmitsOnlyCompleteBucketsAndRetiresThem) {
  TriggerHarness h;
  QuerySpec q;
  q.window = WindowSpec::Tumbling(100);
  q.agg = state::AggKind::kSum;
  h.partition.UpdateAggregate({1, 0}, 5);   // bucket 0
  h.partition.UpdateAggregate({1, 1}, 7);   // bucket 1
  h.partition.UpdateAggregate({2, 2}, 9);   // bucket 2

  TriggerWindows(q, /*wm=*/200, &h.partition, &h.sink, &h.cpu, &h.last_wm);
  // Buckets 0 and 1 triggered; bucket 2 still open.
  ASSERT_EQ(h.sink.count(), 2u);
  const auto rows = h.sink.SortedRows();
  EXPECT_EQ(rows[0], (core::WindowResult{0, 1, 5}));
  EXPECT_EQ(rows[1], (core::WindowResult{1, 1, 7}));
  EXPECT_EQ(h.partition.entry_count(), 1u);  // bucket 2 survives

  // Re-triggering at the same watermark is a no-op.
  TriggerWindows(q, 200, &h.partition, &h.sink, &h.cpu, &h.last_wm);
  EXPECT_EQ(h.sink.count(), 2u);

  // End of stream: everything remaining fires.
  TriggerWindows(q, core::kWatermarkMax, &h.partition, &h.sink, &h.cpu,
                 &h.last_wm);
  EXPECT_EQ(h.sink.count(), 3u);
  EXPECT_EQ(h.partition.entry_count(), 0u);
}

TEST(TriggerWindowsTest, WatermarkRegressionIgnored) {
  TriggerHarness h;
  QuerySpec q;
  q.window = WindowSpec::Tumbling(100);
  h.partition.UpdateAggregate({1, 0}, 1);
  TriggerWindows(q, 500, &h.partition, &h.sink, &h.cpu, &h.last_wm);
  EXPECT_EQ(h.sink.count(), 1u);
  // A stale, lower watermark must not re-trigger or re-scan.
  TriggerWindows(q, 300, &h.partition, &h.sink, &h.cpu, &h.last_wm);
  EXPECT_EQ(h.sink.count(), 1u);
}

TEST(TriggerWindowsTest, MinWatermarkNeverTriggers) {
  TriggerHarness h;
  QuerySpec q;
  q.window = WindowSpec::Tumbling(100);
  h.partition.UpdateAggregate({1, 0}, 1);
  TriggerWindows(q, core::kWatermarkMin, &h.partition, &h.sink, &h.cpu,
                 &h.last_wm);
  EXPECT_EQ(h.sink.count(), 0u);
  EXPECT_EQ(h.partition.entry_count(), 1u);
}

TEST(TriggerWindowsTest, SlidingEmitsAcrossCallsExactlyOnce) {
  TriggerHarness h;
  QuerySpec q;
  q.window = WindowSpec::Sliding(200, 100);  // k = 2
  q.agg = state::AggKind::kSum;
  for (int64_t slice = 0; slice < 6; ++slice) {
    h.partition.UpdateAggregate({9, slice}, 1 << slice);
  }
  // First trigger covers windows up to e=2, second the rest.
  TriggerWindows(q, 300, &h.partition, &h.sink, &h.cpu, &h.last_wm);
  const uint64_t first_batch = h.sink.count();
  EXPECT_GT(first_batch, 0u);
  TriggerWindows(q, core::kWatermarkMax, &h.partition, &h.sink, &h.cpu,
                 &h.last_wm);

  ResultSink expected(true);
  std::vector<core::SliceAggregate> slices;
  for (int64_t slice = 0; slice < 6; ++slice) {
    AggState s;
    s.Apply(1 << slice);
    slices.push_back({slice, 9, s});
  }
  core::EmitSlidingWindows(q.window, q.agg, slices,
                           std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max(), &expected);
  EXPECT_EQ(h.sink.SortedRows(), expected.SortedRows());
}

TEST(TriggerWindowsTest, LateEntryInFiredBucketEmitsAtNextCall) {
  TriggerHarness h;
  QuerySpec q;
  q.window = WindowSpec::Tumbling(100);
  q.agg = state::AggKind::kSum;
  h.partition.UpdateAggregate({1, 0}, 5);
  TriggerWindows(q, 150, &h.partition, &h.sink, &h.cpu, &h.last_wm);
  ASSERT_EQ(h.sink.count(), 1u);
  // Bucket 0 already fired; a late entry for it lowers the floor again, so
  // the next call emits it although the threshold stays at 0.
  h.partition.UpdateAggregate({2, 0}, 3);
  TriggerWindows(q, 160, &h.partition, &h.sink, &h.cpu, &h.last_wm);
  ASSERT_EQ(h.sink.count(), 2u);
  EXPECT_EQ(h.sink.rows()[1], (core::WindowResult{0, 2, 3}));
  EXPECT_EQ(h.partition.entry_count(), 0u);
}

TEST(TriggerWindowsTest, IdleSlidingCallStillChargesRetainedSlices) {
  TriggerHarness h;
  QuerySpec q;
  q.window = WindowSpec::Sliding(200, 100);  // k = 2
  for (int64_t slice = 0; slice < 4; ++slice) {
    h.partition.UpdateAggregate({9, slice}, 1);
  }
  // Threshold 2: windows up to e = 2 fire, slices 0 and 1 retire, slice 2
  // is retained for the window ending at 3.
  TriggerWindows(q, 300, &h.partition, &h.sink, &h.cpu, &h.last_wm);
  const uint64_t rows = h.sink.count();
  const double cycles = h.cpu.counters().total_cycles();
  // The threshold does not move: nothing is emitted, but the retained
  // slice is still charged once.
  TriggerWindows(q, 350, &h.partition, &h.sink, &h.cpu, &h.last_wm);
  EXPECT_EQ(h.sink.count(), rows);
  EXPECT_DOUBLE_EQ(h.cpu.counters().total_cycles() - cycles,
                   perf::CostModel::Default()
                       .Get(perf::Op::kWindowTriggerPerKey)
                       .total_cycles());
}

PartitionConfig AppendConfig() {
  PartitionConfig cfg = AggConfig();
  cfg.kind = state::StateKind::kAppend;
  return cfg;
}

void AppendWire(Partition* p, uint64_t key, int64_t ts, uint16_t stream,
                int64_t width) {
  uint8_t buf[core::kMinWireRecord];
  SerializeWireRecord(core::Record{ts, key, 0, stream}, sizeof(buf), buf);
  p->Append({key, ts / width}, stream, buf, sizeof(buf));
}

TEST(TriggerWindowsTest, IdleCallsScanNothingAndFiringsScanOnce) {
  // N entries over 3 buckets, then W rising watermarks inside each bucket:
  // only the first call of buckets 1 and 2 finds a bucket due. Aggregate
  // state walks its log once per firing, so twice in total (the per-call
  // rescans used to walk about 2W times); join state in a retiring
  // partition walks only the entries that fire, buckets 0 and 1.
  constexpr int kEntries = 3000;
  constexpr int kCallsPerBucket = 10;
  for (const bool join : {false, true}) {
    SCOPED_TRACE(join ? "join" : "aggregate");
    TriggerHarness h;
    Partition partition(0, join ? AppendConfig() : AggConfig(),
                        state::PartitionRole::kRetiring);
    QuerySpec q;
    q.window = WindowSpec::Tumbling(100);
    q.agg = state::AggKind::kSum;
    if (join) q.type = QuerySpec::Type::kJoin;
    ResultSink expected(true);
    for (int i = 0; i < kEntries; ++i) {
      const int64_t bucket = i % 3;
      if (join) {
        AppendWire(&partition, uint64_t(i), bucket * 100, 0, 100);
        AppendWire(&partition, uint64_t(i), bucket * 100 + 1, 1, 100);
        if (bucket < 2) expected.Emit(bucket, uint64_t(i), 1);
      } else {
        partition.UpdateAggregate({uint64_t(i), bucket}, i);
        if (bucket < 2) expected.Emit(bucket, uint64_t(i), i);
      }
    }
    const uint64_t entries = join ? 2 * kEntries : kEntries;
    for (int64_t bucket = 0; bucket < 3; ++bucket) {
      for (int call = 0; call < kCallsPerBucket; ++call) {
        TriggerWindows(q, bucket * 100 + 1 + call * 9, &partition, &h.sink,
                       &h.cpu, &h.last_wm);
      }
    }
    if (join) {
      EXPECT_EQ(partition.entries_scanned(), 2 * entries / 3);
    } else {
      EXPECT_LE(partition.entries_scanned(), 2 * entries);
    }
    EXPECT_EQ(h.sink.SortedRows(), expected.SortedRows());
    EXPECT_EQ(partition.entry_count(), entries / 3);
  }
}

// The join trigger as a std::map from (bucket, key) to the group's
// elements, followed by a separate tombstone pass.
void MapJoinTrigger(const QuerySpec& query, int64_t wm, Partition* partition,
                    ResultSink* sink, perf::CpuContext* cpu,
                    int64_t* last_trigger_wm) {
  if (wm <= *last_trigger_wm || wm == core::kWatermarkMin) return;
  *last_trigger_wm = wm;
  const int64_t threshold = TriggerableBucket(query.window, wm);
  if (threshold == std::numeric_limits<int64_t>::min()) return;
  std::map<std::pair<int64_t, uint64_t>, std::vector<core::JoinElement>>
      groups;
  partition->ForEachLive(
      [&](const state::EntryHeader& header, const uint8_t* value) {
        if (header.bucket > threshold) return;
        groups[{header.bucket, header.key}].push_back(ParseJoinElement(value));
      });
  for (auto& [group, elements] : groups) {
    cpu->Charge(perf::Op::kWindowTriggerPerKey);
    cpu->Charge(perf::Op::kCrdtMergePerPair, double(elements.size()));
    const uint64_t pairs = core::CountJoinPairs(
        query.window, query.left_stream, query.right_stream, &elements);
    if (pairs > 0) sink->Emit(group.first, group.second, int64_t(pairs));
  }
  partition->TombstoneBucketsUpTo(threshold);
}

constexpr state::PartitionRole kRoles[] = {state::PartitionRole::kFragment,
                                           state::PartitionRole::kRetiring};

TEST(TriggerWindowsTest, JoinMatchesMapGroupingRowsOrderAndCharges) {
  for (const WindowSpec window :
       {WindowSpec::Tumbling(100), WindowSpec::Session(10, 10)}) {
    for (const state::PartitionRole role : kRoles) {
      SCOPED_TRACE(::testing::Message() << "window " << int(window.type)
                                        << ", role " << int(role));
      QuerySpec q;
      q.type = QuerySpec::Type::kJoin;
      q.window = window;
      TriggerHarness flat;
      TriggerHarness mapped;
      Partition flat_state(0, AppendConfig(), role);
      Partition mapped_state(0, AppendConfig());
      const int64_t width = window.BucketWidth();
      Rng rng(17);
      int64_t wm = 0;
      for (int round = 0; round < 8; ++round) {
        // Keys and buckets interleave randomly in log order; some appends
        // land in buckets that fired up to three rounds ago.
        for (int i = 0; i < 200; ++i) {
          const uint64_t key = rng.NextBounded(7);
          const int64_t ts = wm - 4 * width + int64_t(rng.NextBounded(
                                                  uint64_t(6 * width)));
          const uint16_t stream = uint16_t(rng.NextBounded(2));
          AppendWire(&flat_state, key, std::max<int64_t>(ts, 0), stream, width);
          AppendWire(&mapped_state, key, std::max<int64_t>(ts, 0), stream,
                     width);
        }
        wm += width + int64_t(rng.NextBounded(uint64_t(width)));
        const int64_t trigger_wm = round == 7 ? core::kWatermarkMax : wm;
        TriggerWindows(q, trigger_wm, &flat_state, &flat.sink, &flat.cpu,
                       &flat.last_wm);
        MapJoinTrigger(q, trigger_wm, &mapped_state, &mapped.sink, &mapped.cpu,
                       &mapped.last_wm);
        ASSERT_EQ(flat.sink.rows(), mapped.sink.rows()) << "round " << round;
        EXPECT_EQ(flat.sink.checksum(), mapped.sink.checksum());
        EXPECT_EQ(flat.cpu.counters().instructions,
                  mapped.cpu.counters().instructions);
        EXPECT_EQ(flat.cpu.counters().total_cycles(),
                  mapped.cpu.counters().total_cycles());
        EXPECT_EQ(flat.cpu.pending_nanos(), mapped.cpu.pending_nanos());
        EXPECT_EQ(flat_state.entry_count(), mapped_state.entry_count());
      }
      EXPECT_GT(flat.sink.count(), 0u);
      EXPECT_EQ(flat_state.entry_count(), 0u);
    }
  }
}

TEST(TriggerWindowsTest, JoinMatchesMapGroupingAcrossThousandsOfGroups) {
  // 5 000 keys over 3 buckets: the first firing holds thousands of
  // (bucket, key) groups, so the trigger's grouping table grows many times
  // within one firing. Late appends into fired buckets then reopen groups
  // for the next firing.
  constexpr uint64_t kKeys = 5000;
  for (const WindowSpec window :
       {WindowSpec::Tumbling(100), WindowSpec::Session(10, 10)}) {
    SCOPED_TRACE(int(window.type));
    QuerySpec q;
    q.type = QuerySpec::Type::kJoin;
    q.window = window;
    TriggerHarness flat;
    TriggerHarness mapped;
    // The trigger side takes the role of the partitions that fire.
    Partition flat_state(0, AppendConfig(), state::PartitionRole::kRetiring);
    Partition mapped_state(0, AppendConfig());
    const int64_t width = window.BucketWidth();
    Rng rng(23);
    std::set<std::pair<int64_t, uint64_t>> groups;  // every (bucket, key)
    auto append = [&](int count, uint64_t buckets) {
      for (int i = 0; i < count; ++i) {
        const uint64_t key = rng.NextBounded(kKeys);
        const int64_t bucket = int64_t(rng.NextBounded(buckets));
        const int64_t ts =
            bucket * width + int64_t(rng.NextBounded(uint64_t(width)));
        groups.insert({bucket, key});
        const uint16_t stream = uint16_t(rng.NextBounded(2));
        AppendWire(&flat_state, key, ts, stream, width);
        AppendWire(&mapped_state, key, ts, stream, width);
      }
    };
    auto fire_both = [&](int64_t wm) {
      TriggerWindows(q, wm, &flat_state, &flat.sink, &flat.cpu,
                     &flat.last_wm);
      MapJoinTrigger(q, wm, &mapped_state, &mapped.sink, &mapped.cpu,
                     &mapped.last_wm);
      ASSERT_EQ(flat.sink.rows(), mapped.sink.rows()) << "wm " << wm;
      EXPECT_EQ(flat.cpu.counters().total_cycles(),
                mapped.cpu.counters().total_cycles());
      EXPECT_EQ(flat_state.entry_count(), mapped_state.entry_count());
    };

    append(6 * int(kKeys), 3);
    // Buckets 0 and 1 fire: about 8 600 groups.
    EXPECT_GT(std::distance(groups.begin(), groups.lower_bound({2, 0})),
              8000);
    const int64_t wm = 2 * width + window.gap;
    ASSERT_EQ(TriggerableBucket(window, wm), 1);
    fire_both(wm);
    EXPECT_GT(flat.sink.count(), 1000u);
    // Late appends, most into the two fired buckets, fire at the same
    // threshold; the end of stream fires the rest.
    append(3000, 2);
    append(1000, 3);
    fire_both(wm + 1);
    fire_both(core::kWatermarkMax);
    EXPECT_EQ(flat_state.entry_count(), 0u);
  }
}

TEST(SplitDeltaTest, ChunksAreEntryAlignedAndComplete) {
  Partition p(0, AggConfig());
  for (uint64_t key = 0; key < 50; ++key) {
    p.UpdateAggregate({key, 0}, int64_t(key));
  }
  std::vector<uint8_t> delta;
  const size_t entries = p.SerializeDelta(&delta);
  EXPECT_EQ(entries, 50u);

  // Each serialized aggregate entry is 24 (wire header) + 32 bytes.
  const size_t entry_bytes = 56;
  for (const size_t max_chunk : {entry_bytes, 3 * entry_bytes + 10,
                                 size_t(1) << 20}) {
    const auto chunks =
        state::Partition::SplitDelta(delta.data(), delta.size(), max_chunk);
    uint64_t total_entries = 0;
    size_t total_bytes = 0;
    for (const auto& c : chunks) {
      EXPECT_LE(c.length, max_chunk);
      EXPECT_EQ(c.length % entry_bytes, 0u);  // never splits an entry
      total_entries += c.entries;
      total_bytes += c.length;
    }
    EXPECT_EQ(total_entries, 50u);
    EXPECT_EQ(total_bytes, delta.size());
    // Chunks tile the delta contiguously.
    size_t pos = 0;
    for (const auto& c : chunks) {
      EXPECT_EQ(c.offset, pos);
      pos += c.length;
    }
  }
}

TEST(SplitDeltaTest, EmptyDeltaYieldsOneEmptyChunk) {
  const auto chunks = state::Partition::SplitDelta(nullptr, 0, 1024);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].entries, 0u);
  EXPECT_EQ(chunks[0].length, 0u);
}

TEST(SplitDeltaTest, OversizedEntryDies) {
  Partition p(0, [] {
    PartitionConfig cfg;
    cfg.kind = state::StateKind::kAppend;
    cfg.lss_capacity = 1 << 14;
    cfg.index_buckets = 64;
    return cfg;
  }());
  std::vector<uint8_t> big(400, 7);
  p.Append({1, 0}, 0, big.data(), uint32_t(big.size()));
  std::vector<uint8_t> delta;
  p.SerializeDelta(&delta);
  EXPECT_DEATH(
      state::Partition::SplitDelta(delta.data(), delta.size(), 100),
      "larger than a chunk");
}

TEST(SerializeWireRecordTest, RoundTripsThroughParseJoinElement) {
  core::Record r{12345, 77, -9, 2};
  uint8_t buf[206];
  SerializeWireRecord(r, sizeof(buf), buf);
  const core::JoinElement e = ParseJoinElement(buf);
  EXPECT_EQ(e.ts, 12345);
  EXPECT_EQ(e.stream_id, 2);
}

}  // namespace
}  // namespace slash::engines
