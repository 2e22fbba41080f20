// Shared window-trigger logic used by every engine's leader/receiver side.
//
// Given a watermark that the engine's progress-tracking mechanism proved
// safe (Slash: min of the vector clock; re-partitioning engines: min over
// input-channel watermarks; LightSaber: min over worker watermarks), emits
// every state bucket whose trigger watermark has passed, then retires the
// bucket. Centralizing this guarantees all SUTs produce results under
// identical trigger semantics, so benchmark differences come only from the
// execution strategy.
#ifndef SLASH_ENGINES_TRIGGER_H_
#define SLASH_ENGINES_TRIGGER_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "core/join.h"
#include "core/query.h"
#include "core/record.h"
#include "core/result_sink.h"
#include "core/sliding.h"
#include "core/vector_clock.h"
#include "perf/cost_model.h"
#include "state/partition.h"

namespace slash::engines {

/// Largest bucket id whose trigger watermark is <= `wm`; INT64_MIN when no
/// bucket may trigger yet.
inline int64_t TriggerableBucket(const core::WindowSpec& window, int64_t wm) {
  if (wm == core::kWatermarkMax) return std::numeric_limits<int64_t>::max();
  const int64_t extra =
      window.type == core::WindowSpec::Type::kSession ? window.gap : 0;
  // largest b with (b+1)*width + extra <= wm. Compare as wm < width + extra
  // (width, extra are config-scale): wm - extra underflows for the initial
  // kWatermarkMin watermark.
  const int64_t width = window.BucketWidth();
  if (wm < width + extra) return std::numeric_limits<int64_t>::min();
  return (wm - extra) / width - 1;
}

/// Parses a stored wire record back into its join digest.
inline core::JoinElement ParseJoinElement(const uint8_t* payload) {
  core::WireRecordHeader header;
  std::memcpy(&header, payload, sizeof(header));
  return core::JoinElement{header.timestamp, header.stream_id};
}

/// Emits every bucket of `partition` triggerable at watermark `wm` and
/// tombstones it, in one log-order pass over the partition. A call with no
/// bucket due (threshold below Partition::bucket_floor()) costs O(1),
/// except on sliding windows, whose per-slice charge is due on every call.
/// `last_trigger_wm` suppresses redundant calls. All CPU costs are charged
/// to `cpu`.
inline void TriggerWindows(const core::QuerySpec& query, int64_t wm,
                           state::Partition* partition,
                           core::ResultSink* sink, perf::CpuContext* cpu,
                           int64_t* last_trigger_wm) {
  if (wm <= *last_trigger_wm || wm == core::kWatermarkMin) return;
  const int64_t prev_threshold =
      TriggerableBucket(query.window, *last_trigger_wm);
  *last_trigger_wm = wm;
  const int64_t threshold = TriggerableBucket(query.window, wm);
  if (threshold == std::numeric_limits<int64_t>::min()) return;

  if (query.window.type == core::WindowSpec::Type::kSliding) {
    // Sliding windows: collect the populated slice aggregates and emit
    // every newly complete window from them (general slicing; the slice
    // state is shared by all windows covering it).
    std::vector<core::SliceAggregate> slices;
    partition->ForEachLive(
        [&](const state::EntryHeader& header, const uint8_t* value) {
          if (header.bucket > threshold) return;
          core::SliceAggregate s;
          s.slice = header.bucket;
          s.key = header.key;
          std::memcpy(&s.state, value, sizeof(s.state));
          slices.push_back(s);
        });
    const uint64_t merges = core::EmitSlidingWindows(
        query.window, query.agg, slices, prev_threshold, threshold, sink);
    cpu->Charge(perf::Op::kCrdtMergePerPair, double(merges));
    cpu->Charge(perf::Op::kWindowTriggerPerKey, double(slices.size()));
    // A slice retires once its last covering window has been emitted.
    partition->TombstoneBucketsUpTo(
        core::RetirableSlice(query.window, threshold));
    return;
  }

  // Every live bucket is above the threshold: the pass below would emit,
  // charge and retire nothing. Most watermark advances end here.
  if (partition->bucket_floor() > threshold) return;

  if (query.is_join()) {
    // Lazy holistic evaluation on the merged state: group appended records
    // by (bucket, key), then count pairwise combinations per window. The
    // stable sort keeps each group's elements in log order.
    struct Appended {
      int64_t bucket;
      uint64_t key;
      core::JoinElement element;
    };
    std::vector<Appended> appended;
    partition->RetireBucketsUpTo(
        threshold, [&](const state::EntryHeader& header, const uint8_t* value) {
          appended.push_back(
              {header.bucket, header.key, ParseJoinElement(value)});
        });
    std::stable_sort(appended.begin(), appended.end(),
                     [](const Appended& a, const Appended& b) {
                       return std::tie(a.bucket, a.key) <
                              std::tie(b.bucket, b.key);
                     });
    std::vector<core::JoinElement> elements;
    for (size_t i = 0; i < appended.size();) {
      const Appended& group = appended[i];
      elements.clear();
      for (; i < appended.size() && appended[i].bucket == group.bucket &&
             appended[i].key == group.key;
           ++i) {
        elements.push_back(appended[i].element);
      }
      cpu->Charge(perf::Op::kWindowTriggerPerKey);
      cpu->Charge(perf::Op::kCrdtMergePerPair, double(elements.size()));
      const uint64_t pairs = core::CountJoinPairs(
          query.window, query.left_stream, query.right_stream, &elements);
      if (pairs > 0) sink->Emit(group.bucket, group.key, int64_t(pairs));
    }
  } else {
    partition->RetireBucketsUpTo(
        threshold, [&](const state::EntryHeader& header, const uint8_t* value) {
          cpu->Charge(perf::Op::kWindowTriggerPerKey);
          state::AggState s;
          std::memcpy(&s, value, sizeof(s));
          sink->Emit(header.bucket, header.key, s.Extract(query.agg));
        });
  }
}

/// Serializes one record into its wire form (header + opaque padding).
inline void SerializeWireRecord(const core::Record& r, uint16_t wire_size,
                                uint8_t* buf) {
  core::WireRecordHeader header;
  header.timestamp = r.timestamp;
  header.key = r.key;
  header.value = r.value;
  header.stream_id = r.stream_id;
  header.wire_size = wire_size;
  header.reserved = 0;
  std::memset(buf, 0, wire_size);
  std::memcpy(buf, &header, sizeof(header));
}

}  // namespace slash::engines

#endif  // SLASH_ENGINES_TRIGGER_H_
