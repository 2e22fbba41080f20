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

#include "common/logging.h"
#include "core/join.h"
#include "core/query.h"
#include "core/record.h"
#include "core/result_sink.h"
#include "core/sliding.h"
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

/// The due elements of one join firing, grouped by (bucket, key). Add()
/// numbers each element's group through a flat open-addressing table (a
/// group index per slot, grown at load 1/2); ForEachGroup() sorts only the
/// groups by (bucket, key) and lays each group's elements out in log order
/// with a counting scatter. That is the order a stable sort of the elements
/// by (bucket, key) gives, at a sort of ~1/10 the size on NEXMark Q8.
class JoinGroups {
 public:
  /// Adds the next due element, in log order.
  void Add(int64_t bucket, uint64_t key, core::JoinElement element) {
    if (2 * (groups_.size() + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    size_t slot = Hash(bucket, key) & mask;
    uint32_t group = slots_[slot];
    while (group != kEmpty &&
           (groups_[group].bucket != bucket || groups_[group].key != key)) {
      slot = (slot + 1) & mask;
      group = slots_[slot];
    }
    if (group == kEmpty) {
      group = uint32_t(groups_.size());
      slots_[slot] = group;
      groups_.push_back({bucket, key, group});
      sizes_.push_back(0);
    }
    ++sizes_[group];
    group_of_.push_back(group);
    elements_.push_back(element);
  }

  /// Calls `fn(int64_t bucket, uint64_t key,
  /// std::vector<core::JoinElement>* elements)` once per group in
  /// (bucket, key) order, with the group's elements in log order. Call it
  /// once, after the last Add(): it reorders the groups under the table.
  template <typename Fn>
  void ForEachGroup(Fn&& fn) {
    SLASH_CHECK_LT(elements_.size(), size_t(kEmpty));
    std::sort(groups_.begin(), groups_.end(),
              [](const Group& a, const Group& b) {
                return std::tie(a.bucket, a.key) < std::tie(b.bucket, b.key);
              });
    // sizes_[id] becomes the group's first position, then, once the
    // scatter has advanced it, its end.
    uint32_t begin = 0;
    for (const Group& g : groups_) {
      const uint32_t size = sizes_[g.id];
      sizes_[g.id] = begin;
      begin += size;
    }
    std::vector<core::JoinElement> grouped(elements_.size());
    for (size_t i = 0; i < elements_.size(); ++i) {
      grouped[sizes_[group_of_[i]]++] = elements_[i];
    }
    std::vector<core::JoinElement> elements;
    begin = 0;
    for (const Group& g : groups_) {
      const uint32_t end = sizes_[g.id];
      elements.assign(grouped.begin() + begin, grouped.begin() + end);
      begin = end;
      fn(g.bucket, g.key, &elements);
    }
  }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();

  struct Group {
    int64_t bucket;
    uint64_t key;
    uint32_t id;  // index in first-seen order, as group_of_ holds it
  };

  static uint64_t Hash(int64_t bucket, uint64_t key) {
    return state::HashStateKey({key, bucket}).bucket_hash;
  }

  // Doubles the table (16 slots at first) and re-places every group; the
  // groups are still in first-seen order, so groups_[i].id == i.
  void Grow() {
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), kEmpty);
    const size_t mask = slots_.size() - 1;
    for (const Group& g : groups_) {
      size_t slot = Hash(g.bucket, g.key) & mask;
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = g.id;
    }
  }

  std::vector<uint32_t> slots_;              // group id, or kEmpty
  std::vector<Group> groups_;
  std::vector<uint32_t> sizes_;              // elements per group id
  std::vector<uint32_t> group_of_;           // group id per element
  std::vector<core::JoinElement> elements_;  // due elements, log order
};

/// Emits every bucket of `partition` triggerable at watermark `wm` and
/// retires it, in one pass (Partition::RetireBucketsUpTo). A call with no
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
    // Lazy holistic evaluation on the merged state: group the due
    // appended records by (bucket, key) in the retire walk, then count
    // pairwise combinations per window.
    JoinGroups groups;
    partition->RetireBucketsUpTo(
        threshold, [&](const state::EntryHeader& header, const uint8_t* value) {
          groups.Add(header.bucket, header.key, ParseJoinElement(value));
        });
    groups.ForEachGroup([&](int64_t bucket, uint64_t key,
                            std::vector<core::JoinElement>* elements) {
      cpu->Charge(perf::Op::kWindowTriggerPerKey);
      cpu->Charge(perf::Op::kCrdtMergePerPair, double(elements->size()));
      const uint64_t pairs = core::CountJoinPairs(
          query.window, query.left_stream, query.right_stream, elements);
      if (pairs > 0) sink->Emit(bucket, key, int64_t(pairs));
    });
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
