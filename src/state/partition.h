// A state partition: one hash-indexed, log-structured slice of operator
// state (paper Sec. 7.1.2 / 7.2.1).
//
// The SSB divides the key-value space into disjoint partitions; each node
// is *leader* of exactly one (its primary partition) and *helper* for the
// others, holding a local fragment that accumulates this epoch's updates.
// A Partition object is one such local store — primary or fragment; the
// distinction lives in StateBackend.
//
// Supported state shapes:
//  * Aggregate state (non-holistic windows): one in-place-updated AggState
//    accumulator per (key, bucket). The per-record RMW is the common case
//    the whole design optimizes (atomic fetch-add / CAS; no queueing, no
//    partitioning). A fresh accumulator starts at its first delta, not at
//    the identity: identity ⊕ delta is delta bit for bit, so the insert
//    skips the four atomic RMWs. Only an insert that loses the race to one
//    of the same key merges into the winner.
//  * Append state (holistic windows / joins): one log entry per observed
//    record. Nothing looks an element up by key: join state is read only
//    by whole-log walks (trigger, drain, snapshot), so appends keep no hash
//    index and link no chain.
//
// Roles (PartitionRole, chosen by the owner): a fragment is drained whole
// every epoch, so its append state stays in one log whose order is the
// delta's wire order. A retiring partition fires windows; its append state
// keeps one log per window bucket, sorted by bucket. Retirement
// (RetireBucketsUpTo) visits the due buckets' logs and destroys them, which
// unmaps their pages: a fired window gives its memory back, and a firing
// walks only what fires. Aggregate state is laid out alike in both roles:
// its index points into the one log, so a fired window's accumulators are
// tombstoned in place. The partition keeps a lower bound on the bucket of
// every live entry (bucket_floor), so a trigger with no bucket due skips
// its scan.
//
// Thread-safety: concurrent UpdateAggregate/Append/Merge*/Prefetch calls
// are safe (atomic RMW on values, CAS on chain heads, spinlocks only on
// claiming an index slot and on log allocation, which also guards the
// bucket floor and the bucket logs). Scans, serialization, Reset and
// retirement require quiescence, which Slash's epoch protocol provides by
// construction.
#ifndef SLASH_STATE_PARTITION_H_
#define SLASH_STATE_PARTITION_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "state/crdt.h"
#include "state/hash_index.h"
#include "state/log_store.h"

namespace slash::state {

/// What a partition stores.
enum class StateKind : uint8_t {
  kAggregate = 0,
  kAppend = 1,
};

/// What the owner does with a partition's content, which decides how its
/// append state is laid out (aggregate state is laid out alike in both).
enum class PartitionRole : uint8_t {
  /// Drained whole every epoch (an SSB helper fragment): append state keeps
  /// one log, in the delta's wire order.
  kFragment = 0,
  /// Fires windows (an SSB primary, a re-partitioning consumer): append
  /// state keeps one log per window bucket, freed when the bucket fires.
  kRetiring = 1,
};

/// Composite state key: user key plus window bucket (or slice) id.
struct StateKey {
  uint64_t key = 0;
  int64_t bucket = 0;

  bool operator==(const StateKey&) const = default;
};

/// Hashes the composite key for index placement.
inline KeyHash HashStateKey(const StateKey& k) {
  return HashKey(Mix64(k.key) ^ (uint64_t(k.bucket) * 0x9e3779b97f4a7c15ULL));
}

/// Partition sizing.
struct PartitionConfig {
  StateKind kind = StateKind::kAggregate;
  uint64_t lss_capacity = 1ULL << 20;   // grows adaptively
  size_t index_buckets = 1ULL << 12;
};

class Partition {
 public:
  /// A partition whose index stays at `config.index_buckets`.
  Partition(int id, const PartitionConfig& config,
            PartitionRole role = PartitionRole::kFragment)
      : Partition(id, config, role, config.index_buckets) {}
  /// A partition whose index starts at `config.index_buckets` and may
  /// resize at Reset() between that and `max_index_buckets` (see
  /// HashIndex::Clear).
  Partition(int id, const PartitionConfig& config, PartitionRole role,
            size_t max_index_buckets);

  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;

  int id() const { return id_; }

  // --- Aggregate state (kAggregate) ---------------------------------------

  /// Folds one record value into (key, bucket)'s accumulator: the
  /// read-modify-write that dominates streaming workloads. Thread-safe.
  void UpdateAggregate(StateKey k, int64_t value) {
    MergeAggregate(k, AggState{value, 1, value, value});
  }

  /// CRDT-merges a transferred partial accumulator. Thread-safe.
  void MergeAggregate(StateKey k, const AggState& delta);

  /// Reads the current accumulator; false if absent.
  bool LookupAggregate(StateKey k, AggState* out) const;

  /// Hints that an UpdateAggregate/Append of `k` comes soon: prefetches,
  /// for write, the tail line of the log `k` lands in and, for aggregate
  /// state, the key's primary index bucket. A hint only: it changes no
  /// state.
  void Prefetch(StateKey k) const {
    if (segmented_) {
      PrefetchSegmentTail(k.bucket);
      return;
    }
    if (config_.kind == StateKind::kAggregate) {
      index_.Prefetch(HashStateKey(k));
    }
    lss_.PrefetchTail();
  }

  // --- Append state (kAppend) ----------------------------------------------

  /// Appends one observed record for (key, bucket). Thread-safe.
  void Append(StateKey k, uint16_t stream_id, const uint8_t* data,
              uint32_t len);

  // --- Scans (require quiescence) ------------------------------------------

  /// Visits every live (non-tombstoned) entry in log order, a retiring
  /// partition's append state bucket by bucket in ascending order:
  /// `fn(const EntryHeader& header, const uint8_t* value)`.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    auto visit = [&fn](uint64_t, const EntryHeader& header) {
      if (header.flags & kEntryTombstone) return;
      fn(header, ValueOf(header));
    };
    lss_.ForEachEntry(visit);
    for (const Segment& segment : segments_) segment.log->ForEachEntry(visit);
  }

  /// A lower bound on the bucket of every live entry; INT64_MAX after
  /// Reset() or once every bucket retired. A trigger whose threshold lies
  /// below it has nothing to emit and skips its scan.
  int64_t bucket_floor() const { return bucket_floor_; }

  /// Retires every live entry of a bucket <= `bucket` in ForEachLive's
  /// order: calls `fn(const EntryHeader& header, const uint8_t* value)` on
  /// each (window triggered and emitted; the state is dead). A retiring
  /// partition's append state walks only the due buckets' logs and then
  /// destroys them, returning their pages; otherwise one pass over the log
  /// tombstones each due entry. Returns the number retired. O(1) when
  /// `bucket` is below the floor.
  template <typename Fn>
  size_t RetireBucketsUpTo(int64_t bucket, Fn&& fn);

  /// RetireBucketsUpTo without a visitor.
  size_t TombstoneBucketsUpTo(int64_t bucket) {
    return RetireBucketsUpTo(bucket,
                             [](const EntryHeader&, const uint8_t*) {});
  }

  // --- Epoch support --------------------------------------------------------

  /// Serializes every live entry into the delta wire format (appended to
  /// `out`), in ForEachLive's order. Marks the region read-only first,
  /// modeling the DMA/CPU exclusion of protocol step 2. Returns the number
  /// of entries.
  size_t SerializeDelta(std::vector<uint8_t>* out) const;

  /// Serializes every live entry like SerializeDelta but *without* the
  /// read-only marking: a consistent snapshot for checkpointing. Epoch
  /// boundaries are the natural snapshot points (Sec. 7.2.2: epoch-based
  /// systems use them for checkpointing); callers are responsible for the
  /// quiescence an epoch boundary provides.
  size_t Snapshot(std::vector<uint8_t>* out) const;

  /// Rebuilds state from a Snapshot/SerializeDelta byte stream. Typically
  /// applied to an empty partition (recovery); applying to a non-empty one
  /// CRDT-merges, which is also well-defined.
  Status Restore(const uint8_t* data, size_t len) {
    return MergeDelta(data, len);
  }

  /// Applies a serialized delta produced by SerializeDelta. Must match the
  /// partition kind. A lookahead cursor prefetches the index bucket of the
  /// entry kMergePrefetchDistance entries ahead, so the cold misses of
  /// several entries overlap. A truncated or malformed entry stops the
  /// merge with InvalidArgument after the entries before it are applied.
  Status MergeDelta(const uint8_t* data, size_t len);

  /// How many entries ahead of the apply cursor MergeDelta prefetches an
  /// entry's primary bucket.
  static constexpr int kMergePrefetchDistance = 8;

  /// Invalidates all content after a transfer (protocol step 4): the
  /// fragment restarts from zero values.
  void Reset();

  /// One entry-aligned piece of a serialized delta.
  struct DeltaChunk {
    size_t offset = 0;       // byte offset into the delta
    size_t length = 0;       // byte length
    uint64_t entries = 0;    // whole entries contained
  };

  /// Splits a serialized delta (as produced by SerializeDelta) into
  /// entry-aligned chunks of at most `max_chunk_bytes` each, so every chunk
  /// is independently mergeable — receivers can merge chunks on any worker
  /// without reassembling the full delta. Every entry must fit one chunk.
  static std::vector<DeltaChunk> SplitDelta(const uint8_t* data, size_t len,
                                            size_t max_chunk_bytes);

  /// Current epoch counter (incremented by the owner at sync points).
  uint64_t epoch() const { return epoch_; }
  void AdvanceEpoch() { ++epoch_; }

  // --- Introspection ---------------------------------------------------------

  size_t index_buckets() const { return index_.bucket_count(); }
  uint64_t entry_count() const { return entry_count_.load(std::memory_order_relaxed); }
  /// The log of aggregate state and of a fragment's append state.
  const LogStructuredStore& lss() const { return lss_; }
  /// Headers visited by every scan over the partition's lifetime, across
  /// all its logs, freed ones included (LogStructuredStore::entries_scanned).
  uint64_t entries_scanned() const;
  /// Bytes allocated over the partition's lifetime, across all its logs;
  /// Reset() and retirement keep it.
  uint64_t allocated_bytes() const;

 private:
  // Returns the first live entry for `k` in the chain starting at `addr`,
  // or kInvalidAddress.
  uint64_t FindInChain(uint64_t addr, StateKey k) const;

  // Where InsertEntry left `k`: the live entry's address, and whether it is
  // the caller's own new entry.
  struct Inserted {
    uint64_t addr;
    bool won;
  };

  // Allocates an entry for `k` holding a copy of `value`, with no chain
  // link (prev = kInvalidAddress), in the log `k` belongs to. Lowers the
  // bucket floor. Returns the entry's address in that log.
  uint64_t AllocateEntry(StateKey k, uint16_t stream_id, uint16_t flags,
                         const void* value, uint32_t value_len);

  // Allocates an aggregate entry holding a copy of `value`, and links it
  // at `slot`, whose chain head was last read as `head`. Returns its
  // address with won = true. If it loses the CAS to an insert of the same
  // key, the new entry is tombstoned and the winner's address is returned
  // with won = false.
  Inserted InsertEntry(StateKey k, HashIndex::Slot slot, uint64_t head,
                       const AggState& value);

  // One log of a retiring partition's append state: every entry of one
  // bucket, in append order.
  struct Segment {
    int64_t bucket;
    std::unique_ptr<LogStructuredStore> log;
  };

  // The segment of `bucket`, created if absent. Caller holds alloc_lock_.
  LogStructuredStore& SegmentFor(int64_t bucket);
  // Prefetches the tail of `bucket`'s segment, if it has one. Takes
  // alloc_lock_, since a concurrent Append may insert a segment.
  void PrefetchSegmentTail(int64_t bucket) const;
  // Destroys the first `count` segments, unmapping their logs, and keeps
  // their counters in the partition's totals.
  void DropSegments(size_t count);

  static const uint8_t* ValueOf(const EntryHeader& header) {
    return reinterpret_cast<const uint8_t*>(&header) + sizeof(EntryHeader);
  }

  int id_;
  PartitionConfig config_;
  // Retiring append state: entries live in segments_, not lss_.
  const bool segmented_;
  HashIndex index_;
  LogStructuredStore lss_;
  std::vector<Segment> segments_;  // sorted by bucket
  // Counters of destroyed segments (entries_scanned, allocated_bytes).
  uint64_t dropped_scanned_ = 0;
  uint64_t dropped_allocated_ = 0;
  std::atomic<uint64_t> entry_count_{0};
  uint64_t epoch_ = 0;
  mutable std::atomic_flag alloc_lock_ = ATOMIC_FLAG_INIT;
  // Lowered by every insert under `alloc_lock_`; raised by retirement and
  // Reset(), which run quiesced. Exact in a segmented partition: the first
  // segment's bucket.
  int64_t bucket_floor_ = std::numeric_limits<int64_t>::max();
};

template <typename Fn>
size_t Partition::RetireBucketsUpTo(int64_t bucket, Fn&& fn) {
  if (bucket < bucket_floor_) return 0;
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  size_t count = 0;
  if (segmented_) {
    // A segment holds one bucket and no tombstones: visit it whole, then
    // unmap it.
    size_t due = 0;
    for (; due < segments_.size() && segments_[due].bucket <= bucket; ++due) {
      segments_[due].log->ForEachEntry(
          [&](uint64_t, const EntryHeader& header) {
            fn(header, ValueOf(header));
            ++count;
          });
    }
    DropSegments(due);
    bucket_floor_ = segments_.empty() ? kMax : segments_.front().bucket;
  } else {
    lss_.ForEachEntry([&](uint64_t addr, const EntryHeader& header) {
      if (header.flags & kEntryTombstone) return;
      if (header.bucket > bucket) return;
      fn(header, ValueOf(header));
      lss_.HeaderAt(addr)->flags |= kEntryTombstone;
      ++count;
    });
    // Every live entry is now above `bucket` (none is left after INT64_MAX).
    bucket_floor_ = bucket == kMax ? kMax : bucket + 1;
  }
  entry_count_.fetch_sub(count, std::memory_order_relaxed);
  return count;
}

}  // namespace slash::state

#endif  // SLASH_STATE_PARTITION_H_
