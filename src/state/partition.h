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
//    partitioning).
//  * Append state (holistic windows / joins): one log entry per observed
//    record, chained per (key, bucket) through the hash index.
//
// Retirement: a fired window's entries are tombstoned in place
// (RetireBucketsUpTo), so the log keeps the run's history. The partition
// keeps a lower bound on the bucket of every live entry (bucket_floor), so
// a trigger with no bucket due skips its scan, and one with a bucket due
// emits and tombstones in a single log-order pass.
//
// Thread-safety: concurrent UpdateAggregate/Append/Merge* calls are safe
// (atomic RMW on values, CAS on chain heads, spinlock only on log
// allocation, which also guards the bucket floor). Scans, serialization,
// Reset and retirement require quiescence, which Slash's epoch protocol
// provides by construction.
#ifndef SLASH_STATE_PARTITION_H_
#define SLASH_STATE_PARTITION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
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
  Partition(int id, const PartitionConfig& config)
      : Partition(id, config, config.index_buckets) {}
  /// A partition whose index starts at `config.index_buckets` and may grow
  /// at Reset() up to `max_index_buckets` (see HashIndex::Clear).
  Partition(int id, const PartitionConfig& config, size_t max_index_buckets);

  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;

  int id() const { return id_; }
  StateKind kind() const { return config_.kind; }

  // --- Aggregate state (kAggregate) ---------------------------------------

  /// Folds one record value into (key, bucket)'s accumulator: the
  /// read-modify-write that dominates streaming workloads. Thread-safe.
  void UpdateAggregate(StateKey k, int64_t value);

  /// CRDT-merges a transferred partial accumulator. Thread-safe.
  void MergeAggregate(StateKey k, const AggState& delta);

  /// Reads the current accumulator; false if absent.
  bool LookupAggregate(StateKey k, AggState* out) const;

  // --- Append state (kAppend) ----------------------------------------------

  /// Appends one observed record for (key, bucket). Thread-safe.
  void Append(StateKey k, uint16_t stream_id, const uint8_t* data,
              uint32_t len);

  /// Collects every appended element of (key, bucket), newest first.
  void CollectAppends(StateKey k, AppendSet* out) const;

  // --- Scans (require quiescence) ------------------------------------------

  /// Visits every live (non-tombstoned) entry in log order:
  /// `fn(const EntryHeader& header, const uint8_t* value)`.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    lss_.ForEachEntry(lss_.head(), lss_.tail(),
                      [&fn](uint64_t, const EntryHeader& header) {
                        if (header.flags & kEntryTombstone) return;
                        fn(header, ValueOf(header));
                      });
  }

  /// A lower bound on the bucket of every live entry; INT64_MAX after
  /// Reset() or once every bucket retired. A trigger whose threshold lies
  /// below it has nothing to emit and skips its scan.
  int64_t bucket_floor() const { return bucket_floor_; }

  /// Retires every live entry of a bucket <= `bucket` in one log-order
  /// pass: calls `fn(const EntryHeader& header, const uint8_t* value)`,
  /// then tombstones the entry (window triggered and emitted; the state is
  /// dead). Returns the number retired. O(1) when `bucket` is below the
  /// floor.
  template <typename Fn>
  size_t RetireBucketsUpTo(int64_t bucket, Fn&& fn);

  /// RetireBucketsUpTo without a visitor.
  size_t TombstoneBucketsUpTo(int64_t bucket) {
    return RetireBucketsUpTo(bucket,
                             [](const EntryHeader&, const uint8_t*) {});
  }

  // --- Epoch support --------------------------------------------------------

  /// Serializes every live entry into the delta wire format (appended to
  /// `out`). Marks the region read-only first, modeling the DMA/CPU
  /// exclusion of protocol step 2. Returns the number of entries.
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
  /// partition kind.
  Status MergeDelta(const uint8_t* data, size_t len);

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

  uint64_t live_bytes() const { return lss_.live_bytes(); }
  size_t index_buckets() const { return index_.bucket_count(); }
  uint64_t entry_count() const { return entry_count_.load(std::memory_order_relaxed); }
  const LogStructuredStore& lss() const { return lss_; }

 private:
  // Finds the live entry for `k`, walking the chain from the index head.
  // Returns kInvalidAddress if absent.
  uint64_t FindEntry(StateKey k) const;

  // Allocates and links a new entry; returns its address, or the address of
  // a concurrently inserted entry for the same key (losing allocation is
  // tombstoned). `init` fills the value bytes before publication.
  uint64_t InsertEntry(StateKey k, uint16_t stream_id, uint16_t flags,
                       uint32_t value_len,
                       const std::function<void(uint8_t*)>& init,
                       bool* inserted);

  static const uint8_t* ValueOf(const EntryHeader& header) {
    return reinterpret_cast<const uint8_t*>(&header) + sizeof(EntryHeader);
  }

  int id_;
  PartitionConfig config_;
  HashIndex index_;
  LogStructuredStore lss_;
  std::atomic<uint64_t> entry_count_{0};
  uint64_t epoch_ = 0;
  mutable std::atomic_flag alloc_lock_ = ATOMIC_FLAG_INIT;
  // Lowered by every insert under `alloc_lock_`; raised by retirement and
  // Reset(), which run quiesced.
  int64_t bucket_floor_ = std::numeric_limits<int64_t>::max();
};

template <typename Fn>
size_t Partition::RetireBucketsUpTo(int64_t bucket, Fn&& fn) {
  if (bucket < bucket_floor_) return 0;
  size_t count = 0;
  lss_.ForEachEntry(lss_.head(), lss_.tail(),
                    [&](uint64_t addr, const EntryHeader& header) {
                      if (header.flags & kEntryTombstone) return;
                      if (header.bucket > bucket) return;
                      fn(header, ValueOf(header));
                      lss_.HeaderAt(addr)->flags |= kEntryTombstone;
                      ++count;
                    });
  entry_count_.fetch_sub(count, std::memory_order_relaxed);
  // Every live entry is now above `bucket` (none is left after INT64_MAX).
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  bucket_floor_ = bucket == kMax ? kMax : bucket + 1;
  return count;
}

}  // namespace slash::state

#endif  // SLASH_STATE_PARTITION_H_
