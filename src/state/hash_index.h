// The hash index of the Slash State Backend, following the FASTER design
// the paper adopts (Sec. 7.2.1): indexing is decoupled from storage — the
// index maps a key hash to the log address of the newest entry in that
// key's chain; entries chain backwards through EntryHeader::prev.
//
// Layout: an array of cache-line-sized buckets, each holding seven entries
// of the form (tag : 16 bits | address : 48 bits) plus one overflow slot
// linking to an overflow bucket. The 16-bit tag disambiguates keys within a
// bucket without touching the log. Keys that collide on (bucket, tag) share
// one chain; the partition layer verifies full keys while walking it.
//
// Cost: the index costs what it stores, not what it provisions. Bucket
// storage is lazily zeroed — an all-zero bucket is a valid empty one, so the
// primary array comes straight from MapZeroPages and the OS maps a page only
// when a bucket on it is first written. Clear() takes time in proportion to
// the primary buckets claimed since the last Clear(), not to bucket_count().
//
// Growth: an index may start below its maximum size (an SSB fragment holds
// a share of its partition; see StateBackend). Clear() is the one point
// where the bucket array may change: if the contents just cleared used more
// than 3/4 of bucket_count() (claimed plus overflow buckets), it swaps in a
// zeroed array large enough to bring that load back under 3/4, up to the
// maximum. Between Clear() calls the overflow chains absorb any spill.
//
// Thread-safety: entry slots are updated through std::atomic_ref with
// compare-exchange, so concurrent inserts/updates from multiple worker
// threads are safe (the paper's executors concurrently update shared
// partition state). Claiming an empty slot and overflow bucket allocation
// take a small spinlock (rare path). Clear() and size() require external
// quiescence.
#ifndef SLASH_STATE_HASH_INDEX_H_
#define SLASH_STATE_HASH_INDEX_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/hash.h"

namespace slash::state {

class HashIndex {
 public:
  static constexpr uint64_t kInvalidAddress = ~0ULL;

  /// `bucket_count` must be a power of two. The index never grows.
  explicit HashIndex(size_t bucket_count)
      : HashIndex(bucket_count, bucket_count) {}
  /// Starts at `bucket_count` buckets and may grow at Clear() up to
  /// `max_bucket_count`; both must be powers of two.
  HashIndex(size_t bucket_count, size_t max_bucket_count);
  ~HashIndex();

  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  /// Returns the chain-head address for the hashed key, or kInvalidAddress.
  uint64_t Find(KeyHash h) const;

  /// Atomically replaces the chain head for the hashed key: succeeds iff
  /// the current head equals `expected` (kInvalidAddress for a fresh key);
  /// on failure returns false and writes the observed head to `*observed`.
  /// The typical insert loop:
  ///   uint64_t head = index.Find(h);
  ///   for (;;) {
  ///     entry->prev = head;
  ///     if (index.CompareExchangeHead(h, head, addr, &head)) break;
  ///   }
  bool CompareExchangeHead(KeyHash h, uint64_t expected, uint64_t desired,
                           uint64_t* observed);

  /// Number of occupied entry slots. Requires external quiescence.
  size_t size() const;

  /// Removes all entries, zeroing only the primary buckets claimed since the
  /// last Clear(); overflow segments and the claimed-bucket list keep their
  /// capacity for reuse. If the cleared contents used more than 3/4 of the
  /// buckets, the bucket array is replaced by a larger zeroed one instead
  /// (see the file comment). Requires external quiescence.
  void Clear();

  size_t bucket_count() const { return bucket_mask_ + 1; }
  size_t overflow_count() const {
    return overflow_used_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr int kEntriesPerBucket = 7;
  static constexpr uint64_t kAddressBits = 48;
  static constexpr uint64_t kAddressMask = (1ULL << kAddressBits) - 1;
  // A slot value of 0 means empty (tags are never 0; see HashKey()).
  static constexpr uint64_t kEmptySlot = 0;
  // Clear() grows the array when claimed + overflow buckets exceeded
  // kGrowLoadNum / kGrowLoadDen of bucket_count().
  static constexpr size_t kGrowLoadNum = 3;
  static constexpr size_t kGrowLoadDen = 4;

  // Plain words accessed through std::atomic_ref, so zero-filled memory is a
  // valid empty bucket without a constructor pass.
  struct alignas(64) Bucket {
    uint64_t entries[kEntriesPerBucket];
    uint64_t overflow;  // index+1 into the overflow directory, 0 = none
  };

  static std::atomic_ref<uint64_t> Ref(uint64_t& word) {
    return std::atomic_ref<uint64_t>(word);
  }
  static uint64_t Pack(uint16_t tag, uint64_t address) {
    return (uint64_t(tag) << kAddressBits) | (address & kAddressMask);
  }
  static uint16_t SlotTag(uint64_t slot) {
    return static_cast<uint16_t>(slot >> kAddressBits);
  }
  static uint64_t SlotAddress(uint64_t slot) { return slot & kAddressMask; }

  Bucket* BucketFor(KeyHash h) const {
    return &buckets_[h.bucket_hash & bucket_mask_];
  }
  // Finds the slot holding `tag`, or (when allocate is true) claims an
  // empty slot for it, extending the overflow chain as needed.
  uint64_t* FindSlot(Bucket* bucket, uint16_t tag, bool allocate);
  // FindSlot for callers already holding overflow_lock_: returns the slot
  // holding `tag`, an empty slot, or extends the chain in place. Never
  // returns nullptr except transiently impossible states.
  uint64_t* FindSlotLocked(Bucket* bucket, uint16_t tag);
  // Links a zeroed overflow bucket after `tail` (which has none) and returns
  // the link value. The caller holds overflow_lock_.
  uint64_t ExtendLocked(Bucket* tail);
  // Points buckets_ at a fresh zeroed array of `bucket_count` buckets; the
  // caller unmaps any previous one.
  void Provision(size_t bucket_count);

  // Overflow buckets live in a geometric directory: segment s holds
  // kSegmentSize << s buckets and is allocated on first use, so bucket
  // addresses stay stable forever and readers can follow overflow links
  // without synchronizing with pool growth. 32 segments hold ~2^42 buckets,
  // more than any host can back.
  static constexpr size_t kSegmentSize = 1024;
  static constexpr size_t kMaxSegments = 32;

  static size_t SegmentOf(size_t i) {
    return size_t(std::bit_width(i / kSegmentSize + 1)) - 1;
  }
  Bucket& OverflowAt(size_t i) const {
    const size_t s = SegmentOf(i);
    return segments_[s].load(std::memory_order_acquire)
        [i - kSegmentSize * ((size_t{1} << s) - 1)];
  }

  size_t bucket_mask_;
  size_t max_bucket_count_;
  Bucket* buckets_;  // from MapZeroPages
  // Primary buckets whose entries[0] was claimed since the last Clear().
  // Slots fill in order and are only emptied by Clear(), so a bucket is
  // listed at most once and every non-empty primary bucket is listed.
  // Appended under overflow_lock_.
  std::vector<size_t> claimed_;
  std::atomic<Bucket*> segments_[kMaxSegments] = {};
  std::atomic<size_t> overflow_used_{0};
  std::atomic_flag overflow_lock_ = ATOMIC_FLAG_INIT;
};

}  // namespace slash::state

#endif  // SLASH_STATE_HASH_INDEX_H_
