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
// One walk per access: Claim() hands a key's slot to the caller, who swings
// its chain head with a plain CAS on the slot word. Slots in a bucket chain
// fill in order and only Clear() empties them, so a tag's slot lies before
// the chain's first empty slot: lookups stop there, and a claim that misses
// resumes there under the lock. A claimed slot with no entry yet holds the
// 48-bit all-ones address, which no 32-byte-aligned log entry has.
//
// Cost: the index costs what it stores, not what it provisions. Bucket
// storage is lazily zeroed — an all-zero bucket is a valid empty one, so the
// primary array comes straight from MapZeroPages and the OS maps a page only
// when a bucket on it is first written. Clear() takes time in proportion to
// the primary buckets claimed since the last Clear(), not to bucket_count().
//
// Sizing: an index may start below its maximum size (an SSB fragment starts
// at a small floor; see StateBackend) and never goes below that start size.
// Clear() is the one point where the bucket array may change. It takes the
// load just cleared (claimed plus overflow buckets) and the smallest power
// of two in [start size, maximum] that keeps that load under 3/4. It swaps
// in a zeroed array of that size when it is larger than bucket_count(), or
// when the load fell below 1/4 of bucket_count(); the gap between 1/4 and
// 3/4 keeps a steady load from remapping every epoch. Between Clear() calls
// the overflow chains absorb any spill.
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

  /// `bucket_count` must be a power of two. The index never resizes.
  explicit HashIndex(size_t bucket_count)
      : HashIndex(bucket_count, bucket_count) {}
  /// Starts at `bucket_count` buckets and may resize at Clear() between
  /// that and `max_bucket_count`; both must be powers of two.
  HashIndex(size_t bucket_count, size_t max_bucket_count);
  ~HashIndex();

  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  /// A key's slot: the index word holding its tag and chain head. Valid
  /// until the next Clear().
  using Slot = uint64_t*;

  /// Returns the chain-head address for the hashed key, or kInvalidAddress.
  uint64_t Find(KeyHash h) const;

  /// Hints that the hashed key's primary bucket will be probed soon, so its
  /// cold miss overlaps other work. A hint only: it changes no state, and
  /// a prefetch never faults.
  void Prefetch(KeyHash h) const { __builtin_prefetch(BucketFor(h)); }

  /// Returns the hashed key's slot, claiming an empty one (chain head
  /// kInvalidAddress) if the key has none. The typical insert loop:
  ///   HashIndex::Slot slot = index.Claim(h);
  ///   uint64_t head = HashIndex::Head(slot);
  ///   do {
  ///     entry->prev = head;
  ///   } while (!HashIndex::CompareExchangeHead(slot, &head, addr));
  Slot Claim(KeyHash h);

  /// The slot's chain head, or kInvalidAddress if its chain is empty.
  static uint64_t Head(Slot slot) {
    return HeadOf(Ref(*slot).load(std::memory_order_acquire));
  }

  /// Replaces the slot's chain head with `desired` iff it is `*expected`;
  /// on failure writes the observed head to `*expected` and returns false.
  static bool CompareExchangeHead(Slot slot, uint64_t* expected,
                                  uint64_t desired);

  /// Number of occupied entry slots. Requires external quiescence.
  size_t size() const;

  /// Removes all entries, zeroing only the primary buckets claimed since the
  /// last Clear(); overflow segments and the claimed-bucket list keep their
  /// capacity for reuse. If the cleared contents used more than 3/4 or
  /// less than 1/4 of the buckets, the bucket array is replaced by a zeroed
  /// one of the size they need instead (see the file comment). Requires
  /// external quiescence.
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
  // The address of a claimed slot with no entry yet. Log entries are
  // 32-byte aligned, so no entry has it; it is kInvalidAddress's low bits.
  static constexpr uint64_t kNoHead = kAddressMask;
  // Clear() grows the array when claimed + overflow buckets exceeded
  // kGrowLoadNum / kGrowLoadDen of bucket_count(), and shrinks it when they
  // fell below 1 / kShrinkLoadDen of it.
  static constexpr size_t kGrowLoadNum = 3;
  static constexpr size_t kGrowLoadDen = 4;
  static constexpr size_t kShrinkLoadDen = 4;

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
  static uint64_t HeadOf(uint64_t slot) {
    const uint64_t address = slot & kAddressMask;
    return address == kNoHead ? kInvalidAddress : address;
  }

  Bucket* BucketFor(KeyHash h) const {
    return &buckets_[h.bucket_hash & bucket_mask_];
  }
  // Walks the chain from slot `*i` of `*b` to the slot holding `tag`. On a
  // miss returns nullptr with (*b, *i) at the first empty slot, or with
  // *i == kEntriesPerBucket at the last bucket of a full chain.
  uint64_t* Scan(uint16_t tag, Bucket** b, int* i) const;
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
  size_t min_bucket_count_;
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
