#include "state/hash_index.h"

#include <bit>

#include "common/logging.h"
#include "common/zero_pages.h"

namespace slash::state {

HashIndex::HashIndex(size_t bucket_count, size_t max_bucket_count)
    : min_bucket_count_(bucket_count), max_bucket_count_(max_bucket_count) {
  SLASH_CHECK_MSG(std::has_single_bit(bucket_count) &&
                      std::has_single_bit(max_bucket_count),
                  "bucket count must be a power of two");
  SLASH_CHECK_LE(bucket_count, max_bucket_count);
  Provision(bucket_count);
}

void HashIndex::Provision(size_t bucket_count) {
  bucket_mask_ = bucket_count - 1;
  // Page-aligned, so every bucket sits on its own cache line.
  buckets_ =
      static_cast<Bucket*>(MapZeroPages(bucket_count * sizeof(Bucket)));
}

HashIndex::~HashIndex() {
  for (auto& segment : segments_) {
    delete[] segment.load(std::memory_order_relaxed);
  }
  UnmapZeroPages(buckets_, bucket_count() * sizeof(Bucket));
}

void HashIndex::Clear() {
  const size_t used =
      claimed_.size() + overflow_used_.load(std::memory_order_relaxed);
  size_t target = min_bucket_count_;
  while (target < max_bucket_count_ &&
         used * kGrowLoadDen > target * kGrowLoadNum) {
    target *= 2;
  }
  if (target > bucket_count() ||
      (target < bucket_count() && used * kShrinkLoadDen < bucket_count())) {
    // The old array and its claimed buckets go away whole.
    UnmapZeroPages(buckets_, bucket_count() * sizeof(Bucket));
    Provision(target);
  } else {
    // Overflow buckets need no pass: only claimed primary buckets link to
    // them, and ExtendLocked zeroes each one as it is handed out again.
    for (const size_t i : claimed_) buckets_[i] = Bucket{};
  }
  claimed_.clear();
  overflow_used_.store(0, std::memory_order_relaxed);
}

uint64_t HashIndex::ExtendLocked(Bucket* tail) {
  const size_t idx = overflow_used_.load(std::memory_order_relaxed);
  const size_t segment = SegmentOf(idx);
  SLASH_CHECK_MSG(segment < kMaxSegments, "hash index overflow pool exhausted");
  if (segments_[segment].load(std::memory_order_acquire) == nullptr) {
    // Left uninitialized: each bucket is zeroed below when first handed out.
    segments_[segment].store(new Bucket[kSegmentSize << segment],
                             std::memory_order_release);
  }
  OverflowAt(idx) = Bucket{};
  overflow_used_.store(idx + 1, std::memory_order_relaxed);
  Ref(tail->overflow).store(idx + 1, std::memory_order_release);
  return idx + 1;
}

uint64_t* HashIndex::Scan(uint16_t tag, Bucket** b, int* i) const {
  Bucket* bucket = *b;
  for (int j = *i;; j = 0) {
    for (; j < kEntriesPerBucket; ++j) {
      uint64_t& e = bucket->entries[j];
      const uint64_t slot = Ref(e).load(std::memory_order_acquire);
      if (slot == kEmptySlot || SlotTag(slot) == tag) {
        *b = bucket;
        *i = j;
        return slot == kEmptySlot ? nullptr : &e;
      }
    }
    const uint64_t ov = Ref(bucket->overflow).load(std::memory_order_acquire);
    if (ov == 0) {
      *b = bucket;
      *i = kEntriesPerBucket;
      return nullptr;
    }
    bucket = &OverflowAt(ov - 1);
  }
}

uint64_t HashIndex::Find(KeyHash h) const {
  Bucket* b = BucketFor(h);
  int i = 0;
  uint64_t* slot = Scan(h.tag, &b, &i);
  return slot == nullptr ? kInvalidAddress : Head(slot);
}

HashIndex::Slot HashIndex::Claim(KeyHash h) {
  Bucket* const primary = BucketFor(h);
  Bucket* b = primary;
  int i = 0;
  if (uint64_t* slot = Scan(h.tag, &b, &i)) return slot;
  // Claims are serialized: two threads claiming concurrently could
  // otherwise take different slots for one tag and split its chain. Slots
  // before (b, i) were full and stay full, so the locked scan resumes there.
  while (overflow_lock_.test_and_set(std::memory_order_acquire)) {
  }
  uint64_t* slot = Scan(h.tag, &b, &i);
  if (slot == nullptr) {
    if (i == kEntriesPerBucket) {
      b = &OverflowAt(ExtendLocked(b) - 1);
      i = 0;
    }
    slot = &b->entries[i];
    Ref(*slot).store(Pack(h.tag, kNoHead), std::memory_order_release);
    if (b == primary && i == 0) claimed_.push_back(size_t(primary - buckets_));
  }
  overflow_lock_.clear(std::memory_order_release);
  return slot;
}

bool HashIndex::CompareExchangeHead(Slot slot, uint64_t* expected,
                                    uint64_t desired) {
  SLASH_CHECK_MSG(desired < kNoHead,
                  "log address exceeds 48-bit index capacity");
  // The tag never changes once claimed; only the address half moves.
  const uint64_t tag_bits =
      Ref(*slot).load(std::memory_order_acquire) & ~kAddressMask;
  uint64_t current = tag_bits | (*expected & kAddressMask);
  if (Ref(*slot).compare_exchange_strong(current, tag_bits | desired,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
    return true;
  }
  *expected = HeadOf(current);
  return false;
}

size_t HashIndex::size() const {
  size_t n = 0;
  auto count = [&n](Bucket& b) {
    for (uint64_t& e : b.entries) {
      if (Ref(e).load(std::memory_order_relaxed) != kEmptySlot) ++n;
    }
  };
  for (const size_t i : claimed_) count(buckets_[i]);
  const size_t used = overflow_used_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < used; ++i) count(OverflowAt(i));
  return n;
}

}  // namespace slash::state
