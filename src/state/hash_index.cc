#include "state/hash_index.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "common/zero_pages.h"

namespace slash::state {

HashIndex::HashIndex(size_t bucket_count, size_t max_bucket_count)
    : max_bucket_count_(max_bucket_count) {
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
  size_t grown = bucket_count();
  while (grown < max_bucket_count_ &&
         used * kGrowLoadDen > grown * kGrowLoadNum) {
    grown *= 2;
  }
  if (grown != bucket_count()) {
    // The old array and its claimed buckets go away whole.
    UnmapZeroPages(buckets_, bucket_count() * sizeof(Bucket));
    Provision(grown);
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

uint64_t* HashIndex::FindSlot(Bucket* bucket, uint16_t tag, bool allocate) {
  for (Bucket* b = bucket;;) {
    uint64_t* empty = nullptr;
    for (uint64_t& e : b->entries) {
      const uint64_t slot = Ref(e).load(std::memory_order_acquire);
      if (slot != kEmptySlot && SlotTag(slot) == tag) return &e;
      if (slot == kEmptySlot && empty == nullptr) empty = &e;
    }
    const uint64_t ov = Ref(b->overflow).load(std::memory_order_acquire);
    if (ov != 0) {
      b = &OverflowAt(ov - 1);
      continue;
    }
    if (!allocate) return nullptr;
    if (empty != nullptr) return empty;
    // Rare path: extend the overflow chain under a spinlock.
    while (overflow_lock_.test_and_set(std::memory_order_acquire)) {
    }
    uint64_t ov2 = Ref(b->overflow).load(std::memory_order_acquire);
    if (ov2 == 0) ov2 = ExtendLocked(b);
    overflow_lock_.clear(std::memory_order_release);
    b = &OverflowAt(ov2 - 1);
  }
}

uint64_t* HashIndex::FindSlotLocked(Bucket* bucket, uint16_t tag) {
  for (Bucket* b = bucket;;) {
    uint64_t* empty = nullptr;
    for (uint64_t& e : b->entries) {
      const uint64_t slot = Ref(e).load(std::memory_order_acquire);
      if (slot != kEmptySlot && SlotTag(slot) == tag) return &e;
      if (slot == kEmptySlot && empty == nullptr) empty = &e;
    }
    uint64_t ov = Ref(b->overflow).load(std::memory_order_acquire);
    if (ov == 0) {
      if (empty != nullptr) return empty;
      ov = ExtendLocked(b);
    }
    b = &OverflowAt(ov - 1);
  }
}

uint64_t HashIndex::Find(KeyHash h) const {
  auto* self = const_cast<HashIndex*>(this);
  uint64_t* slot =
      self->FindSlot(self->BucketFor(h), h.tag, /*allocate=*/false);
  if (slot == nullptr) return kInvalidAddress;
  const uint64_t v = Ref(*slot).load(std::memory_order_acquire);
  if (v == kEmptySlot || SlotTag(v) != h.tag) return kInvalidAddress;
  return SlotAddress(v);
}

void HashIndex::FindBatch(const KeyHash* hashes, size_t n,
                          uint64_t* out) const {
  // Prefetch in bounded strides so the touched lines are still resident
  // when their probe runs (an unbounded prefetch pass would evict its own
  // head on large batches).
  constexpr size_t kStride = 16;
  for (size_t base = 0; base < n; base += kStride) {
    const size_t end = std::min(n, base + kStride);
    for (size_t i = base; i < end; ++i) {
      __builtin_prefetch(BucketFor(hashes[i]), /*rw=*/0, /*locality=*/1);
    }
    for (size_t i = base; i < end; ++i) {
      out[i] = Find(hashes[i]);
    }
  }
}

bool HashIndex::CompareExchangeHead(KeyHash h, uint64_t expected,
                                    uint64_t desired, uint64_t* observed) {
  SLASH_CHECK_MSG(desired <= kAddressMask,
                  "log address exceeds 48-bit index capacity");
  Bucket* const primary = BucketFor(h);
  for (;;) {
    uint64_t* slot = FindSlot(primary, h.tag, /*allocate=*/true);
    uint64_t current = Ref(*slot).load(std::memory_order_acquire);

    if (current != kEmptySlot && SlotTag(current) == h.tag) {
      // Established slot: plain CAS on the chain head.
      if (SlotAddress(current) != expected) {
        *observed = SlotAddress(current);
        return false;
      }
      if (Ref(*slot).compare_exchange_strong(current, Pack(h.tag, desired),
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
        *observed = desired;
        return true;
      }
      continue;  // lost a race; re-observe
    }

    if (current == kEmptySlot) {
      // Claiming a fresh slot for this tag. Serialize claims under the
      // (rare-path) spinlock: without it, two threads scanning concurrently
      // can claim *different* empty slots for the same tag, splitting the
      // chain across duplicate entries.
      while (overflow_lock_.test_and_set(std::memory_order_acquire)) {
      }
      uint64_t* locked_slot = FindSlotLocked(primary, h.tag);
      if (locked_slot == nullptr) {
        // Bucket chain filled up meanwhile; extend outside the claim path.
        overflow_lock_.clear(std::memory_order_release);
        continue;
      }
      uint64_t locked_current =
          Ref(*locked_slot).load(std::memory_order_acquire);
      if (locked_current == kEmptySlot) {
        if (expected != kInvalidAddress) {
          overflow_lock_.clear(std::memory_order_release);
          *observed = kInvalidAddress;
          return false;
        }
        Ref(*locked_slot).store(Pack(h.tag, desired),
                                std::memory_order_release);
        if (locked_slot == &primary->entries[0]) {
          claimed_.push_back(size_t(primary - buckets_));
        }
        overflow_lock_.clear(std::memory_order_release);
        *observed = desired;
        return true;
      }
      overflow_lock_.clear(std::memory_order_release);
      continue;  // someone claimed it meanwhile; retry from the top
    }

    // The empty slot we found got claimed by another tag; rescan.
  }
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
