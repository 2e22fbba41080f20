// The log-structured storage (LSS) of the Slash State Backend
// (paper Sec. 7.2.1).
//
// The LSS is a log of densely packed key-value entries, partially following
// FASTER's in-memory hybrid log: new entries are appended at the tail;
// entries in the mutable region are updated in place (RMW); the region below
// the read-only boundary must not be mutated by the CPU while the NIC
// DMA-reads it during an epoch transfer.
//
// Extensions over FASTER for the distributed setting:
//  * Adaptive resize: the log grows when partitions grow (frequency shifts
//    in the key distribution, Sec. 7.2.1) without invalidating addresses.
//  * Temporal delta locality: everything appended or updated since the last
//    epoch lives in the contiguous range [0, tail), so a helper ships the
//    delta with straight-line scans — no pointer chasing.
//  * Truncation: after a transfer the shipped content is invalidated so it
//    can serve further RMWs from a zero value (Sec. 7.2.2 step 4).
//
// Unlike FASTER's circular buffer, the log is linear: an address is a plain
// offset into one mapping. A ring earns its wrap point when a truncation
// keeps a live suffix; here every truncation drops the whole delta, and an
// emptied ring that restarts at offset 0 is the same log without the wrap
// machinery. Fired windows need no truncation either: a partition that
// fires windows keeps its join state in one store per window bucket and
// destroys a bucket's store, unmapping it, once the bucket fires
// (state/partition.h). So Clear() rewinds the tail to 0 and keeps the pages: a
// fragment touches as many pages as its largest epoch needed. Grow()
// doubles the mapping with RemapZeroPages (common/zero_pages.h), which moves
// page table entries, not bytes.
//
// A scan (ForEachEntry) visits every header in [0, tail), tombstoned ones
// included, and inlines its visitor; entries_scanned() counts the headers
// visited, so tests can bound scan work. The next header's address depends
// on this header's value_len, so a bare walk takes one serialized cache
// miss per entry. The scan therefore prefetches every cache line up to
// kScanPrefetchBytes ahead of its cursor (clamped to the tail), whatever
// the entry sizes: the misses overlap and the walk runs at memory
// bandwidth.
#ifndef SLASH_STATE_LOG_STORE_H_
#define SLASH_STATE_LOG_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "common/logging.h"

namespace slash::state {

/// Entry flags stored in EntryHeader::flags. The values travel in delta
/// wire entries, so they stay fixed; 1 << 2 is unused.
enum EntryFlags : uint16_t {
  kEntryAggregate = 1 << 0,  // value is an AggState accumulator
  kEntryAppend = 1 << 1,     // value is one appended element (join state)
  kEntryTombstone = 1 << 3,  // logically deleted (triggered window)
};

/// Fixed header preceding every LSS entry.
struct EntryHeader {
  uint64_t key = 0;       // user key
  int64_t bucket = 0;     // window bucket / slice id
  uint64_t prev = 0;      // previous entry in this hash chain (aggregates)
  uint32_t value_len = 0; // bytes of value following the header
  uint16_t flags = 0;
  uint16_t stream_id = 0; // source stream (joins)
};

static_assert(sizeof(EntryHeader) == 32, "EntryHeader must stay 32 bytes");

/// The log-structured store.
///
/// Memory: the buffer comes from MapZeroPages and grows with
/// RemapZeroPages, so its pages stay unmapped until an append first writes
/// them.
///
/// Thread-safety: Allocate is not thread-safe; callers serialize it, as
/// Partition::AllocateEntry does under its `alloc_lock_`. `tail_` is atomic:
/// Allocate publishes it with a release store and At()/Mutable()/tail()
/// read it with acquire loads, so readers on other threads may run
/// alongside a serialized Allocate that does not grow the buffer. Entry
/// values may be concurrently mutated through atomic_ref by the partition
/// layer. Grow() (reached from Allocate when the log outgrows the buffer,
/// and free to move it), Clear() and scans still require external
/// quiescence (Slash performs them at epoch boundaries, where the coherence
/// protocol guarantees it, or from one thread).
class LogStructuredStore {
 public:
  /// How far ForEachEntry prefetches ahead of its cursor. On the nb8 join
  /// trigger, 1 KiB left misses exposed and 2 to 8 KiB measured alike
  /// (EXPERIMENTS.md, "Host wall time").
  static constexpr uint64_t kScanPrefetchBytes = 4096;

  explicit LogStructuredStore(uint64_t initial_capacity);
  ~LogStructuredStore();

  LogStructuredStore(const LogStructuredStore&) = delete;
  LogStructuredStore& operator=(const LogStructuredStore&) = delete;

  /// Allocates `size` bytes (rounded up to 32-byte alignment, one cache
  /// line half) and returns the logical address. Doubles the buffer until
  /// the log fits (adaptive resize).
  uint64_t Allocate(uint32_t size);

  /// Pointer to the bytes at logical address `addr` (must be live).
  uint8_t* At(uint64_t addr);
  const uint8_t* At(uint64_t addr) const;

  /// Typed header access.
  EntryHeader* HeaderAt(uint64_t addr) {
    return reinterpret_cast<EntryHeader*>(At(addr));
  }
  const EntryHeader* HeaderAt(uint64_t addr) const {
    return reinterpret_cast<const EntryHeader*>(At(addr));
  }

  /// Next append address (== end of live data).
  uint64_t tail() const { return tail_.load(std::memory_order_acquire); }

  /// Hints that the next Allocate's header line will be written soon. A
  /// hint only: it reads the raw tail, not At(), which requires a live
  /// address, and a prefetch never faults.
  void PrefetchTail() const { __builtin_prefetch(data_ + tail(), 1); }

  /// Read-only boundary: addresses below it must not be CPU-mutated.
  uint64_t read_only_boundary() const { return read_only_; }
  uint64_t capacity() const { return capacity_; }
  uint64_t resize_count() const { return resize_count_; }
  /// Bytes allocated over the store's lifetime; Clear() keeps it.
  uint64_t allocated_bytes() const { return allocated_bytes_; }

  /// Marks [0, addr) read-only prior to an RDMA transfer, preventing
  /// inconsistency between DMA reads and CPU writes (Sec. 7.2.2 step 2).
  void MarkReadOnlyUpTo(uint64_t addr);

  /// True iff `addr` may be mutated in place.
  bool Mutable(uint64_t addr) const {
    return addr >= read_only_ && addr < tail();
  }

  /// Invalidates every entry after a transfer (step 4): the next entry is
  /// allocated at address 0. Capacity and resident pages are kept.
  void Clear();

  /// Walks the entries in [0, tail) in log order.
  /// `fn(uint64_t addr, const EntryHeader& header)` receives the entry's
  /// logical address and its in-buffer header; the value bytes follow the
  /// header.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const;

  /// Headers visited by ForEachEntry over this store's lifetime: the host
  /// work of every scan. Host-side only; no metric or virtual-time charge
  /// depends on it.
  uint64_t entries_scanned() const { return entries_scanned_; }

 private:
  static constexpr uint64_t AlignUp32(uint64_t v) { return (v + 31) & ~31ULL; }
  static constexpr uint64_t kCacheLineBytes = 64;
  void Grow(uint64_t needed_capacity);

  uint8_t* data_;  // from MapZeroPages/RemapZeroPages, capacity_ bytes
  uint64_t capacity_;
  std::atomic<uint64_t> tail_{0};
  uint64_t read_only_ = 0;
  uint64_t resize_count_ = 0;
  uint64_t allocated_bytes_ = 0;
  mutable uint64_t entries_scanned_ = 0;
};

template <typename Fn>
void LogStructuredStore::ForEachEntry(Fn&& fn) const {
  const uint64_t tail = this->tail();
  uint64_t visited = 0;
  uint64_t prefetched = 0;  // lines below it are prefetched; line-aligned
  for (uint64_t addr = 0; addr < tail; ++visited) {
    const uint64_t frontier = std::min(addr + kScanPrefetchBytes, tail);
    for (; prefetched < frontier; prefetched += kCacheLineBytes) {
      __builtin_prefetch(data_ + prefetched);
    }
    // [0, tail) is live, so headers are read without At()'s range check.
    const auto& header = *reinterpret_cast<const EntryHeader*>(data_ + addr);
    const uint64_t entry_bytes =
        AlignUp32(sizeof(EntryHeader) + header.value_len);
    fn(addr, header);
    addr += entry_bytes;
  }
  entries_scanned_ += visited;
}

}  // namespace slash::state

#endif  // SLASH_STATE_LOG_STORE_H_
