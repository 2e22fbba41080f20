// The log-structured storage (LSS) of the Slash State Backend
// (paper Sec. 7.2.1).
//
// The LSS is a circular buffer of densely packed key-value entries,
// partially following FASTER's in-memory hybrid log: new entries are
// appended at the tail; entries in the mutable region are updated in place
// (RMW); the region below the read-only boundary must not be mutated by the
// CPU while the NIC DMA-reads it during an epoch transfer.
//
// Extensions over FASTER for the distributed setting:
//  * Logical addressing: entry addresses are monotonically increasing
//    logical offsets, independent of physical position, so the buffer can
//    *adaptively resize* when partitions grow (frequency shifts in the key
//    distribution, Sec. 7.2.1) without invalidating addresses.
//  * Temporal delta locality: everything appended or updated since the last
//    epoch lives in the contiguous range [delta mark, tail), so a helper
//    ships the delta with straight-line scans — no pointer chasing.
//  * Truncation: after a transfer the shipped portion is invalidated so it
//    can serve further RMWs from a zero value (Sec. 7.2.2 step 4).
//
// Entries never straddle the physical wrap point: Allocate inserts a filler
// entry and skips to the next lap when needed, so every entry is physically
// contiguous and scans can walk headers sequentially. A scan
// (ForEachEntry) visits every header in its range, tombstoned ones
// included, and inlines its visitor; entries_scanned() counts the headers
// visited, so tests can bound scan work.
#ifndef SLASH_STATE_LOG_STORE_H_
#define SLASH_STATE_LOG_STORE_H_

#include <atomic>
#include <cstdint>

#include "common/logging.h"

namespace slash::state {

/// Entry flags stored in EntryHeader::flags.
enum EntryFlags : uint16_t {
  kEntryAggregate = 1 << 0,  // value is an AggState accumulator
  kEntryAppend = 1 << 1,     // value is one appended element (join state)
  kEntryFiller = 1 << 2,     // padding inserted at the wrap point
  kEntryTombstone = 1 << 3,  // logically deleted (triggered window)
};

/// Fixed header preceding every LSS entry.
struct EntryHeader {
  uint64_t key = 0;       // user key
  int64_t bucket = 0;     // window bucket / slice id
  uint64_t prev = 0;      // previous entry address in this hash chain
  uint32_t value_len = 0; // bytes of value following the header
  uint16_t flags = 0;
  uint16_t stream_id = 0; // source stream (joins)
};

static_assert(sizeof(EntryHeader) == 32, "EntryHeader must stay 32 bytes");

/// The log-structured store.
///
/// Memory: the buffer (and each one Grow() moves to) comes from
/// MapZeroPages, so its pages stay unmapped until an append first writes
/// them.
///
/// Thread-safety: Allocate is not thread-safe; callers serialize it, as
/// Partition::InsertEntry does under its `alloc_lock_`. `tail_` is atomic:
/// Allocate publishes it with a release store and At()/Mutable()/tail()
/// read it with acquire loads, so readers on other threads may run
/// alongside a serialized Allocate that does not grow the buffer. Entry
/// values may be concurrently mutated through atomic_ref by the partition
/// layer. Grow() (reached from Allocate when the live window outgrows the
/// buffer), truncation and scans still require external quiescence (Slash
/// performs them at epoch boundaries, where the coherence protocol
/// guarantees it, or from one thread).
class LogStructuredStore {
 public:
  /// `initial_capacity` must be a power of two.
  explicit LogStructuredStore(uint64_t initial_capacity);
  ~LogStructuredStore();

  LogStructuredStore(const LogStructuredStore&) = delete;
  LogStructuredStore& operator=(const LogStructuredStore&) = delete;

  /// Allocates `size` bytes (rounded up to 32-byte alignment, one cache
  /// line half) and returns the logical address. Grows the buffer when the
  /// live region would exceed capacity (adaptive resize). `size` must fit a
  /// single lap.
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

  /// First live logical address.
  uint64_t head() const { return head_; }
  /// Next append address (== end of live data).
  uint64_t tail() const { return tail_.load(std::memory_order_acquire); }
  /// Read-only boundary: addresses below it must not be CPU-mutated.
  uint64_t read_only_boundary() const { return read_only_; }
  uint64_t capacity() const { return capacity_; }
  uint64_t live_bytes() const { return tail() - head_; }
  uint64_t resize_count() const { return resize_count_; }

  /// Marks [head, addr) read-only prior to an RDMA transfer, preventing
  /// inconsistency between DMA reads and CPU writes (Sec. 7.2.2 step 2).
  void MarkReadOnlyUpTo(uint64_t addr);

  /// True iff `addr` may be mutated in place.
  bool Mutable(uint64_t addr) const {
    return addr >= read_only_ && addr < tail();
  }

  /// Invalidates everything below `addr` after a transfer (step 4).
  void TruncateTo(uint64_t addr);

  /// Walks entries in [from, to) in log order, skipping fillers.
  /// `fn(uint64_t addr, const EntryHeader& header)` receives the entry's
  /// logical address and its in-buffer header; the value bytes follow the
  /// header.
  template <typename Fn>
  void ForEachEntry(uint64_t from, uint64_t to, Fn&& fn) const;

  /// Headers visited by ForEachEntry over this store's lifetime, fillers
  /// included: the host work of every scan. Host-side only; no metric or
  /// virtual-time charge depends on it.
  uint64_t entries_scanned() const { return entries_scanned_; }

 private:
  static constexpr uint64_t AlignUp32(uint64_t v) { return (v + 31) & ~31ULL; }
  uint64_t Physical(uint64_t addr) const { return addr & (capacity_ - 1); }
  void Grow(uint64_t needed_capacity);

  uint8_t* data_;  // from MapZeroPages, capacity_ bytes
  uint64_t capacity_;
  uint64_t head_ = 0;
  std::atomic<uint64_t> tail_{0};
  uint64_t read_only_ = 0;
  uint64_t resize_count_ = 0;
  mutable uint64_t entries_scanned_ = 0;
};

template <typename Fn>
void LogStructuredStore::ForEachEntry(uint64_t from, uint64_t to,
                                      Fn&& fn) const {
  SLASH_CHECK_GE(from, head_);
  SLASH_CHECK_LE(to, tail());
  uint64_t visited = 0;
  uint64_t addr = from;
  while (addr < to) {
    // [from, to) is live, so headers are read without At()'s range check.
    const auto& header =
        *reinterpret_cast<const EntryHeader*>(data_ + Physical(addr));
    ++visited;
    if (header.flags & kEntryFiller) {
      addr += sizeof(EntryHeader) + header.value_len;
      continue;
    }
    const uint64_t entry_bytes =
        AlignUp32(sizeof(EntryHeader) + header.value_len);
    fn(addr, header);
    addr += entry_bytes;
  }
  entries_scanned_ += visited;
}

}  // namespace slash::state

#endif  // SLASH_STATE_LOG_STORE_H_
