#include "state/log_store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/zero_pages.h"

namespace slash::state {

namespace {

bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

LogStructuredStore::LogStructuredStore(uint64_t initial_capacity)
    : capacity_(initial_capacity) {
  SLASH_CHECK_MSG(IsPowerOfTwo(initial_capacity),
                  "LSS capacity must be a power of two, got "
                      << initial_capacity);
  SLASH_CHECK_GE(initial_capacity, 2 * sizeof(EntryHeader));
  data_ = static_cast<uint8_t*>(MapZeroPages(capacity_));
}

LogStructuredStore::~LogStructuredStore() { UnmapZeroPages(data_, capacity_); }

uint8_t* LogStructuredStore::At(uint64_t addr) {
  return const_cast<uint8_t*>(std::as_const(*this).At(addr));
}

const uint8_t* LogStructuredStore::At(uint64_t addr) const {
  const uint64_t tail = this->tail();
  SLASH_CHECK_MSG(addr >= head_ && addr < tail,
                  "address " << addr << " outside live range [" << head_
                             << ", " << tail << ")");
  return data_ + Physical(addr);
}

uint64_t LogStructuredStore::Allocate(uint32_t size) {
  const uint64_t need = AlignUp32(size);
  SLASH_CHECK_MSG(need + sizeof(EntryHeader) <= capacity_ ||
                      need <= capacity_ / 2,
                  "allocation of " << size << " bytes too large for LSS");

  // Only the (serialized) allocating thread writes tail_.
  uint64_t addr = tail_.load(std::memory_order_relaxed);

  // Avoid straddling the wrap point: if the allocation would cross a lap
  // boundary, pad with a filler entry and start at the next lap.
  const uint64_t lap_remaining = capacity_ - Physical(addr);
  if (need > lap_remaining) {
    // The filler needs a header to stay scannable; if not even a header
    // fits, the remaining bytes become anonymous padding that ForEachEntry
    // cannot step over — so we always require header-sized laps. Grow first
    // if the padded allocation would overflow the live window.
    if (addr + lap_remaining + need - head_ > capacity_) {
      Grow(addr + lap_remaining + need - head_);
      return Allocate(size);
    }
    // All allocations are 32-byte aligned and headers are 32 bytes, so the
    // remainder always fits at least a bare filler header.
    SLASH_CHECK_GE(lap_remaining, sizeof(EntryHeader));
    auto* filler =
        reinterpret_cast<EntryHeader*>(data_ + Physical(addr));
    *filler = EntryHeader{};
    filler->flags = kEntryFiller;
    filler->value_len =
        static_cast<uint32_t>(lap_remaining - sizeof(EntryHeader));
    addr += lap_remaining;
    tail_.store(addr, std::memory_order_release);
  }

  if (addr + need - head_ > capacity_) {
    Grow(addr + need - head_);
    return Allocate(size);
  }
  tail_.store(addr + need, std::memory_order_release);
  return addr;
}

void LogStructuredStore::Grow(uint64_t needed_capacity) {
  uint64_t new_capacity = capacity_;
  while (new_capacity < needed_capacity) new_capacity *= 2;
  auto* new_data = static_cast<uint8_t*>(MapZeroPages(new_capacity));
  // Re-place every live byte at its logical address modulo the new capacity.
  const uint64_t tail = this->tail();
  for (uint64_t addr = head_; addr < tail;) {
    const uint64_t old_lap_end = addr - Physical(addr) + capacity_;
    const uint64_t chunk_end = std::min(tail, old_lap_end);
    uint64_t src = Physical(addr);
    uint64_t pos = addr;
    while (pos < chunk_end) {
      const uint64_t new_lap_remaining = new_capacity - (pos & (new_capacity - 1));
      const uint64_t n = std::min(chunk_end - pos, new_lap_remaining);
      std::memcpy(new_data + (pos & (new_capacity - 1)), data_ + src, n);
      pos += n;
      src += n;
    }
    addr = chunk_end;
  }
  UnmapZeroPages(data_, capacity_);
  data_ = new_data;
  capacity_ = new_capacity;
  ++resize_count_;
}

void LogStructuredStore::MarkReadOnlyUpTo(uint64_t addr) {
  SLASH_CHECK_GE(addr, read_only_);
  SLASH_CHECK_LE(addr, tail());
  read_only_ = addr;
}

void LogStructuredStore::TruncateTo(uint64_t addr) {
  SLASH_CHECK_GE(addr, head_);
  SLASH_CHECK_LE(addr, tail());
  head_ = addr;
  if (read_only_ < head_) read_only_ = head_;
}

}  // namespace slash::state
