#include "state/log_store.h"

#include <utility>

#include "common/logging.h"
#include "common/zero_pages.h"

namespace slash::state {

LogStructuredStore::LogStructuredStore(uint64_t initial_capacity)
    : data_(static_cast<uint8_t*>(MapZeroPages(initial_capacity))),
      capacity_(initial_capacity) {}

LogStructuredStore::~LogStructuredStore() { UnmapZeroPages(data_, capacity_); }

uint8_t* LogStructuredStore::At(uint64_t addr) {
  return const_cast<uint8_t*>(std::as_const(*this).At(addr));
}

const uint8_t* LogStructuredStore::At(uint64_t addr) const {
  const uint64_t tail = this->tail();
  SLASH_CHECK_MSG(addr < tail, "address " << addr << " outside live range [0, "
                                          << tail << ")");
  return data_ + addr;
}

uint64_t LogStructuredStore::Allocate(uint32_t size) {
  const uint64_t need = AlignUp32(size);
  // Only the (serialized) allocating thread writes tail_.
  const uint64_t addr = tail_.load(std::memory_order_relaxed);
  if (addr + need > capacity_) Grow(addr + need);
  tail_.store(addr + need, std::memory_order_release);
  allocated_bytes_ += need;
  return addr;
}

void LogStructuredStore::Grow(uint64_t needed_capacity) {
  uint64_t new_capacity = capacity_;
  while (new_capacity < needed_capacity) new_capacity *= 2;
  data_ = static_cast<uint8_t*>(
      RemapZeroPages(data_, capacity_, new_capacity));
  capacity_ = new_capacity;
  ++resize_count_;
}

void LogStructuredStore::MarkReadOnlyUpTo(uint64_t addr) {
  SLASH_CHECK_GE(addr, read_only_);
  SLASH_CHECK_LE(addr, tail());
  read_only_ = addr;
}

void LogStructuredStore::Clear() {
  tail_.store(0, std::memory_order_release);
  read_only_ = 0;
}

}  // namespace slash::state
