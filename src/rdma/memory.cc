#include "rdma/memory.h"

#include "common/logging.h"
#include "common/zero_pages.h"

namespace slash::rdma {

MemoryRegion::MemoryRegion(int node, uint32_t rkey, uint64_t size)
    : node_(node),
      rkey_(rkey),
      size_(size),
      data_(size >= kMappedRegionBytes
                ? static_cast<uint8_t*>(MapZeroPages(size))
                : new uint8_t[size]()) {}

MemoryRegion::~MemoryRegion() {
  if (size_ >= kMappedRegionBytes) {
    UnmapZeroPages(data_, size_);
  } else {
    delete[] data_;
  }
}

void MemoryRegion::NotifyRemoteWrite(uint64_t offset, uint64_t len) {
  for (auto& listener : listeners_) listener(offset, len);
}

std::vector<uint8_t> BufferPool::Get(uint64_t capacity) {
  if (!free_.empty()) {
    std::vector<uint8_t> buffer = std::move(free_.back());
    free_.pop_back();
    if (buffer.capacity() >= capacity) {
      ++hits_;
    } else {
      ++misses_;  // recycled store too small: this Get still allocates
      buffer.reserve(capacity);
    }
    buffer.clear();
    return buffer;
  }
  ++misses_;
  std::vector<uint8_t> buffer;
  buffer.reserve(capacity);
  return buffer;
}

void BufferPool::Put(std::vector<uint8_t>&& buffer) {
  buffer.clear();
  free_.push_back(std::move(buffer));
}

MemoryRegion* ProtectionDomain::RegisterRegion(uint64_t size) {
  SLASH_CHECK_GT(size, 0u);
  const uint32_t slot = uint32_t(regions_.size()) + 1;
  SLASH_CHECK_LT(slot, uint32_t(1) << kSlotBits);
  SLASH_CHECK_LT(uint32_t(node_), uint32_t(1) << (32 - kSlotBits));
  const uint32_t rkey = (uint32_t(node_) << kSlotBits) | slot;
  regions_.push_back(std::make_unique<MemoryRegion>(node_, rkey, size));
  registered_bytes_ += size;
  return regions_.back().get();
}

MemoryRegion* ProtectionDomain::FindByRkey(uint32_t rkey) const {
  const uint32_t slot = rkey & ((uint32_t(1) << kSlotBits) - 1);
  if ((rkey >> kSlotBits) != uint32_t(node_) || slot == 0 ||
      slot > regions_.size()) {
    return nullptr;
  }
  return regions_[slot - 1].get();
}

}  // namespace slash::rdma
