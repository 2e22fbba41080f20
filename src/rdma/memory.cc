#include "rdma/memory.h"

#include "common/logging.h"
#include "common/zero_pages.h"

namespace slash::rdma {

uint32_t ProtectionDomain::next_key_ = 1;

MemoryRegion::MemoryRegion(int node, uint32_t lkey, uint32_t rkey,
                           uint64_t size)
    : node_(node),
      lkey_(lkey),
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
  const uint32_t lkey = next_key_++;
  const uint32_t rkey = next_key_++;
  regions_.push_back(std::make_unique<MemoryRegion>(node_, lkey, rkey, size));
  registered_bytes_ += size;
  return regions_.back().get();
}

MemoryRegion* ProtectionDomain::FindByRkey(uint32_t rkey) const {
  for (const auto& r : regions_) {
    if (r->remote_key().rkey == rkey) return r.get();
  }
  return nullptr;
}

}  // namespace slash::rdma
