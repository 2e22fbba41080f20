#include "rdma/memory.h"

#include <algorithm>

#include "common/logging.h"
#include "common/zero_pages.h"

namespace slash::rdma {
namespace {

// `size` rounded up to whole arena pages: what CarvePages hands out.
uint64_t WholePages(uint64_t size) {
  return (size + RegionArena::kPageBytes - 1) / RegionArena::kPageBytes *
         RegionArena::kPageBytes;
}

}  // namespace

MemoryRegion::MemoryRegion(int node, uint32_t rkey, uint8_t* data,
                           uint64_t size)
    : node_(node), rkey_(rkey), size_(size), data_(data) {}

void MemoryRegion::NotifyRemoteWrite(uint64_t offset, uint64_t len) {
  for (auto& listener : listeners_) listener(offset, len);
}

void MemoryRegion::Discard() {
  if (size_ < RegionArena::kPageBytes) return;
  DiscardZeroPages(data_, WholePages(size_));
}

RegionArena::~RegionArena() {
  for (const Mapping& m : mappings_) UnmapZeroPages(m.data, m.bytes);
}

uint8_t* RegionArena::CarvePages(uint64_t size) {
  const uint64_t bytes = WholePages(size);
  if (mappings_.empty() || carved_ + bytes > mappings_.back().bytes) {
    const uint64_t next = mappings_.empty() ? kFirstMappingBytes
                                            : 2 * mappings_.back().bytes;
    const uint64_t mapped = std::max(next, bytes);
    mappings_.push_back(
        Mapping{static_cast<uint8_t*>(MapZeroPages(mapped)), mapped});
    carved_ = 0;
  }
  uint8_t* data = mappings_.back().data + carved_;
  carved_ += bytes;
  return data;
}

uint8_t* RegionArena::Carve(uint64_t size) {
  if (size >= kPageBytes) return CarvePages(size);
  if (small_chunks_.empty() || small_used_ + size > small_chunk_bytes_) {
    small_chunk_bytes_ = small_chunks_.empty()
                             ? kPageBytes
                             : std::min(2 * small_chunk_bytes_,
                                        kMaxSmallChunkBytes);
    small_chunks_.push_back(std::make_unique<uint8_t[]>(small_chunk_bytes_));
    small_used_ = 0;
  }
  uint8_t* data = small_chunks_.back().get() + small_used_;
  small_used_ =
      (small_used_ + size + kSmallAlign - 1) / kSmallAlign * kSmallAlign;
  return data;
}

MemoryRegion* ProtectionDomain::RegisterRegion(uint64_t size) {
  SLASH_CHECK_GT(size, 0u);
  const uint32_t slot = uint32_t(regions_.size()) + 1;
  SLASH_CHECK_LT(slot, uint32_t(1) << kSlotBits);
  SLASH_CHECK_LT(uint32_t(node_), uint32_t(1) << (32 - kSlotBits));
  const uint32_t rkey = (uint32_t(node_) << kSlotBits) | slot;
  registered_bytes_ += size;
  return &regions_.emplace_back(node_, rkey, arena_->Carve(size), size);
}

MemoryRegion* ProtectionDomain::FindByRkey(uint32_t rkey) {
  const uint32_t slot = rkey & ((uint32_t(1) << kSlotBits) - 1);
  if ((rkey >> kSlotBits) != uint32_t(node_) || slot == 0 ||
      slot > regions_.size()) {
    return nullptr;
  }
  return &regions_[slot - 1];
}

}  // namespace slash::rdma
