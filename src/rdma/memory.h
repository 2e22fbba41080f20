// RDMA-capable memory: protection domains and registered memory regions.
//
// This mirrors the ibverbs memory model: a node registers a region of its
// memory with its NIC (ibv_reg_mr), obtaining a remote key; a peer that
// knows the remote key can target the region with one-sided verbs. In the
// simulation, regions are plain host allocations (all nodes live in one
// process) — what is preserved is the *protocol*: a QP write only lands in
// registered memory, addressing is (rkey, offset), and remote writes bypass
// the remote CPU entirely (no callback into engine code other than optional
// poll-wakeup hooks; see RemoteWriteListener).
#ifndef SLASH_RDMA_MEMORY_H_
#define SLASH_RDMA_MEMORY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace slash::rdma {

/// Remote-key handle: what a peer needs to address a region with one-sided
/// verbs. The key is the region's address in its node's protection domain
/// (ProtectionDomain::RegisterRegion); a default RemoteKey{} names nothing.
struct RemoteKey {
  uint32_t rkey = 0;
};

/// A registered, RDMA-capable memory region on one node.
///
/// A region's bytes start zeroed and belong to the fabric's RegionArena.
/// The paper's hugepage configuration (Sec. 8.1.1) is not modelled.
class MemoryRegion {
 public:
  /// Notification hook invoked when a remote one-sided WRITE lands in this
  /// region. This models "polled memory changed" for the simulation's
  /// event-driven pollers; it carries no data and does not involve the
  /// remote CPU.
  using RemoteWriteListener = std::function<void(uint64_t offset, uint64_t len)>;

  MemoryRegion(int node, uint32_t rkey, uint8_t* data, uint64_t size);
  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  int node() const { return node_; }
  RemoteKey remote_key() const { return RemoteKey{rkey_}; }
  uint64_t size() const { return size_; }

  /// Raw access to the region's memory.
  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }

  /// Returns the region's pages to the OS once its owner is done with it
  /// (a torn-down attempt's rings). The region stays registered: its rkey
  /// still resolves, it reads zero, and a WRITE already in flight still
  /// lands and fires the listeners, so its memory is never handed to
  /// another region. A sub-page region shares a heap chunk with its
  /// neighbours and is left as it is.
  void Discard();

  /// Registers a listener fired after each inbound remote write.
  void AddRemoteWriteListener(RemoteWriteListener listener) {
    listeners_.push_back(std::move(listener));
  }

  /// Invoked by the fabric when a remote write to [offset, offset+len) has
  /// been materialized.
  void NotifyRemoteWrite(uint64_t offset, uint64_t len);

 private:
  int node_;
  uint32_t rkey_;
  uint64_t size_;
  uint8_t* data_;  // owned by the fabric's RegionArena
  std::vector<RemoteWriteListener> listeners_;
};

/// A span into a local registered region (ibv_sge analogue).
struct MemorySpan {
  MemoryRegion* region = nullptr;
  uint64_t offset = 0;
  uint64_t length = 0;

  uint8_t* data() const { return region->data() + offset; }

  /// True iff the span lies entirely within its region.
  bool valid() const {
    return region != nullptr && offset + length <= region->size();
  }
};

/// Zeroed memory for the registered regions of one fabric.
///
/// Regions are never deregistered one at a time, so a bump allocator
/// suffices, and the mappings are released when the fabric dies. A region
/// of at least kPageBytes is carved page-aligned, in whole pages, from a few
/// zero-page mappings (MapZeroPages), each twice the size of the one before,
/// so a page of it costs memory only once it is written, and
/// MemoryRegion::Discard gives the pages back without freeing the addresses
/// (no carve ever reuses them). One arena serves every protection
/// domain of a fabric: a fabric pays a handful of mappings in all, not a
/// few per node (weakscale builds 256 domains).
///
/// A smaller region cannot be sparse: any write brings in its whole page.
/// These (credit counters, liveness words, tiny slot rings) are packed
/// kSmallAlign apart into zeroed heap chunks of at most kMaxSmallChunkBytes,
/// below glibc's mmap threshold, so the allocator recycles their pages when
/// fabrics come and go in one process instead of faulting in fresh ones.
class RegionArena {
 public:
  static constexpr uint64_t kPageBytes = 4096;
  static constexpr uint64_t kSmallAlign = 16;
  static constexpr uint64_t kMaxSmallChunkBytes = 64 * 1024;
  /// Size of the first mapping; each later one doubles it (a request
  /// larger than that gets a mapping of its own rounded-up size).
  static constexpr uint64_t kFirstMappingBytes = 256 * 1024;

  RegionArena() = default;
  ~RegionArena();
  RegionArena(const RegionArena&) = delete;
  RegionArena& operator=(const RegionArena&) = delete;

  /// Returns `size` zeroed bytes: page-aligned from a mapping if `size` is
  /// at least kPageBytes, else kSmallAlign-aligned from a heap chunk.
  uint8_t* Carve(uint64_t size);

 private:
  struct Mapping {
    uint8_t* data;
    uint64_t bytes;
  };

  // Returns `size` bytes rounded up to whole pages from the newest
  // mapping, adding a larger mapping when they do not fit.
  uint8_t* CarvePages(uint64_t size);

  std::vector<Mapping> mappings_;
  uint64_t carved_ = 0;  // bytes handed out of mappings_.back()
  // Heap chunks for sub-page regions; each doubles the one before, from
  // kPageBytes up to kMaxSmallChunkBytes.
  std::vector<std::unique_ptr<uint8_t[]>> small_chunks_;
  uint64_t small_chunk_bytes_ = 0;  // size of small_chunks_.back()
  uint64_t small_used_ = 0;         // bytes handed out of it
};

/// A protection domain: owns the registered regions of one node.
///
/// A region's rkey is its address in the domain, like an index into an
/// HCA's translation table: (node << kSlotBits) | slot, where slot is the
/// registration index + 1. Slot 0 is never handed out, so key 0 resolves
/// nowhere. Keys depend only on the node and its registration order, never
/// on what else ran in the process.
///
/// Region memory comes from the fabric's RegionArena.
class ProtectionDomain {
 public:
  static constexpr int kSlotBits = 20;

  /// `arena` (non-owning) must outlive the domain.
  ProtectionDomain(int node, RegionArena* arena)
      : node_(node), arena_(arena) {}
  ProtectionDomain(const ProtectionDomain&) = delete;
  ProtectionDomain& operator=(const ProtectionDomain&) = delete;

  int node() const { return node_; }

  /// Registers a new region of `size` bytes. The domain owns the region.
  MemoryRegion* RegisterRegion(uint64_t size);

  /// Looks up a region by remote key in O(1); nullptr for a key of another
  /// node's domain, slot 0 or a slot past the last region. Used by the
  /// fabric to resolve one-sided accesses.
  MemoryRegion* FindByRkey(uint32_t rkey);

  /// Total registered bytes on this node.
  uint64_t registered_bytes() const { return registered_bytes_; }

 private:
  int node_;
  RegionArena* arena_;
  std::deque<MemoryRegion> regions_;  // [slot - 1]; addresses never move
  uint64_t registered_bytes_ = 0;
};

}  // namespace slash::rdma

#endif  // SLASH_RDMA_MEMORY_H_
