// Zero-filled, lazily mapped storage: the SSB's bucket arrays and log
// buffers, and large RDMA memory regions.
//
// The memory is mapped straight from the OS, so its pages stay unmapped
// until first written: an array costs the pages written to it, whatever its
// size. calloc gives that only above glibc's (dynamic) mmap threshold; below
// it, blocks come from the heap and may be cleared eagerly, which touches
// every page at construction. A mapping grows with RemapZeroPages, which
// moves page table entries rather than bytes, and hands its pages back with
// DiscardZeroPages without giving up its addresses.
#ifndef SLASH_COMMON_ZERO_PAGES_H_
#define SLASH_COMMON_ZERO_PAGES_H_

#include <cstddef>

namespace slash {

/// Returns `bytes` (> 0) of zeroed, page-aligned memory. CHECK-fails if the
/// mapping fails.
void* MapZeroPages(size_t bytes);

/// Grows a MapZeroPages mapping of `old_bytes` to `new_bytes` (>
/// `old_bytes`) and returns its address, which may differ from `data`
/// (`data` is invalid afterwards). Nothing is copied: pages already written
/// keep their contents and stay resident, and the grown tail is zeroed on
/// first touch. CHECK-fails if the remap fails.
void* RemapZeroPages(void* data, size_t old_bytes, size_t new_bytes);

/// Returns the OS pages lying wholly inside [data, data + bytes) of a
/// MapZeroPages mapping to the OS. They stay mapped and read zero: a page
/// written again later is faulted in fresh. Bytes sharing a page with
/// memory outside the range are left as they are.
void DiscardZeroPages(void* data, size_t bytes);

/// Releases memory from MapZeroPages or RemapZeroPages; `bytes` must be the
/// size mapped.
void UnmapZeroPages(void* data, size_t bytes);

}  // namespace slash

#endif  // SLASH_COMMON_ZERO_PAGES_H_
