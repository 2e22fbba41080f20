// Zero-filled, lazily mapped storage: the SSB's bucket arrays and log
// buffers, and large RDMA memory regions.
//
// The memory is mapped straight from the OS, so its pages stay unmapped
// until first written: an array costs the pages written to it, whatever its
// size. calloc gives that only above glibc's (dynamic) mmap threshold; below
// it, blocks come from the heap and may be cleared eagerly, which touches
// every page at construction.
#ifndef SLASH_COMMON_ZERO_PAGES_H_
#define SLASH_COMMON_ZERO_PAGES_H_

#include <cstddef>

namespace slash {

/// Returns `bytes` (> 0) of zeroed, page-aligned memory. CHECK-fails if the
/// mapping fails.
void* MapZeroPages(size_t bytes);

/// Releases memory from MapZeroPages; `bytes` must be the size mapped.
void UnmapZeroPages(void* data, size_t bytes);

}  // namespace slash

#endif  // SLASH_COMMON_ZERO_PAGES_H_
