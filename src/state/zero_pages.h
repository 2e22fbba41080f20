// Zero-filled storage for the SSB's bucket arrays and log buffers.
//
// The memory is mapped straight from the OS, so its pages stay unmapped
// until first written: an array costs the pages written to it, whatever its
// size. calloc gives that only above glibc's (dynamic) mmap threshold; below
// it, blocks come from the heap and may be cleared eagerly, which touches
// every page at construction.
#ifndef SLASH_STATE_ZERO_PAGES_H_
#define SLASH_STATE_ZERO_PAGES_H_

#include <cstddef>

namespace slash::state {

/// Returns `bytes` (> 0) of zeroed, page-aligned memory. CHECK-fails if the
/// mapping fails.
void* MapZeroPages(size_t bytes);

/// Releases memory from MapZeroPages; `bytes` must be the size mapped.
void UnmapZeroPages(void* data, size_t bytes);

}  // namespace slash::state

#endif  // SLASH_STATE_ZERO_PAGES_H_
