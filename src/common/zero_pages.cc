#include "common/zero_pages.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

#include "common/logging.h"

namespace slash {

void* MapZeroPages(size_t bytes) {
  void* data = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  SLASH_CHECK_MSG(data != MAP_FAILED,
                  "mapping " << bytes << " zeroed bytes failed");
  return data;
}

void* RemapZeroPages(void* data, size_t old_bytes, size_t new_bytes) {
  SLASH_CHECK_GT(new_bytes, old_bytes);
  void* moved = mremap(data, old_bytes, new_bytes, MREMAP_MAYMOVE);
  SLASH_CHECK_MSG(moved != MAP_FAILED, "growing a " << old_bytes
                                                    << "-byte mapping to "
                                                    << new_bytes
                                                    << " bytes failed");
  return moved;
}

void DiscardZeroPages(void* data, size_t bytes) {
  static const uintptr_t page = uintptr_t(sysconf(_SC_PAGESIZE));
  const uintptr_t begin = (uintptr_t(data) + page - 1) / page * page;
  const uintptr_t end = (uintptr_t(data) + bytes) / page * page;
  if (end <= begin) return;
  SLASH_CHECK_MSG(
      madvise(reinterpret_cast<void*>(begin), end - begin, MADV_DONTNEED) == 0,
      "discarding " << end - begin << " bytes failed");
}

void UnmapZeroPages(void* data, size_t bytes) { munmap(data, bytes); }

}  // namespace slash
