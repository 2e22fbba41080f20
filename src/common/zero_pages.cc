#include "common/zero_pages.h"

#include <sys/mman.h>

#include "common/logging.h"

namespace slash {

void* MapZeroPages(size_t bytes) {
  void* data = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  SLASH_CHECK_MSG(data != MAP_FAILED,
                  "mapping " << bytes << " zeroed bytes failed");
  return data;
}

void UnmapZeroPages(void* data, size_t bytes) { munmap(data, bytes); }

}  // namespace slash
