#include "common/units.h"

#include <cstdio>

namespace slash {

std::string FormatBytes(uint64_t bytes) {
  char buf[64];
  if (bytes >= kGiB && bytes % kGiB == 0) {
    std::snprintf(buf, sizeof(buf), "%llu GiB",
                  static_cast<unsigned long long>(bytes / kGiB));
  } else if (bytes >= kMiB && bytes % kMiB == 0) {
    std::snprintf(buf, sizeof(buf), "%llu MiB",
                  static_cast<unsigned long long>(bytes / kMiB));
  } else if (bytes >= kKiB && bytes % kKiB == 0) {
    std::snprintf(buf, sizeof(buf), "%llu KiB",
                  static_cast<unsigned long long>(bytes / kKiB));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string FormatNanos(Nanos ns) {
  char buf[64];
  if (ns >= kSecond) {
    std::snprintf(buf, sizeof(buf), "%.2f s", double(ns) / double(kSecond));
  } else if (ns >= kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%.2f ms",
                  double(ns) / double(kMillisecond));
  } else if (ns >= kMicrosecond) {
    std::snprintf(buf, sizeof(buf), "%.2f us",
                  double(ns) / double(kMicrosecond));
  } else {
    std::snprintf(buf, sizeof(buf), "%lld ns", static_cast<long long>(ns));
  }
  return buf;
}

}  // namespace slash
