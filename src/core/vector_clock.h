// Vector clocks for distributed progress tracking (paper Sec. 5.1).
//
// Every Slash executor e tracks its low watermark (the greatest event-time
// timestamp it has fully processed). Executors share watermarks via RDMA —
// piggybacked on epoch deltas — building the vector clock
// V = {l_1, ..., l_m}. A window may trigger once min(V) passes the
// window's trigger watermark: property P1, no result at time t computed
// from records bearing timestamps greater than t.
#ifndef SLASH_CORE_VECTOR_CLOCK_H_
#define SLASH_CORE_VECTOR_CLOCK_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "core/window.h"

namespace slash::core {

class VectorClock {
 public:
  /// A clock over `m` executors, all starting at kWatermarkMin.
  explicit VectorClock(int m) : entries_(m, kWatermarkMin) {}

  int size() const { return static_cast<int>(entries_.size()); }

  /// Advances executor `e`'s entry to `watermark` (monotonic: regressions
  /// are ignored — watermarks may arrive out of order across channels).
  void Update(int e, int64_t watermark) {
    SLASH_CHECK_GE(e, 0);
    SLASH_CHECK_LT(e, size());
    entries_[e] = std::max(entries_[e], watermark);
  }

  int64_t Get(int e) const { return entries_[e]; }

  /// The global low watermark: the progress every executor is guaranteed to
  /// have passed.
  int64_t Min() const {
    return *std::min_element(entries_.begin(), entries_.end());
  }

  /// True once every executor reported end-of-stream.
  bool AllFinished() const { return Min() == kWatermarkMax; }

 private:
  std::vector<int64_t> entries_;
};

}  // namespace slash::core

#endif  // SLASH_CORE_VECTOR_CLOCK_H_
