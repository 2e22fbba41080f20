// Event-time windowing: bucket assignment and triggering (paper Sec. 5.2).
//
// Slash executes windowed operators as a window assigner (which maps a
// record's timestamp to a bucket or slice and updates it in the SSB) plus a
// window trigger (which emits a window's contents once the vector clock
// proves no earlier record can arrive; property P1).
//
// Supported window types:
//  * Tumbling event-time windows (YSB, CM, NB7, NB8): bucket = ts / size.
//  * Session windows (NB11): assignment uses coarse horizon buckets
//    (horizon = `session_horizon_gaps` gaps); the holistic split into
//    gap-separated sessions happens lazily at trigger time on the merged
//    state, which is the only point where a distributed engine has all of a
//    key's records. Sessions straddling a horizon boundary are split — a
//    documented approximation applied identically in every engine and in
//    the sequential oracle, so cross-engine result comparisons stay exact.
#ifndef SLASH_CORE_WINDOW_H_
#define SLASH_CORE_WINDOW_H_

#include <cstdint>
#include <limits>

#include "common/logging.h"

namespace slash::core {

/// Sentinel watermark meaning "stream exhausted".
inline constexpr int64_t kWatermarkMax = std::numeric_limits<int64_t>::max();
/// Initial watermark: nothing processed yet.
inline constexpr int64_t kWatermarkMin = std::numeric_limits<int64_t>::min();

/// Window shape of a stateful operator.
struct WindowSpec {
  enum class Type { kTumbling, kSliding, kSession };

  Type type = Type::kTumbling;
  int64_t size = 1;   // window width, in event-time units
  int64_t slide = 1;  // slide interval (kSliding only); size % slide == 0
  int64_t gap = 0;    // session gap (kSession only)
  /// Session horizon, in gaps: records are bucketed on
  /// gap * session_horizon_gaps before the lazy per-session split.
  int64_t session_horizon_gaps = 16;

  static WindowSpec Tumbling(int64_t size) {
    WindowSpec w;
    w.type = Type::kTumbling;
    w.size = size;
    return w;
  }

  /// Sliding windows via general slicing: records are assigned to
  /// non-overlapping *slices* of width `slide`; a window is the merge of
  /// size/slide consecutive slices, so each slice's partial aggregate is
  /// computed once and shared by every window covering it. Aggregations
  /// only (slices are CRDTs; holistic joins use tumbling or session).
  static WindowSpec Sliding(int64_t size, int64_t slide) {
    SLASH_CHECK_GT(slide, 0);
    SLASH_CHECK_MSG(size % slide == 0, "window size must be a slide multiple");
    WindowSpec w;
    w.type = Type::kSliding;
    w.size = size;
    w.slide = slide;
    return w;
  }

  static WindowSpec Session(int64_t gap, int64_t horizon_gaps = 16) {
    WindowSpec w;
    w.type = Type::kSession;
    w.gap = gap;
    w.session_horizon_gaps = horizon_gaps;
    return w;
  }

  /// Bucket (slice) width in event-time units.
  int64_t BucketWidth() const {
    switch (type) {
      case Type::kTumbling:
        return size;
      case Type::kSliding:
        return slide;
      case Type::kSession:
        return gap * session_horizon_gaps;
    }
    return size;
  }

  /// Slices per window (1 unless sliding).
  int64_t SlicesPerWindow() const {
    return type == Type::kSliding ? size / slide : 1;
  }

  /// The bucket a timestamp falls into.
  int64_t BucketOf(int64_t ts) const {
    SLASH_CHECK_GE(ts, 0);
    return ts / BucketWidth();
  }

  /// Exclusive event-time end of a bucket.
  int64_t BucketEnd(int64_t bucket) const {
    return (bucket + 1) * BucketWidth();
  }
};

}  // namespace slash::core

#endif  // SLASH_CORE_WINDOW_H_
