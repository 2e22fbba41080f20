// Result collection: triggered window outputs with order-insensitive
// verification digests.
//
// Engines emit one WindowResult per (window bucket, key). Distributed
// engines emit from many nodes in nondeterministic order, so equality
// against the sequential oracle uses a commutative checksum plus (in tests)
// sorted result vectors.
#ifndef SLASH_CORE_RESULT_SINK_H_
#define SLASH_CORE_RESULT_SINK_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"

namespace slash::core {

/// One triggered result row.
struct WindowResult {
  int64_t bucket = 0;
  uint64_t key = 0;
  int64_t value = 0;

  bool operator==(const WindowResult&) const = default;
  auto operator<=>(const WindowResult&) const = default;
};

/// Collects emitted results.
class ResultSink {
 public:
  /// When `keep_rows` is false only count/checksum are maintained
  /// (benchmark mode); tests keep the rows.
  explicit ResultSink(bool keep_rows = true) : keep_rows_(keep_rows) {}

  void Emit(int64_t bucket, uint64_t key, int64_t value) {
    ++count_;
    checksum_ += Mix64(Mix64(uint64_t(bucket)) ^ Mix64(key) ^
                       Mix64(uint64_t(value) + 0x51a5ULL));
    if (keep_rows_) rows_.push_back(WindowResult{bucket, key, value});
  }

  uint64_t count() const { return count_; }

  /// Order-insensitive digest of all emitted rows.
  uint64_t checksum() const { return checksum_; }

  /// Adds a checkpointed cut to this (fresh) sink: crash recovery restores
  /// one cut per node whose work it took over. `rows` is ignored when the
  /// sink does not keep rows.
  void Restore(uint64_t count, uint64_t checksum,
               const std::vector<WindowResult>& rows) {
    count_ += count;
    checksum_ += checksum;
    if (keep_rows_) rows_.insert(rows_.end(), rows.begin(), rows.end());
  }

  const std::vector<WindowResult>& rows() const { return rows_; }
  std::vector<WindowResult> SortedRows() const;

 private:
  bool keep_rows_;
  uint64_t count_ = 0;
  uint64_t checksum_ = 0;
  std::vector<WindowResult> rows_;
};

}  // namespace slash::core

#endif  // SLASH_CORE_RESULT_SINK_H_
