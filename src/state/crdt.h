// Conflict-free replicated data types for window state (paper Sec. 5.1).
//
// Slash does not re-partition streams, so the same key may be updated
// concurrently on several executors. Partial state must therefore be a CRDT
// so that lazy merging yields the result a sequential computation would
// produce (consistency property P2):
//
//  * Non-holistic window computations (sum/count/min/max/avg aggregations)
//    use `AggState`: a commutative monoid — each executor accumulates a
//    partial aggregate and merging combines partials.
//  * Holistic window computations (joins) use the join-semilattice of sets
//    of observed records, merged by union. It has no type of its own: the
//    set is a partition's LSS append entries (state/partition.h), and
//    Partition::MergeDelta unions a helper's epoch delta into the leader's
//    log (delta-state CRDT).
//
// AggState satisfies the monoid laws (commutativity, associativity,
// identity element), which the unit tests verify property-style.
#ifndef SLASH_STATE_CRDT_H_
#define SLASH_STATE_CRDT_H_

#include <cstdint>
#include <limits>

namespace slash::state {

/// Which scalar an aggregation query finally extracts from AggState.
enum class AggKind : uint8_t {
  kSum = 0,
  kCount = 1,
  kMin = 2,
  kMax = 3,
  kAvg = 4,
};

/// The partial-aggregate CRDT: one fixed-size accumulator supporting every
/// non-holistic aggregation at once. POD so it can live inside the
/// log-structured store and be shipped raw over RDMA. A default AggState
/// is the identity element: merging it changes nothing.
struct AggState {
  int64_t sum = 0;
  int64_t count = 0;
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();

  /// Folds one record value into the accumulator.
  void Apply(int64_t value) {
    sum += value;
    count += 1;
    if (value < min) min = value;
    if (value > max) max = value;
  }

  /// CRDT merge: combines another partial accumulator (commutative and
  /// associative).
  void Merge(const AggState& other) {
    sum += other.sum;
    count += other.count;
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
  }

  /// Extracts the final value for `kind`. Avg is rounded toward zero;
  /// min/max of an empty state return the identity sentinels.
  int64_t Extract(AggKind kind) const {
    switch (kind) {
      case AggKind::kSum:
        return sum;
      case AggKind::kCount:
        return count;
      case AggKind::kMin:
        return min;
      case AggKind::kMax:
        return max;
      case AggKind::kAvg:
        return count == 0 ? 0 : sum / count;
    }
    return 0;
  }

  bool operator==(const AggState& other) const = default;
};

static_assert(sizeof(AggState) == 32, "AggState must stay a 32-byte POD");

}  // namespace slash::state

#endif  // SLASH_STATE_CRDT_H_
