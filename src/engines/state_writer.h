// A Slash worker's state writes, applied a few records after they are
// staged.
//
// A worker's per-record state operation (an aggregate RMW or a join append)
// takes a cold miss on its index bucket and another on its partition's log
// tail. Applied at once, each record pays both misses in turn: the
// lock-prefixed claim, CAS and fetch-add that follow keep out-of-order
// execution from overlapping them across records. The worker therefore
// stages each operation here. Staging prefetches the target partition's
// bucket and tail line, and the operation is applied once kDepth newer ones
// are staged, so the misses of consecutive records overlap — the way
// FASTER's batched probes hide them (paper Sec. 7.2.1).
//
// Staged operations apply in the order they were staged, so the state they
// leave is the one immediate application leaves. Only the moment of
// application moves: the caller must Flush() before anything reads or
// drains the SSB and before any suspension point, since every worker of a
// node shares its SSB.
#ifndef SLASH_ENGINES_STATE_WRITER_H_
#define SLASH_ENGINES_STATE_WRITER_H_

#include <cstddef>
#include <cstdint>

#include "common/logging.h"
#include "state/state_backend.h"

namespace slash::engines {

class StateWriter {
 public:
  /// Staged operations outstanding at most: an operation applies this many
  /// records after it was staged. 4, 8 and 16 measured alike on ysb-16n
  /// (EXPERIMENTS.md, "Host wall time"), so the smallest is kept.
  static constexpr size_t kDepth = 4;
  /// Largest appended value a staged operation holds.
  static constexpr size_t kMaxAppendBytes = 512;

  explicit StateWriter(state::StateBackend* ssb) : ssb_(ssb) {}

  StateWriter(const StateWriter&) = delete;
  StateWriter& operator=(const StateWriter&) = delete;

  /// Stages StateBackend::UpdateAggregate(key, bucket, value).
  void UpdateAggregate(uint64_t key, int64_t bucket, int64_t value) {
    Op& op = Stage(key, bucket);
    op.append = false;
    op.value = value;
  }

  /// Stages StateBackend::Append of `len` bytes for (key, bucket) and
  /// returns the buffer holding them, which the caller fills before it
  /// stages anything else.
  uint8_t* Append(uint64_t key, int64_t bucket, uint16_t stream_id,
                  uint32_t len) {
    SLASH_CHECK_LE(size_t{len}, kMaxAppendBytes);
    Op& op = Stage(key, bucket);
    op.append = true;
    op.stream_id = stream_id;
    op.len = len;
    return op.bytes;
  }

  /// Applies every staged operation, oldest first.
  void Flush() {
    while (staged_ > 0) ApplyOldest();
  }

 private:
  struct Op {
    uint64_t key;
    int64_t bucket;
    bool append;
    int64_t value;       // aggregate
    uint16_t stream_id;  // append
    uint32_t len;        // append
    uint8_t bytes[kMaxAppendBytes];
  };

  // Makes room (applying the oldest operation when all kDepth are staged),
  // prefetches (key, bucket)'s state and returns the new operation's slot.
  Op& Stage(uint64_t key, int64_t bucket) {
    if (staged_ == kDepth) ApplyOldest();
    ssb_->Prefetch(key, bucket);
    Op& op = ops_[(oldest_ + staged_) % kDepth];
    ++staged_;
    op.key = key;
    op.bucket = bucket;
    return op;
  }

  void ApplyOldest() {
    const Op& op = ops_[oldest_];
    oldest_ = (oldest_ + 1) % kDepth;
    --staged_;
    if (op.append) {
      ssb_->Append(op.key, op.bucket, op.stream_id, op.bytes, op.len);
    } else {
      ssb_->UpdateAggregate(op.key, op.bucket, op.value);
    }
  }

  state::StateBackend* ssb_;
  Op ops_[kDepth];
  size_t oldest_ = 0;
  size_t staged_ = 0;
};

}  // namespace slash::engines

#endif  // SLASH_ENGINES_STATE_WRITER_H_
