// The Slash State Backend (SSB): a distributed key-value store for
// in-memory operator state, shared across nodes via RDMA (paper Sec. 7).
//
// Deployment model: a Slash cluster of n nodes has n partitions of the
// key-value space. Node p is the *leader* of partition p (its "primary
// partition", holding merged state); every other node is a *helper* for p
// and accumulates its updates to p's keys in a local *fragment*. At epoch
// boundaries helpers drain their fragments — serialized straight out of the
// LSS delta region — ship them to the leader over RDMA channels, and reset;
// the leader CRDT-merges them into the primary. This is the replacement for
// data re-partitioning: the per-record common case is a local RMW, and the
// network carries per-key partial aggregates instead of raw records.
//
// One StateBackend instance lives on each node (for each stateful
// operator); the engine wires the n^2 RDMA channels and drives the epoch
// protocol (src/engines/slash_engine).
#ifndef SLASH_STATE_STATE_BACKEND_H_
#define SLASH_STATE_STATE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/units.h"
#include "state/partition.h"

namespace slash::state {

/// SSB sizing and policy.
struct SsbConfig {
  int nodes = 2;
  StateKind kind = StateKind::kAggregate;
  /// Primary partition sizes. A helper fragment's index starts at 256
  /// buckets (or `index_buckets` if smaller) and, at each epoch reset,
  /// grows or shrinks to what the fragment held, between that start and
  /// `index_buckets`. Its LSS starts at 64 KiB (or `lss_capacity` if
  /// smaller), grows in place on demand and rewinds at each reset.
  uint64_t lss_capacity = 1ULL << 20;
  size_t index_buckets = 1ULL << 12;
  /// Epoch length: an executor triggers a synchronization after processing
  /// this many input bytes (paper Sec. 8.1.1: 64 MiB). Window triggers may
  /// end an epoch ahead of time.
  uint64_t epoch_bytes = 64 * kMiB;
};

/// Envelope prepended to every fragment delta shipped between SSB
/// instances. The low watermark piggybacks vector-clock progress
/// (Sec. 7.2.2 "Properties").
struct DeltaEnvelope {
  uint32_t partition = 0;
  uint32_t helper_node = 0;
  uint64_t epoch = 0;
  uint64_t entry_count = 0;
  int64_t low_watermark = 0;
};

/// The per-node SSB instance.
class StateBackend {
 public:
  StateBackend(int node, const SsbConfig& config);

  StateBackend(const StateBackend&) = delete;
  StateBackend& operator=(const StateBackend&) = delete;

  int node() const { return node_; }
  const SsbConfig& config() const { return config_; }

  /// The partition owning `key` (identical on every node).
  int partition_of(uint64_t key) const {
    return static_cast<int>(Mix64(key ^ 0x5ca1ab1eULL) % config_.nodes);
  }

  /// Local storage for partition `p`: a primary when this node leads it, a
  /// helper fragment otherwise.
  Partition* local(int p) { return partitions_[p].get(); }
  const Partition* local(int p) const { return partitions_[p].get(); }

  /// This node's home primary partition (merged state it leads).
  Partition* primary() { return local(node_); }

  // --- Leadership (crash recovery) -----------------------------------------

  /// True when this node leads partition `p` (holds its merged primary).
  /// Initially only the home partition p == node(); recovery extends the
  /// set when a survivor inherits a dead node's partition.
  bool leads(int p) const { return led_[p]; }

  /// Promotes fragment `p` to a primary on this node (the node inherited
  /// leadership of a crashed peer's partition, or was handed it by a
  /// reconfiguration). The fragment must still be empty: it is replaced by
  /// an empty partition of primary size. The caller restores the partition
  /// content from the latest replicated snapshot afterwards.
  void AddLeadership(int p);

  // --- Record-level API (the hot path) -------------------------------------

  /// Point RMW of (key, bucket) for aggregations. Routes to the owning
  /// partition's local store: primary if this node leads it, fragment
  /// otherwise — never the network.
  void UpdateAggregate(uint64_t key, int64_t bucket, int64_t value) {
    local(partition_of(key))->UpdateAggregate(StateKey{key, bucket}, value);
  }

  /// Append for join state, same routing.
  void Append(uint64_t key, int64_t bucket, uint16_t stream_id,
              const uint8_t* data, uint32_t len) {
    local(partition_of(key))->Append(StateKey{key, bucket}, stream_id, data,
                                     len);
  }

  /// Hints that an UpdateAggregate/Append of (key, bucket) comes soon, same
  /// routing (Partition::Prefetch). Changes no state.
  void Prefetch(uint64_t key, int64_t bucket) const {
    local(partition_of(key))->Prefetch(StateKey{key, bucket});
  }

  // --- Epoch protocol -------------------------------------------------------

  /// Accounts processed input bytes toward the epoch threshold.
  void AccountProcessedBytes(uint64_t bytes) { epoch_bytes_acc_ += bytes; }

  /// True when the byte threshold has been crossed.
  bool EpochDue() const { return epoch_bytes_acc_ >= config_.epoch_bytes; }

  /// Step 1 of the protocol: advances every shared (fragment) partition's
  /// epoch counter and rearms the byte threshold.
  void BeginEpoch();

  /// Helper side, steps 2-3: serializes fragment `p`'s delta (appending to
  /// `out` after a DeltaEnvelope), then invalidates the fragment (step 4's
  /// sender half). Returns the envelope describing the delta.
  DeltaEnvelope DrainFragment(int p, int64_t low_watermark,
                              std::vector<uint8_t>* out);

  /// Leader side: merges a received fragment delta into the primary
  /// partition. `data` points at the DeltaEnvelope.
  Status MergeIntoPrimary(const uint8_t* data, size_t len,
                          DeltaEnvelope* envelope_out);

  /// Per-partition snapshot/restore, used by epoch-aligned checkpointing
  /// and recovery (a recovered leader may hold several primaries).
  /// SnapshotPartition returns the entry count.
  size_t SnapshotPartition(int p, std::vector<uint8_t>* out) const {
    return local(p)->Snapshot(out);
  }
  Status RestorePartition(int p, const uint8_t* data, size_t len) {
    return partitions_[p]->Restore(data, len);
  }

 private:
  // Builds empty storage for partition `p` at primary or fragment size.
  std::unique_ptr<Partition> MakePartition(int p, bool primary) const;

  int node_;
  SsbConfig config_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  std::vector<bool> led_;  // led_[p]: this node leads partition p
  uint64_t epoch_bytes_acc_ = 0;
};

}  // namespace slash::state

#endif  // SLASH_STATE_STATE_BACKEND_H_
