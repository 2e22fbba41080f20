#include "state/state_backend.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace slash::state {

namespace {

// Fragment size floors: a few pages each, small enough to cost nothing
// untouched. A fragment index starts at its floor and sizes itself at each
// epoch reset to what the fragment held (HashIndex::Clear). A fragment log
// starts at its floor, grows in place and restarts at offset 0 at each
// reset, so it keeps the pages its largest epoch needed.
constexpr size_t kMinFragmentBuckets = 256;
constexpr uint64_t kMinFragmentLss = 64 * kKiB;

}  // namespace

StateBackend::StateBackend(int node, const SsbConfig& config)
    : node_(node), config_(config) {
  SLASH_CHECK_GE(node, 0);
  SLASH_CHECK_LT(node, config.nodes);
  partitions_.reserve(config.nodes);
  for (int p = 0; p < config.nodes; ++p) {
    partitions_.push_back(MakePartition(p, /*primary=*/p == node));
  }
  led_.assign(config.nodes, false);
  led_[node] = true;
}

std::unique_ptr<Partition> StateBackend::MakePartition(int p,
                                                       bool primary) const {
  PartitionConfig pcfg;
  pcfg.kind = config_.kind;
  pcfg.lss_capacity = config_.lss_capacity;
  pcfg.index_buckets = config_.index_buckets;
  if (!primary) {
    pcfg.index_buckets = std::min(config_.index_buckets, kMinFragmentBuckets);
    pcfg.lss_capacity = std::min(config_.lss_capacity, kMinFragmentLss);
  }
  return std::make_unique<Partition>(
      p, pcfg, primary ? PartitionRole::kRetiring : PartitionRole::kFragment,
      config_.index_buckets);
}

void StateBackend::AddLeadership(int p) {
  // Reset() rewinds a drained fragment's log, so ask whether it ever
  // allocated.
  SLASH_CHECK_MSG(partitions_[p]->allocated_bytes() == 0,
                  "partition " << p << " promoted after it took updates");
  partitions_[p] = MakePartition(p, /*primary=*/true);
  led_[p] = true;
}

void StateBackend::BeginEpoch() {
  for (int p = 0; p < config_.nodes; ++p) {
    if (!led_[p]) partitions_[p]->AdvanceEpoch();
  }
  epoch_bytes_acc_ = 0;
}

DeltaEnvelope StateBackend::DrainFragment(int p, int64_t low_watermark,
                                          std::vector<uint8_t>* out) {
  SLASH_CHECK(!led_[p]);  // primaries are never drained
  Partition* fragment = partitions_[p].get();
  DeltaEnvelope envelope;
  envelope.partition = static_cast<uint32_t>(p);
  envelope.helper_node = static_cast<uint32_t>(node_);
  envelope.epoch = fragment->epoch();
  envelope.low_watermark = low_watermark;

  const size_t envelope_pos = out->size();
  out->resize(envelope_pos + sizeof(DeltaEnvelope));
  envelope.entry_count = fragment->SerializeDelta(out);
  std::memcpy(out->data() + envelope_pos, &envelope, sizeof(envelope));
  // Step 4 (sender half): the transferred content is invalidated so RMWs
  // restart from a zero value.
  fragment->Reset();
  return envelope;
}

Status StateBackend::MergeIntoPrimary(const uint8_t* data, size_t len,
                                      DeltaEnvelope* envelope_out) {
  if (len < sizeof(DeltaEnvelope)) {
    return Status::InvalidArgument("delta shorter than its envelope");
  }
  DeltaEnvelope envelope;
  std::memcpy(&envelope, data, sizeof(envelope));
  const int p = static_cast<int>(envelope.partition);
  if (p < 0 || p >= config_.nodes || !led_[p]) {
    return Status::InvalidArgument("delta addressed to another leader");
  }
  if (envelope_out != nullptr) *envelope_out = envelope;
  return partitions_[p]->MergeDelta(data + sizeof(DeltaEnvelope),
                                    len - sizeof(DeltaEnvelope));
}

}  // namespace slash::state
