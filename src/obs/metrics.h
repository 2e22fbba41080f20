// The metrics half of the observability layer (DESIGN.md §8): typed
// instruments — Counter, Gauge, Histogram, per-role perf::Counters —
// addressed by (name, labels) in a MetricsRegistry, and an immutable
// MetricsSnapshot that RunStats exposes to consumers.
//
// Hot-path discipline: handles are resolved ONCE (GetCounter and friends do
// a map lookup and return a stable pointer); every subsequent increment is
// a plain add on that pointer. Everything is driven by the simulation's
// virtual clock, so two runs with the same seed produce bit-identical
// registries — Snapshot()/ToJson() are canonical (sorted) and serve as a
// determinism oracle next to result_checksum and fault_trace_digest.
#ifndef SLASH_OBS_METRICS_H_
#define SLASH_OBS_METRICS_H_

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/units.h"
#include "perf/counters.h"

namespace slash::obs {

// ---------------------------------------------------------------------------
// Canonical instrument catalog
// ---------------------------------------------------------------------------
// Every RunStats accessor is backed by one of these names (the full mapping
// is tabulated in DESIGN.md §8). Digests and byte counts are uint64
// Counters — never double-valued Gauges, whose 53-bit mantissa would
// silently corrupt them.
namespace metric {
inline constexpr std::string_view kRunMakespanNs = "run.makespan_ns";
inline constexpr std::string_view kRecordsIn = "source.records_in";
inline constexpr std::string_view kRecordsEmitted = "sink.records_emitted";
inline constexpr std::string_view kResultChecksum = "sink.result_checksum";
inline constexpr std::string_view kNetworkTxBytes = "fabric.tx_bytes";
// Never published; RunStats::buffer_pool_hit_rate() still reads it (as 0).
inline constexpr std::string_view kBufferPoolHitRate =
    "fabric.buffer_pool_hit_rate";
inline constexpr std::string_view kChannelRetries = "channel.retries";
// Verbs-level batching instruments. Registered only by channels that opt
// into batching (ChannelConfig::post_batch / inline_threshold), so
// default-config snapshots stay byte-identical. inline_sends counts inline
// wire WRITEs; coalesced_slots counts the slots of multi-slot WRITEs.
inline constexpr std::string_view kChannelBatches = "channel.batches";
inline constexpr std::string_view kChannelDoorbells = "channel.doorbells";
inline constexpr std::string_view kChannelInlineSends = "channel.inline_sends";
inline constexpr std::string_view kChannelCoalescedSlots =
    "channel.coalesced_slots";
inline constexpr std::string_view kChannelCreditsOutstanding =
    "channel.credits_outstanding";
inline constexpr std::string_view kTransferLatencyNs =
    "channel.transfer_latency_ns";
inline constexpr std::string_view kFaultsInjected = "fault.injected";
inline constexpr std::string_view kFaultTraceDigest = "fault.trace_digest";
inline constexpr std::string_view kCheckpointsTaken = "checkpoint.taken";
inline constexpr std::string_view kCheckpointBytesReplicated =
    "checkpoint.bytes_replicated";
inline constexpr std::string_view kRecoveries = "recovery.count";
inline constexpr std::string_view kRecoveryNs = "recovery.total_ns";
inline constexpr std::string_view kRecordsReplayed =
    "recovery.records_replayed";
// Failure-detection instruments (src/health/). Only registered when
// HealthConfig::enabled is set, mirroring the connection-scaling opt-in:
// runs without the detector keep byte-identical snapshots.
inline constexpr std::string_view kHealthProbesSent = "health.probes_sent";
inline constexpr std::string_view kHealthProbeMisses = "health.probe_misses";
inline constexpr std::string_view kHealthSuspicions = "health.suspicions";
inline constexpr std::string_view kHealthFalsePositives =
    "health.false_positives";
inline constexpr std::string_view kHealthSuspicion = "health.suspicion";
inline constexpr std::string_view kHealthFenceEvents = "health.fence_events";
inline constexpr std::string_view kHealthFenceSuppressions =
    "health.fence_suppressions";
inline constexpr std::string_view kHealthQuarantines = "health.quarantines";
inline constexpr std::string_view kHealthRejoins = "health.rejoins";
// Elastic-reconfiguration instruments (src/elastic/). Only registered when
// ClusterConfig::reconfig is set, mirroring the health/connection opt-ins:
// static-membership runs keep byte-identical snapshots.
inline constexpr std::string_view kElasticReconfigs = "elastic.reconfigs";
inline constexpr std::string_view kElasticJoins = "elastic.joins";
inline constexpr std::string_view kElasticLeaves = "elastic.leaves";
inline constexpr std::string_view kElasticDeferrals = "elastic.deferrals";
inline constexpr std::string_view kElasticHandoffNs = "elastic.handoff_ns";
inline constexpr std::string_view kElasticPartitionsMoved =
    "elastic.partitions_moved";
inline constexpr std::string_view kElasticStateBytesMoved =
    "elastic.state_bytes_moved";
inline constexpr std::string_view kElasticRecordsMigrated =
    "elastic.records_migrated";
inline constexpr std::string_view kElasticTraceDigest =
    "elastic.trace_digest";
inline constexpr std::string_view kElasticPartitionLoad =
    "elastic.partition_load";
// Multi-tenant instruments (engines/job.h). Only registered for jobs that
// carry a non-empty tenant, so single-job snapshots stay byte-identical
// with the pre-plan-layer paths.
inline constexpr std::string_view kJobDrainNs = "job.drain_ns";
inline constexpr std::string_view kChannelQuotaDenials =
    "channel.quota_denials";
inline constexpr std::string_view kSimEventsFired = "sim.events_fired";
inline constexpr std::string_view kSimPoolHitRate = "sim.pool_hit_rate";
inline constexpr std::string_view kSimEventBytes =
    "sim.event_bytes_allocated";
inline constexpr std::string_view kCpu = "cpu";
}  // namespace metric

/// Well-known label keys.
inline constexpr std::string_view kLabelEngine = "engine";
inline constexpr std::string_view kLabelNode = "node";
inline constexpr std::string_view kLabelRole = "role";
inline constexpr std::string_view kLabelOperator = "operator";
inline constexpr std::string_view kLabelTenant = "tenant";

/// An immutable, canonically ordered set of key=value labels. Two LabelSets
/// with the same pairs produce the same key() regardless of construction
/// order, so they address the same instrument.
class LabelSet {
 public:
  LabelSet() = default;
  LabelSet(
      std::initializer_list<std::pair<std::string_view, std::string_view>>
          pairs);

  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

  /// Canonical identity: "k1=v1,k2=v2" with keys sorted; "" when empty.
  const std::string& key() const { return key_; }

  bool empty() const { return entries_.empty(); }

  /// The value for `k`, or "" when absent.
  std::string_view Get(std::string_view k) const;

  /// A copy of this set with `k`=`v` added (or replaced).
  LabelSet With(std::string_view k, std::string_view v) const;

  bool operator==(const LabelSet& other) const { return key_ == other.key_; }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
  std::string key_;
};

/// Monotonic uint64 counter. Add() is the hot-path operation: one integer
/// add on a pre-resolved handle.
class Counter {
 public:
  void Add(uint64_t n) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Last-value double gauge (rates, ratios). Snapshot merge sums gauges, so
/// by convention a gauge name has a single instance per registry.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// A log-bucketed histogram for latencies in nanoseconds.
///
/// Buckets grow geometrically (~8% per bucket), so percentile queries have
/// bounded relative error over 1 ns .. 100 s without per-sample storage.
/// The bucket bounds are a process-wide constant shared by every instance;
/// per-instance counts are sized lazily on first Record/Merge, so an unused
/// histogram costs nothing.
class Histogram {
 public:
  /// The shared geometric bucket bounds (1 ns .. 100 s, ratio 1.08).
  static const std::vector<Nanos>& Bounds();

  /// Records one latency sample (clamped to be >= 1 ns).
  void Record(Nanos latency);

  /// Accumulates `other` bucket-wise: the single merge path used for both
  /// per-role aggregation and snapshot merging.
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / double(count_) : 0.0; }

  /// Returns the latency at percentile `p` in [0, 100].
  Nanos Percentile(double p) const;

  const std::vector<uint64_t>& buckets() const { return buckets_; }

 private:
  static size_t BucketFor(Nanos v);
  void EnsureBuckets();

  std::vector<uint64_t> buckets_;  // empty until the first sample
  uint64_t count_ = 0;
  double sum_ = 0;
};

enum class InstrumentKind : uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
  kCpu = 3,  // a perf::Counters block (top-down CPU accounting)
};

std::string_view InstrumentKindName(InstrumentKind kind);

/// The registry: owns every instrument of one run. Get* registers on first
/// use and returns a stable pointer (instruments never move); requesting an
/// existing (name, labels) with a different kind check-fails.
class MetricsRegistry;

/// A canonical, self-contained copy of a registry's state at one point in
/// time: sorted by (name, labels), value-typed, mergeable, and
/// JSON-serializable. This is what RunStats carries.
class MetricsSnapshot {
 public:
  struct Entry {
    std::string name;
    LabelSet labels;
    InstrumentKind kind = InstrumentKind::kCounter;
    uint64_t counter = 0;       // kCounter
    double gauge = 0;           // kGauge
    Histogram histogram;        // kHistogram
    perf::Counters cpu;         // kCpu
  };

  bool empty() const { return entries_.empty(); }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Sum of all counters named `name` (0 when absent).
  uint64_t CounterValue(std::string_view name) const;

  /// Sum of all gauges named `name` (0 when absent).
  double GaugeValue(std::string_view name) const;

  /// All histograms named `name`, merged (empty when absent).
  Histogram HistogramValue(std::string_view name) const;

  /// All kCpu instruments named `name`, grouped by the value of label
  /// `label_key` and merged within each group.
  std::map<std::string, perf::Counters> CpuByLabel(
      std::string_view name, std::string_view label_key) const;

  /// All kCpu instruments named `name`, merged.
  perf::Counters CpuTotal(std::string_view name) const;

  /// The instrument-merge path: accumulates `other` entry-wise (counters
  /// and gauges add, histograms merge bucket-wise, CPU blocks merge via
  /// perf::Counters::Merge). Associative and commutative, so sharded
  /// snapshots can be combined in any order.
  void Merge(const MetricsSnapshot& other);

  /// The per-tenant view used by multi-job RunStats: keeps entries whose
  /// labels either lack `key` entirely (shared/cluster-level instruments)
  /// or carry `key`=`value`; drops everything labeled with a different
  /// value. Preserves canonical order.
  MetricsSnapshot SelectLabel(std::string_view key,
                              std::string_view value) const;

  /// Canonical JSON: entries sorted by (name, labels), doubles printed
  /// round-trip exact. Byte-identical across same-seed runs.
  std::string ToJson() const;

 private:
  friend class MetricsRegistry;

  /// Entries sorted by (name, labels.key()).
  std::vector<Entry> entries_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name, const LabelSet& labels = {});
  Gauge* GetGauge(std::string_view name, const LabelSet& labels = {});
  Histogram* GetHistogram(std::string_view name, const LabelSet& labels = {});

  /// A per-(name, labels) perf::Counters block; roles merge their CpuContext
  /// counters into it, so per-role aggregation happens inside the registry.
  perf::Counters* GetCpu(std::string_view name, const LabelSet& labels = {});

  size_t size() const { return instruments_.size(); }

  MetricsSnapshot Snapshot() const;

 private:
  struct Instrument {
    std::string name;
    LabelSet labels;
    InstrumentKind kind;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<perf::Counters> cpu;
  };

  Instrument* Resolve(std::string_view name, const LabelSet& labels,
                      InstrumentKind kind);

  std::deque<Instrument> instruments_;  // deque: stable pointers
  std::map<std::string, size_t, std::less<>> index_;  // name \x1f labels
};

}  // namespace slash::obs

#endif  // SLASH_OBS_METRICS_H_
