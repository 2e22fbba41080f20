// The common engine interface: every System under Test (SUT) of the
// paper's evaluation implements it over the same substrates.
//
//   * SlashEngine       — the paper's contribution (native RDMA integration)
//   * UpParEngine       — "RDMA UpPar": lightweight integration; hash
//                          re-partitioning over RDMA channels
//   * FlinkLikeEngine   — plug-and-play integration; queue-based
//                          re-partitioning over sockets/IPoIB, managed-
//                          runtime overheads, barrier checkpoints
//   * LightSaberEngine  — scale-up single-node late merge (COST yardstick)
//
// UpPar and Flink are one re-partitioning engine (repartition_engine.h),
// each configured by a constexpr RepartitionDesign next to its kSupport.
//
// Engine::Run(JobSpec) executes one job — the workload's query over its
// sources, on the cluster and with the knobs the JobSpec carries — and
// reports throughput (records per second of virtual time), result digests
// for correctness checks, network volume, per-role top-down counters, and
// buffer-latency histograms.
//
// Every engine runs on one ClusterRuntime: the single owner of the DES, the
// fault injector, the metrics registry and tracer, and the RDMA fabric. It
// validates each ClusterConfig against the engine's declared EngineSupport
// and times, checks and snapshots the run (DESIGN.md §12.1).
#ifndef SLASH_ENGINES_ENGINE_H_
#define SLASH_ENGINES_ENGINE_H_

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "channel/rdma_channel.h"
#include "health/health.h"
#include "common/status.h"
#include "common/units.h"
#include "core/pipeline.h"
#include "core/query.h"
#include "core/result_sink.h"
#include "engines/job.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/cost_model.h"
#include "rdma/fabric.h"
#include "rdma/socket_transport.h"
#include "sim/fault.h"
#include "workloads/workload.h"

namespace slash::engines {

// CheckpointConfig, ClusterConfig, JobConfig, and JobSpec live in
// engines/job.h (the job model); this header re-exports them via the
// include above.

/// Outcome of one engine run: a thin, stable view over the run's metrics
/// registry. Engines publish every tally as a named instrument (the
/// catalog in obs::metric; full mapping in DESIGN.md §8) and hand the final
/// snapshot over here; the accessors below are the stable read API. An
/// absent instrument reads as zero, so partial/aborted runs behave as the
/// old zeroed struct fields did.
struct RunStats {
  std::string engine;

  /// OK for a completed run; the terminal error when a permanent fault
  /// (e.g. an unrecovered QP past the retry budget) aborted it. An aborted
  /// run still reports whatever partial stats it accumulated.
  Status status;
  bool ok() const { return status.ok(); }

  std::vector<core::WindowResult> rows;  // when collect_rows

  /// Everything else: the run's full instrument state, canonically ordered
  /// and deterministic — metrics.ToJson() is byte-identical across
  /// same-seed runs (a regression oracle alongside result_checksum).
  obs::MetricsSnapshot metrics;

  /// The ONE host-side measurement (events / wall-clock second, the
  /// perf_opt target metric). Deliberately kept out of the snapshot: it
  /// differs run to run, and the snapshot must not.
  double sim_events_per_sec_wall = 0.0;

  // --- Core run accessors --------------------------------------------------

  uint64_t records_in() const {            // records ingested from sources
    return metrics.CounterValue(obs::metric::kRecordsIn);
  }
  uint64_t records_emitted() const {       // result rows
    return metrics.CounterValue(obs::metric::kRecordsEmitted);
  }
  uint64_t result_checksum() const {       // order-insensitive digest
    return metrics.CounterValue(obs::metric::kResultChecksum);
  }
  Nanos makespan() const {                 // virtual time to drain all flows
    return Nanos(metrics.CounterValue(obs::metric::kRunMakespanNs));
  }
  uint64_t network_bytes() const {         // NIC transmit volume, all nodes
    return metrics.CounterValue(obs::metric::kNetworkTxBytes);
  }

  // --- Fault-tier accessors ------------------------------------------------
  // Transfers transparently re-posted after an error completion, credits
  // still held when the run ended (must be zero for a completed run — the
  // endurance tests assert it), and the injector's fault count / trace
  // digest for determinism regression.

  uint64_t channel_retries() const {
    return metrics.CounterValue(obs::metric::kChannelRetries);
  }
  uint64_t credits_outstanding() const {
    return metrics.CounterValue(obs::metric::kChannelCreditsOutstanding);
  }
  uint64_t faults_injected() const {
    return metrics.CounterValue(obs::metric::kFaultsInjected);
  }
  uint64_t fault_trace_digest() const {
    return metrics.CounterValue(obs::metric::kFaultTraceDigest);
  }

  // --- Checkpoint / recovery accessors (zero when checkpointing is off) ----

  uint64_t checkpoints_taken() const {     // snapshots recorded, all nodes
    return metrics.CounterValue(obs::metric::kCheckpointsTaken);
  }
  uint64_t checkpoint_bytes_replicated() const {  // bytes shipped to peers
    return metrics.CounterValue(obs::metric::kCheckpointBytesReplicated);
  }
  uint64_t recoveries() const {            // node crashes recovered from
    return metrics.CounterValue(obs::metric::kRecoveries);
  }
  Nanos recovery_ns() const {              // virtual time spent recovering
    return Nanos(metrics.CounterValue(obs::metric::kRecoveryNs));
  }
  uint64_t records_replayed() const {      // input re-read after rollback
    return metrics.CounterValue(obs::metric::kRecordsReplayed);
  }

  // --- Health / gray-failure accessors (zero when health is off) ----------

  uint64_t health_probes_sent() const {
    return metrics.CounterValue(obs::metric::kHealthProbesSent);
  }
  uint64_t health_probe_misses() const {
    return metrics.CounterValue(obs::metric::kHealthProbeMisses);
  }
  uint64_t suspicions() const {            // peers that crossed the threshold
    return metrics.CounterValue(obs::metric::kHealthSuspicions);
  }
  uint64_t health_false_positives() const {  // suspicions that recanted
    return metrics.CounterValue(obs::metric::kHealthFalsePositives);
  }
  uint64_t fence_events() const {          // minority-side self-fences
    return metrics.CounterValue(obs::metric::kHealthFenceEvents);
  }
  uint64_t quarantines() const {           // suspects excluded by the engine
    return metrics.CounterValue(obs::metric::kHealthQuarantines);
  }
  uint64_t rejoins() const {               // quarantined nodes welcomed back
    return metrics.CounterValue(obs::metric::kHealthRejoins);
  }

  // --- Elastic reconfiguration accessors (zero when reconfig is off) -------

  uint64_t reconfigs() const {             // join + leave events executed
    return metrics.CounterValue(obs::metric::kElasticReconfigs);
  }
  uint64_t elastic_joins() const {         // nodes that joined mid-run
    return metrics.CounterValue(obs::metric::kElasticJoins);
  }
  uint64_t elastic_leaves() const {        // nodes that left gracefully
    return metrics.CounterValue(obs::metric::kElasticLeaves);
  }
  uint64_t elastic_deferrals() const {     // events retried (engine busy)
    return metrics.CounterValue(obs::metric::kElasticDeferrals);
  }
  Nanos handoff_ns() const {               // virtual time in handoff pauses
    return Nanos(metrics.CounterValue(obs::metric::kElasticHandoffNs));
  }
  uint64_t partitions_moved() const {      // partitions that changed owner
    return metrics.CounterValue(obs::metric::kElasticPartitionsMoved);
  }
  uint64_t state_bytes_moved() const {     // SSB bytes READ during handoffs
    return metrics.CounterValue(obs::metric::kElasticStateBytesMoved);
  }
  uint64_t records_migrated() const {      // source records re-homed to a
    return metrics.CounterValue(            // different ingesting node
        obs::metric::kElasticRecordsMigrated);
  }
  uint64_t reconfig_trace_digest() const { // FNV-1a over the event trace
    return metrics.CounterValue(obs::metric::kElasticTraceDigest);
  }

  // --- DES-kernel accessors ------------------------------------------------

  uint64_t sim_events_fired() const {
    return metrics.CounterValue(obs::metric::kSimEventsFired);
  }
  double sim_pool_hit_rate() const {       // event-node pool recycling rate
    return metrics.GaugeValue(obs::metric::kSimPoolHitRate);
  }
  uint64_t sim_event_bytes_allocated() const {
    return metrics.CounterValue(obs::metric::kSimEventBytes);
  }
  // Always 0: nothing publishes this gauge. Kept only because the
  // slashbench benchmark still reads it.
  double buffer_pool_hit_rate() const {
    return metrics.GaugeValue(obs::metric::kBufferPoolHitRate);
  }

  // --- Derived views -------------------------------------------------------

  /// Top-down counters per role ("worker", "sender", "receiver", ...),
  /// rebuilt from the registry's role-labeled CPU instruments.
  std::map<std::string, perf::Counters> role_counters() const {
    return metrics.CpuByLabel(obs::metric::kCpu, obs::kLabelRole);
  }

  /// All role counters merged.
  perf::Counters TotalCounters() const {
    return metrics.CpuTotal(obs::metric::kCpu);
  }

  /// Per-buffer channel transfer latency (producer acquire to consumer
  /// poll), merged across channels.
  obs::Histogram buffer_latency() const {
    return metrics.HistogramValue(obs::metric::kTransferLatencyNs);
  }

  double throughput_rps() const {
    const Nanos ms = makespan();
    return ms > 0 ? double(records_in()) * 1e9 / double(ms) : 0.0;
  }

  /// Network transmit rate in gigaBYTES per second of virtual time
  /// (bytes/ns == GB/s; the NIC line rate to compare with is 11.8 GB/s).
  double network_gbytes_per_sec() const {
    const Nanos ms = makespan();
    return ms > 0 ? double(network_bytes()) / double(ms) : 0.0;
  }

  /// Simulated aggregate memory bandwidth, gigabytes per second.
  double memory_bandwidth_gbytes_per_sec() const {
    const Nanos ms = makespan();
    return ms > 0 ? double(TotalCounters().mem_bytes) / double(ms) : 0.0;
  }
};

/// Aggregate outcome of a SlashEngine::RunJobs run: the
/// cluster-wide stats plus one per-tenant RunStats view per submitted job,
/// in submission order. Each job view's metrics are the cluster snapshot
/// filtered to that job's tenant label (shared/unlabeled instruments are
/// retained), so the RunStats accessors work unchanged on it.
struct MultiRunStats {
  /// OK when every job completed; the first terminal error otherwise.
  Status status;
  bool ok() const { return status.ok(); }

  /// The whole cluster: every instrument of the shared run.
  RunStats cluster;

  /// Per-job views, one per JobSpec in submission order.
  std::vector<RunStats> jobs;
};

/// A System under Test. Run(JobSpec) is its one entry point.
class Engine {
 public:
  virtual ~Engine() = default;

  virtual std::string_view name() const = 0;

  /// Executes one job: job.sources->MakeQuery() over job.sources on the
  /// cluster job.cluster, with the knobs job.config. A job without sources
  /// fails with kInvalidArgument.
  virtual RunStats Run(const JobSpec& job) = 0;
};

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

/// The recovery coordinator: the control plane's durable view of which
/// checkpoint blobs exist and where their copies live.
///
/// Each node registers its serialized round-r snapshot locally when it takes
/// it (RecordLocal) and the replication protocol registers each peer that
/// received a complete copy (RecordReplica). A node whose input is fully
/// drained takes one terminal snapshot that stands in for every later round
/// (MarkFinalFrom). On a crash, the engine asks for the latest round K that
/// every node can be restored to using only copies held by live nodes —
/// survivors restore from their local blob, the dead node's heir restores
/// from the replica it received.
class RecoveryCoordinator {
 public:
  /// Every RecordLocal bumps `checkpoints_taken`, the run's
  /// obs::metric::kCheckpointsTaken counter under the job's labels.
  RecoveryCoordinator(int nodes, obs::Counter* checkpoints_taken);

  /// Registers node `node`'s serialized round-`round` snapshot (held
  /// locally by the node itself). The coordinator becomes the only owner
  /// of the bytes: replicators read them back through BlobFor.
  void RecordLocal(int node, uint64_t round, std::vector<uint8_t>&& bytes);

  /// Registers that `holder` received a complete replica of node `node`'s
  /// round-`round` snapshot.
  void RecordReplica(int node, uint64_t round, int holder);

  /// Declares node `node`'s round-`round` snapshot terminal: the node's
  /// input is fully drained, so that snapshot is valid for every round
  /// >= `round` as well.
  void MarkFinalFrom(int node, uint64_t round);

  /// The latest round K >= 1 such that every non-retired node has a usable
  /// snapshot for K with at least one copy on a node marked alive, or 0
  /// when no such round exists (recovery then restarts from empty state).
  uint64_t LatestRecoverableRound(const std::vector<bool>& alive) const;

  /// Excludes `node` from LatestRecoverableRound requirements for rounds
  /// AFTER `retirement_round`: its partitions were recovered onto an heir,
  /// which snapshots them from then on as part of its own blobs. Rounds at
  /// or before the retirement round still require the retired node's own
  /// blob (held by a live node) — they predate the heir's takeover.
  void RetireNode(int node, uint64_t retirement_round);

  /// Reverses RetireNode when a quarantined node rejoins after a partition
  /// heals: the node snapshots its own partitions again from the rollback
  /// round onward. Also clears any terminal mark — post-rejoin the node's
  /// input is replayed, so the old terminal snapshot no longer stands in
  /// for later rounds. Leaves any elastic join round (JoinNode) intact.
  void UnretireNode(int node);

  /// Elastic scale-out (src/elastic/): node `node` joins the running job at
  /// round `join_round`. Clears its retirement and records that the node
  /// has no blobs for rounds at or before the join — its partitions up to
  /// then live in the pre-join owners' blobs, so LatestRecoverableRound
  /// must not require the joiner's own copy for them (and restore must not
  /// look for one). Rounds after the join round require its blobs normally.
  void JoinNode(int node, uint64_t join_round);

  bool retired(int node) const { return retired_[node]; }

  /// Whether round `round` is restored from a blob of `node`'s own: false
  /// past its retirement round and at or before its join round.
  bool HasOwnBlob(int node, uint64_t round) const;

  /// Drops every blob for rounds > `round` (and terminal marks past it).
  /// Called when recovery rolls the run back to round `round`: the later
  /// snapshots describe a timeline that no longer exists — after the
  /// rollback the entity-to-node placement changes, so regenerated rounds
  /// must not be confused with stale pre-crash ones.
  void DiscardRoundsAfter(uint64_t round);

  /// The node that takes over failed node `node`'s work when the run
  /// rolls back to round `round`: a live holder of its round-`round` blob
  /// (the heir restores from that replica), else the next live node after
  /// it.
  int Heir(int node, uint64_t round, const std::vector<bool>& alive) const;

  /// Node `node`'s snapshot bytes usable for round `round` (exact round or
  /// the terminal snapshot covering it); nullptr if none. The pointer stays
  /// valid until DiscardRoundsAfter drops that round: recording other
  /// rounds or nodes never moves a stored blob.
  const std::vector<uint8_t>* BlobFor(int node, uint64_t round) const;

  /// Bytes a rollback to round `round` restores: the sum of every node's
  /// blob for that round.
  uint64_t RestoreBytes(uint64_t round) const;

  /// Retires, at round `round`, every node that is dead in `alive` and not
  /// yet retired: from then on its heir snapshots its partitions.
  void RetireDead(const std::vector<bool>& alive, uint64_t round);

 private:
  struct Blob {
    std::vector<uint8_t> bytes;
    std::vector<int> holders;
  };

  const Blob* FindBlob(int node, uint64_t round) const;

  int nodes_;
  std::vector<std::map<uint64_t, Blob>> blobs_;  // per node: round -> blob
  std::vector<int64_t> final_from_;              // -1 = not terminal yet
  std::vector<bool> retired_;
  std::vector<uint64_t> retire_round_;           // valid while retired_[n]
  std::vector<uint64_t> join_round_;             // 0 = active since round 0
  obs::Counter* checkpoints_taken_;
};

/// One node's replication queue for the current attempt: the rounds it
/// has snapshotted, in order. The bytes stay in the RecoveryCoordinator;
/// each replicator keeps its own cursor and reads a blob through BlobFor
/// only after it holds a send slot and before its next suspension: a
/// rollback (DiscardRoundsAfter) can drop the blob while a replicator of
/// the torn-down attempt is parked.
struct ReplState {
  std::vector<uint64_t> rounds;
  bool terminal = false;  // the last queued round is the terminal snapshot
  std::unique_ptr<sim::Event> event;
};

/// Append-only serializer for checkpoint blobs. Fixed-width little-endian
/// fields via memcpy; both engines share it so the recovery tests can treat
/// blob sizes uniformly.
class BlobWriter {
 public:
  explicit BlobWriter(std::vector<uint8_t>* out) : out_(out) {}

  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void Bytes(const std::vector<uint8_t>& bytes) {
    U64(bytes.size());
    Raw(bytes.data(), bytes.size());
  }

 private:
  void Raw(const void* data, size_t len) {
    if (len == 0) return;  // empty Bytes(): memcpy from nullptr is UB
    const size_t pos = out_->size();
    out_->resize(pos + len);
    std::memcpy(out_->data() + pos, data, len);
  }

  std::vector<uint8_t>* out_;
};

/// Cursor-based reader matching BlobWriter. Out-of-bounds reads check-fail:
/// blobs are produced and consumed inside one process, so a short read is a
/// logic error, not input to tolerate.
class BlobReader {
 public:
  BlobReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  uint64_t U64() {
    uint64_t v;
    Raw(&v, sizeof(v));
    return v;
  }
  int64_t I64() {
    int64_t v;
    Raw(&v, sizeof(v));
    return v;
  }
  std::vector<uint8_t> Bytes() {
    const uint64_t n = U64();
    std::vector<uint8_t> out(n);
    Raw(out.data(), n);
    return out;
  }
  bool done() const { return pos_ == len_; }

 private:
  void Raw(void* dst, size_t len);

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

/// kUnimplemented when `spec` names a tenant or sets a quota: only Slash
/// runs labelled, quota-capped jobs, and `engine` would otherwise run the
/// job unthrottled and unlabelled. OK otherwise.
Status CheckUntenanted(const JobSpec& spec, std::string_view engine);

/// Records a worker or sender coroutine reads from its source per
/// scheduling quantum, before it syncs its core to the virtual clock.
inline constexpr uint64_t kSourceBatch = 512;

/// The cluster features, beyond a static fault-free run, that an engine
/// supports. Each engine declares one as a compile-time constant (its
/// kSupport); ClusterRuntime::Create rejects a ClusterConfig that asks for
/// more with kUnimplemented.
struct EngineSupport {
  std::string_view engine;  // names the engine in rejection messages
  bool faults = false;      // a non-empty ClusterConfig::fault_plan
  bool health = false;      // ClusterConfig::health.enabled
  bool reconfig = false;    // a non-null ClusterConfig::reconfig
};

/// The simulated cluster one engine run executes on, and the single owner
/// of its shared resources: the DES (which owns the metrics registry), the
/// optional fault injector, the tracer policy, and the RDMA fabric.
///
/// Create() validates the ClusterConfig in one place (capabilities, then
/// the fault plan against the fabric's node count, the health config and
/// the reconfiguration plan) and builds the resources in the one order that
/// works: the injector and the tracer before the fabric (the fabric attaches
/// itself as the fault target, and its layers intern their trace names, at
/// construction). The engine then builds its jobs on sim() and fabric(),
/// calls Run(), publishes its own instruments, sets stats.status, and calls
/// Finish().
class ClusterRuntime {
 public:
  /// `fabric_nodes` is the fabric's node count; 0 builds no fabric (a
  /// single-node engine), and the trace then names the cluster's nodes.
  /// `tracer` is the caller's tracer (JobConfig::tracer) or null, in which
  /// case the runtime owns one that is enabled iff SLASH_TRACE names a
  /// directory, and Finish() writes its trace and snapshot files there.
  static Result<std::unique_ptr<ClusterRuntime>> Create(
      const ClusterConfig& cluster, int fabric_nodes,
      const EngineSupport& support, obs::Tracer* tracer);

  ClusterRuntime(const ClusterRuntime&) = delete;
  ClusterRuntime& operator=(const ClusterRuntime&) = delete;

  sim::Simulator* sim() { return &sim_; }
  rdma::Fabric* fabric() { return fabric_.get(); }  // null: 0 fabric_nodes
  obs::MetricsRegistry& registry() { return sim_.metrics(); }

  /// Runs the DES to completion under host wall-clock timing, publishes
  /// the makespan and the DES-kernel instruments, and reports the host-side
  /// event rate through stats->sim_events_per_sec_wall (the one number that
  /// may differ between same-seed runs, so it stays out of the registry).
  void Run(RunStats* stats);

  /// The epilogue, after the engine set stats->status and published its
  /// instruments: CHECKs that a completed run drained every task (an
  /// aborted run legitimately strands coroutines that were mid-protocol),
  /// publishes the injector's counters (under `fault_labels`, the labels of
  /// the one job the faults hit) and the buffer-pool hit rate, snapshots the
  /// registry into stats->metrics, and writes the SLASH_TRACE files of an
  /// internal tracer.
  void Finish(RunStats* stats, const obs::LabelSet& fault_labels = {});

 private:
  explicit ClusterRuntime(obs::Tracer* external);

  obs::Tracer* tracer() { return external_ != nullptr ? external_ : &local_; }

  // Declaration order is destruction order in reverse: the fabric and the
  // injector go before the simulator they schedule on, which goes before
  // the tracer it publishes to.
  obs::Tracer* external_;
  obs::Tracer local_;
  sim::Simulator sim_;
  std::unique_ptr<sim::FaultInjector> injector_;
  std::unique_ptr<rdma::Fabric> fabric_;
};

}  // namespace slash::engines

#endif  // SLASH_ENGINES_ENGINE_H_
