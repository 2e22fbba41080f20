// The job model (DESIGN.md §12): what one tenant submits to an engine.
//
// A JobSpec is the one description of a job. It names the tenant, points at
// the workload that supplies both the query (Workload::MakeQuery) and its
// record generators, sets an optional NIC-credit quota, and carries two
// configurations that never overlap:
//
//   * ClusterConfig — the simulated cluster itself: topology, CPU clock,
//     NIC/socket models, connection scaling, fault plan, health detection,
//     elastic reconfiguration, cost model. One per cluster; shared by every
//     job running on it.
//   * JobConfig — per-job execution knobs: input size, channel sizing,
//     epoch length, batching, state sizing, seed, execution strategy,
//     checkpoint policy, tracer.
//
// Engine::Run(JobSpec) runs one job; SlashEngine::RunJobs runs one or
// several on one shared ClusterConfig. MakeJobSpec builds the common case.
#ifndef SLASH_ENGINES_JOB_H_
#define SLASH_ENGINES_JOB_H_

#include <cstdint>
#include <string>

#include "channel/rdma_channel.h"
#include "common/units.h"
#include "core/pipeline.h"
#include "elastic/reconfig.h"
#include "health/health.h"
#include "obs/trace.h"
#include "rdma/fabric.h"
#include "rdma/socket_transport.h"
#include "sim/fault.h"
#include "workloads/workload.h"

namespace slash::engines {

/// Epoch-aligned checkpointing and crash recovery (Slash and Flink-like
/// engines). When enabled, every node snapshots the partitions it leads at
/// checkpoint boundaries aligned with the epoch/barrier protocol,
/// replicates the snapshot over the network to `replication_factor` peers,
/// and a kNodeCrash mid-run triggers recovery instead of an abort: the dead
/// node's partitions move to a surviving heir, every node rolls back to the
/// latest fully replicated checkpoint round, and the lost input is replayed
/// deterministically from the sources.
struct CheckpointConfig {
  bool enabled = false;

  /// Slash: a checkpoint round every `interval_epochs` state-backend
  /// epochs (round r is taken when a node's epoch sequence reaches
  /// r * interval_epochs, aligned across nodes by the epoch protocol).
  /// The Flink-like engine instead has each sender emit a barrier after
  /// every records_per_worker / 4 records it consumed.
  uint32_t interval_epochs = 1;

  /// Peers each snapshot is replicated to (1 or 2). With n live nodes the
  /// peers of node p are (p+1) mod n and, for factor 2, (p+2) mod n.
  int replication_factor = 1;
};

/// The simulated cluster: topology, hardware models and cluster-wide
/// services, shared by every job that runs on it.
///
/// Defaults model the paper's testbed (Sec. 8.1.1): 10-core 2.4 GHz nodes,
/// ConnectX-4 EDR NICs at the measured 11.8 GB/s.
struct ClusterConfig {
  int nodes = 2;
  int workers_per_node = 10;
  double cpu_ghz = 2.4;

  rdma::NicConfig nic;             // 11.8 GB/s, ~1 us
  rdma::SocketConfig socket;       // IPoIB penalties (Flink-like only)
  /// How channel flows map onto QPs (rdma/srq.h): full-mesh (default),
  /// per-node SRQ transports, or shared QP pools. A resource knob, not a
  /// semantics knob — result_checksum and the canonical MetricsSnapshot
  /// are byte-identical across modes at equal seed.
  rdma::ConnectionConfig connection;

  /// Optional deterministic fault plan (Slash one-job runs, UpPar and
  /// Flink-like; LightSaber and multi-job Slash runs reject a non-empty
  /// plan with kUnimplemented). When set (and non-empty), the
  /// ClusterRuntime validates it and registers a sim::FaultInjector before
  /// building the fabric; transient faults are absorbed by channel retry
  /// (results identical to the fault-free run), permanent ones abort the
  /// run cleanly with RunStats::status set — unless checkpointing is
  /// enabled, in which case a node crash is recovered and the run completes
  /// with correct results. Not owned; must outlive the Run() call.
  const sim::FaultPlan* fault_plan = nullptr;

  /// Failure detection and self-healing (one-job Slash runs only; other
  /// engines and multi-job runs reject `health.enabled` with
  /// kUnimplemented). When enabled alongside
  /// checkpointing, a deterministic HealthMonitor probes per-node liveness
  /// words over one-sided RDMA READs; a suspected node is quarantined and
  /// recovered exactly like a declared crash, a healed node rejoins via
  /// snapshot restore, and a minority partition self-fences so no epoch can
  /// commit twice.
  health::HealthConfig health;

  /// Elastic scale-out (one-job Slash runs only; other engines and
  /// multi-job runs reject a non-null plan with kUnimplemented). When set,
  /// `nodes` is the provisioned maximum: the run starts on the plan's
  /// initial_nodes (0 = all) and a ReconfigCoordinator executes the plan's
  /// scheduled — or load-triggered — join/leave events against the running
  /// job. Each membership change is a handoff at a checkpoint boundary
  /// (requires checkpoint.enabled): state partitions move to their new
  /// owners by one-sided READs of the checkpoint blobs and the tail since
  /// the boundary is replayed, reusing the recovery path as the consistency
  /// mechanism. Not owned; must outlive the Run() call. A plan failing
  /// Validate(nodes) or ValidateWithFaults fails the run with that status.
  const elastic::ReconfigPlan* reconfig = nullptr;
};

/// The per-job execution knobs: everything a tenant may choose
/// independently of its neighbors on the same cluster.
///
/// Defaults follow the paper's c = 8 credits and 64 KiB buffers. Input
/// sizes and the epoch length are scaled down from the paper's 1 GB/thread
/// and 64 MiB so simulated runs complete quickly; both are configurable.
struct JobConfig {
  uint64_t records_per_worker = 20'000;

  channel::ChannelConfig channel;  // credits = 8, 64 KiB slots

  /// Epoch length in processed input bytes (paper default 64 MiB; scaled).
  uint64_t epoch_bytes = 4 * kMiB;

  /// State backend sizing: the LSS capacity and index buckets of a primary
  /// partition. A Slash helper fragment's index starts at 256 buckets and
  /// resizes at epoch resets up to `state_index_buckets`; its LSS starts at
  /// 64 KiB and grows on demand (state::SsbConfig).
  uint64_t state_lss_capacity = 1ULL << 20;
  size_t state_index_buckets = 1ULL << 14;

  uint64_t seed = 42;

  /// Pipeline execution strategy (Sec. 5.3): interpreted (default) or
  /// compiled/fused.
  core::ExecutionStrategy execution = core::ExecutionStrategy::kInterpreted;

  /// Slash only: ingest streams over RDMA channels from dedicated source
  /// nodes (the paper's Fig. 1 architecture — "data ingestion ... at full
  /// RDMA network speed") instead of reading pre-generated data from local
  /// memory (the evaluation methodology of Sec. 8.2.1). Doubles the
  /// simulated node count: one generator node per executor node.
  bool rdma_ingestion = false;

  /// Keep emitted result rows (tests); digests are always collected.
  bool collect_rows = false;

  /// Checkpointing / crash recovery (Slash and Flink-like engines).
  CheckpointConfig checkpoint;

  /// Optional caller-provided tracer (not owned; must outlive Run). When
  /// set, the engine emits its trace here and does NOT write SLASH_TRACE
  /// files — tests use this to capture traces programmatically. When null,
  /// the engine owns an internal tracer that is enabled iff the SLASH_TRACE
  /// environment variable names a directory, and writes
  /// TRACE_<engine>_<k>.json / METRICS_<engine>_<k>.json there on return.
  /// A SlashEngine::RunJobs of several jobs rejects it (one trace covers
  /// the shared DES); a one-job RunJobs honours it.
  obs::Tracer* tracer = nullptr;
};

/// One tenant's job: the unit of submission to Engine::Run and
/// SlashEngine::RunJobs.
struct JobSpec {
  /// Tenant name, the label on every job-scoped metric and trace track.
  /// May be empty for single-job runs (then no tenant labels are emitted);
  /// multi-job runs require unique non-empty tenants.
  std::string tenant;

  /// Supplies the job's query (MakeQuery), record generators and wire
  /// sizes. Not owned; must outlive the run. A null workload fails the run
  /// with kInvalidArgument.
  const workloads::Workload* sources = nullptr;

  /// Per-tenant NIC-credit quota: the maximum channel credits this job may
  /// hold in flight across ALL of its channels at once, enforced at
  /// TryAcquire by a channel::CreditQuota. 0 = unlimited (no quota object
  /// is created, keeping the channel hot path byte-identical).
  uint32_t quota = 0;

  /// The cluster to run on (Engine::Run; SlashEngine::RunJobs takes one
  /// cluster for all jobs instead and ignores this field).
  ClusterConfig cluster;

  /// This job's execution knobs.
  JobConfig config;
};

/// Builds the JobSpec that runs `workload` on `cluster` with `config`.
JobSpec MakeJobSpec(std::string tenant, const workloads::Workload& workload,
                    const ClusterConfig& cluster, const JobConfig& config,
                    uint32_t quota = 0);

}  // namespace slash::engines

#endif  // SLASH_ENGINES_JOB_H_
