// The Slash stateful executor (paper Secs. 4-5): native RDMA integration.
//
// Execution strategy per node:
//   * W worker coroutines, one per physical data flow, run the operator
//     pipeline push-based and *eagerly* update partial state in the local
//     SSB instance — a per-record RMW (aggregations) or append (joins),
//     never a partition-and-forward. There is no data re-partitioning.
//   * At epoch boundaries (every `epoch_bytes` of input, or ahead of time
//     at stream end) a worker drains every helper fragment, ships the delta
//     over the n^2 mesh of RDMA channels to the partition leaders, and
//     resets the fragments. Low watermarks piggyback on the deltas.
//   * The drain is non-blocking: a serialized delta waits in its worker's
//     send queue until credits let its chunks go, and the worker goes back
//     to its input meanwhile. That send backlog is bounded per node: while
//     the node's workers hold kBacklogEpochs x `epoch_bytes` or more of
//     unposted delta bytes, none of them reads input; they keep draining,
//     shipping, merging and triggering until the backlog falls below the
//     bound. A node whose channels are the bottleneck stops reading instead
//     of queueing every unsent byte on the heap.
//   * A leader coroutine per node reassembles inbound deltas, CRDT-merges
//     them into the primary partition, advances the vector clock, and
//     triggers windows whose trigger watermark passed min(V) — emitting
//     per-key results from the merged, consistent state (properties P1/P2).
//
// The coroutine scheduler interleaves compute and RDMA work exactly as
// Sec. 5.3 describes: a coroutine blocked on an empty channel or missing
// credit parks on an event (charging pause-loop cycles for the wait) and
// other coroutines of the node keep running.
#ifndef SLASH_ENGINES_SLASH_ENGINE_H_
#define SLASH_ENGINES_SLASH_ENGINE_H_

#include <vector>

#include "engines/engine.h"

namespace slash::engines {

class SlashEngine : public Engine {
 public:
  /// Faults, health detection and elastic reconfiguration reason about
  /// one job's ownership map and recovery rounds: a one-job run supports
  /// all three, a multi-job run none.
  static constexpr EngineSupport kOneJobSupport{
      .engine = "Slash", .faults = true, .health = true, .reconfig = true};
  static constexpr EngineSupport kMultiJobSupport{
      .engine = "a multi-job Slash run"};

  /// A node stops reading input while its send backlog (serialized, not
  /// yet posted delta bytes) is at least this many `epoch_bytes`. A
  /// constant, not a knob: EXPERIMENTS.md "Send backlog" has the sweep.
  static constexpr uint64_t kBacklogEpochs = 4;

  std::string_view name() const override { return kOneJobSupport.engine; }

  /// Runs one job: RunJobs({job}, job.cluster), returning the cluster stats
  /// with the job's rows.
  RunStats Run(const JobSpec& job) override;

  /// The one Slash entry path (DESIGN.md §12): runs all `jobs`
  /// concurrently on ONE simulated cluster — one DES, one fabric, one
  /// node set described by `cluster` (each job's own `cluster` field is
  /// ignored). A non-empty tenant labels every job-scoped metric
  /// {tenant=...}; quota > 0 caps the job's in-flight NIC credits; an empty
  /// tenant and no quota add no instruments. A one-job run honours the
  /// job's tracer, traces on the conventional tracks and accepts a fault
  /// plan, health detection and elastic reconfiguration (the latter
  /// requires checkpointing). A run of several jobs gives each tenant its
  /// own trace tracks; its jobs must carry unique, non-empty tenants and no
  /// caller tracer (the run traces through SLASH_TRACE), or it fails with
  /// kInvalidArgument, and the cluster may ask for none of faults, health
  /// or reconfiguration, or it fails with kUnimplemented.
  /// Fair scheduling falls out of the DES: every job's coroutines
  /// interleave on the shared timestamp-ordered event queue.
  MultiRunStats RunJobs(const std::vector<JobSpec>& jobs,
                        const ClusterConfig& cluster);
};

}  // namespace slash::engines

#endif  // SLASH_ENGINES_SLASH_ENGINE_H_
