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
  std::string_view name() const override { return "Slash"; }

  /// Runs one job. A non-empty job.tenant labels every job-scoped metric
  /// and trace track {tenant=...}; job.quota > 0 caps the job's in-flight
  /// NIC credits. An empty tenant and no quota add no instruments.
  RunStats Run(const JobSpec& job) override;

  /// Multi-query multi-tenant execution (DESIGN.md §12): runs all `jobs`
  /// concurrently on ONE simulated cluster — one DES, one fabric, one
  /// node set described by `cluster` (each job's own `cluster` field is
  /// ignored) — with per-tenant NIC-credit quotas and per-tenant
  /// metric/trace labeling. Jobs must carry unique, non-empty tenants and
  /// no caller tracer (the run traces through SLASH_TRACE); violations fail
  /// with kInvalidArgument. Fault plans, health detection and elastic
  /// reconfiguration are single-job constructs and are rejected with
  /// kUnimplemented here.
  /// Fair scheduling falls out of the DES: every job's coroutines
  /// interleave on the shared timestamp-ordered event queue.
  MultiRunStats RunJobs(const std::vector<JobSpec>& jobs,
                        const ClusterConfig& cluster);
};

}  // namespace slash::engines

#endif  // SLASH_ENGINES_SLASH_ENGINE_H_
