// Deterministic runtime reconfiguration (DESIGN.md §13): elastic node
// join/leave on a RUNNING Slash job.
//
// A ReconfigPlan is the membership analogue of a sim::FaultPlan: a
// declarative, virtual-time schedule of NodeJoin/NodeLeave events (plus an
// optional metric-driven autoscale trigger) validated up front and executed
// by an elastic::ReconfigCoordinator against the engine's membership
// callbacks. The cluster is provisioned at its maximum size
// (ClusterConfig::nodes): partitions, flows, and the fabric all exist for
// every provisioned node, and the plan chooses which subset is ACTIVE at
// any virtual time. That framing is what makes `ElasticEqualsStatic` hold —
// a job that grows 4→8 on an 8-provisioned cluster processes the identical
// flow set as a static 8-node run, so oracle results match exactly.
//
// Consistency mechanism: a membership change is executed at an epoch
// boundary through the checkpoint/recovery machinery. The engine tears the
// current attempt down, rolls every node back to the latest fully
// replicated round, re-homes partitions and flows over the new active set
// (one-sided READs of SSB partition snapshots, modeled by the restore
// stream), and replays the tail deterministically — zero dropped records,
// byte-identical replays of the same (plan, seed) pair.
#ifndef SLASH_ELASTIC_RECONFIG_H_
#define SLASH_ELASTIC_RECONFIG_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "sim/fault.h"

namespace slash::elastic {

/// A declarative membership schedule. Plain data: build one, hand it to the
/// engine via ClusterConfig::reconfig.
struct ReconfigPlan {
  /// Nodes active when the run starts: [0, initial_nodes). 0 means "all
  /// provisioned nodes", the legacy static shape. Provisioned-but-inactive
  /// nodes own no partitions and read no flows until a NodeJoin activates
  /// them; their identity partitions and flows are carried by the active
  /// set in the meantime.
  int initial_nodes = 0;

  /// Activates provisioned node `node` at virtual time `at`: fast QP/flow
  /// bring-up over the existing connection-scaling layer, then an
  /// epoch-boundary handoff that moves the node's identity partition (and a
  /// load-balanced share of any other orphans) onto it.
  struct NodeJoin {
    Nanos at = 0;
    int node = 0;
  };

  /// Gracefully retires active node `node` at virtual time `at`. Unlike a
  /// crash the node stays reachable through the handoff, so its local
  /// checkpoint copies still count and the HealthMonitor is told the
  /// departure is planned (retirement, not failure — no accusation).
  struct NodeLeave {
    Nanos at = 0;
    int node = 0;
  };

  /// Metric-driven autoscaling: every `interval` the coordinator samples
  /// the engine's ingest progress and compares the per-active-node record
  /// rate against the thresholds. Joins activate the lowest-numbered
  /// inactive node; leaves retire the highest-numbered active node.
  /// Disabled by default so scheduled plans stay fully explicit.
  struct LoadTrigger {
    bool enabled = false;
    Nanos interval = 500 * kMicrosecond;
    /// Join when records consumed per active node over the last interval
    /// exceeds this (a load spike outruns the current membership).
    uint64_t join_above = UINT64_MAX;
    /// Leave when it falls below this (the cluster is over-provisioned).
    uint64_t leave_below = 0;
    /// Floor on the active set the trigger must respect; its cap is the
    /// provisioned node count.
    int min_active = 1;
    /// Intervals to hold after any membership change before the trigger
    /// may fire again (handoffs pause ingest; reacting to the pause itself
    /// would oscillate).
    uint32_t cooldown_intervals = 2;
  };
  LoadTrigger trigger;

  /// Floor on the active-set size enforced by Validate: a plan whose
  /// schedule ever drops the active count below this is rejected (the
  /// "leave below quorum" case). At least 1 regardless.
  int min_active = 1;

  std::vector<NodeJoin> joins;
  std::vector<NodeLeave> leaves;

  /// True when the plan changes nothing: no scheduled events, no trigger,
  /// and no initial restriction of the active set.
  bool empty() const {
    return joins.empty() && leaves.empty() && !trigger.enabled &&
           initial_nodes == 0;
  }

  /// Checks the plan against a cluster of `nodes` provisioned nodes.
  /// Rejects out-of-range node ids, unsorted schedules (each vector must be
  /// ordered by trigger time, and join/leave times must be pairwise
  /// distinct — handoffs are serialized, so simultaneous events have no
  /// defined order), joins of a node that is already active, leaves of a
  /// node that is not active, re-joins of a node the plan already left
  /// (input-interval bookkeeping does not survive a leave), schedules that
  /// drop the active count below min_active, and malformed triggers.
  Status Validate(int nodes) const;

  /// Cross-validation against a fault plan sharing the run: a membership
  /// event scheduled strictly inside an un-healed NetworkPartition interval
  /// is rejected — the control plane cannot reach consensus across a cut.
  /// (A partition that starts DURING a handoff is a runtime matter for the
  /// recovery path, not a plan error.)
  Status ValidateWithFaults(const sim::FaultPlan& faults, int nodes) const;
};

}  // namespace slash::elastic

#endif  // SLASH_ELASTIC_RECONFIG_H_
