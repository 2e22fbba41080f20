#include "elastic/reconfig.h"

#include <algorithm>
#include <limits>
#include <string>

namespace slash::elastic {

namespace {

/// One merged schedule entry, ordered by time (Validate rejects ties).
struct Entry {
  Nanos at = 0;
  int node = 0;
  bool join = false;
};

Status InvalidPlan(const std::string& what) {
  return Status::InvalidArgument("reconfig plan: " + what);
}

}  // namespace

Status ReconfigPlan::Validate(int nodes) const {
  if (nodes <= 0) return InvalidPlan("cluster has no provisioned nodes");
  if (initial_nodes < 0 || initial_nodes > nodes) {
    return InvalidPlan("initial_nodes must lie in [0, provisioned nodes]");
  }
  const int floor = std::max(min_active, 1);

  std::vector<Entry> entries;
  entries.reserve(joins.size() + leaves.size());
  Nanos prev = -1;
  for (const NodeJoin& j : joins) {
    if (j.node < 0 || j.node >= nodes) {
      return InvalidPlan("join names a node outside [0, nodes)");
    }
    if (j.at <= prev) {
      return InvalidPlan("joins must be sorted by strictly increasing time");
    }
    prev = j.at;
    entries.push_back(Entry{j.at, j.node, true});
  }
  prev = -1;
  for (const NodeLeave& l : leaves) {
    if (l.node < 0 || l.node >= nodes) {
      return InvalidPlan("leave names a node outside [0, nodes)");
    }
    if (l.at <= prev) {
      return InvalidPlan("leaves must be sorted by strictly increasing time");
    }
    prev = l.at;
    entries.push_back(Entry{l.at, l.node, false});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.at < b.at; });
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].at == entries[i - 1].at) {
      return InvalidPlan(
          "join/leave events must carry pairwise distinct times (handoffs "
          "are serialized; simultaneous events have no defined order)");
    }
  }

  // Replay the schedule against the provisioned cluster: active set,
  // membership legality, the min_active floor, and the no-rejoin rule.
  const int initial = initial_nodes == 0 ? nodes : initial_nodes;
  if (initial < floor) {
    return InvalidPlan("initial active set is already below min_active");
  }
  std::vector<bool> active(nodes, false);
  std::vector<bool> left(nodes, false);
  for (int n = 0; n < initial; ++n) active[n] = true;
  int count = initial;
  for (const Entry& e : entries) {
    if (e.join) {
      if (active[e.node]) {
        return InvalidPlan("join of node " + std::to_string(e.node) +
                           " which is already active at that time");
      }
      if (left[e.node]) {
        return InvalidPlan("re-join of node " + std::to_string(e.node) +
                           " after its planned leave (input-interval "
                           "bookkeeping does not survive a leave)");
      }
      active[e.node] = true;
      ++count;
    } else {
      if (!active[e.node]) {
        return InvalidPlan("leave of node " + std::to_string(e.node) +
                           " which is not active at that time");
      }
      if (count - 1 < floor) {
        return InvalidPlan(
            "leave of node " + std::to_string(e.node) +
            " drops the active set below min_active (quorum floor)");
      }
      active[e.node] = false;
      left[e.node] = true;
      --count;
    }
  }

  if (trigger.enabled) {
    if (trigger.interval <= 0) {
      return InvalidPlan("trigger interval must be positive");
    }
    if (trigger.min_active < 1 || trigger.min_active > nodes) {
      return InvalidPlan("trigger min_active must lie in [1, nodes]");
    }
    if (trigger.leave_below > 0 && trigger.join_above <= trigger.leave_below) {
      return InvalidPlan(
          "trigger join_above must exceed leave_below (hysteresis band)");
    }
  }
  return Status::OK();
}

Status ReconfigPlan::ValidateWithFaults(const sim::FaultPlan& faults,
                                        int nodes) const {
  // The fault plan's own structure (partition/heal alternation, sorted
  // times) is validated by FaultPlan::Validate before the run arms it; here
  // we only need the intervals.
  auto inside_partition = [&](Nanos at) {
    for (size_t i = 0; i < faults.partitions.size(); ++i) {
      const Nanos from = faults.partitions[i].at;
      const Nanos until = i < faults.partition_heals.size()
                              ? faults.partition_heals[i].at
                              : std::numeric_limits<Nanos>::max();
      if (at >= from && at < until) return true;
    }
    return false;
  };
  for (const NodeJoin& j : joins) {
    if (inside_partition(j.at)) {
      return InvalidPlan(
          "join scheduled inside an un-healed network partition: the "
          "control plane cannot reach membership consensus across a cut");
    }
  }
  for (const NodeLeave& l : leaves) {
    if (inside_partition(l.at)) {
      return InvalidPlan(
          "leave scheduled inside an un-healed network partition: the "
          "control plane cannot reach membership consensus across a cut");
    }
  }
  return Status::OK();
}

}  // namespace slash::elastic
