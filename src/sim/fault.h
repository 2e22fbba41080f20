// Deterministic fault injection for the DES kernel.
//
// A FaultPlan is a declarative, virtual-time schedule of failures:
//   * QP errors      — a reliable connection transitions into the error
//                      state; in-flight and subsequent work requests
//                      complete with a nonzero wc_status (flush semantics),
//                      optionally recovering after an interval.
//   * NIC degradation— a node's line rate is scaled down for an interval
//                      (flapping link, congested uplink, thermal throttle).
//   * Node pauses    — a node freezes for an interval (GC stall, VM
//                      migration): its NIC transmits and receives nothing
//                      until the resume time.
//   * Transfer drops — individual transfers inside a time window are lost
//                      (seeded coin flip per transfer) and reported to the
//                      sender as retry-exhausted after a detection delay.
//   * Transfer delays— transfers inside a window incur extra wire latency.
//
// The injector is registered on the Simulator; the RDMA fabric discovers it
// there and (a) lets it schedule the timed actions against an abstract
// FaultTarget interface, (b) consults it synchronously for per-transfer
// drop/delay decisions. Everything is driven by the virtual clock and one
// seeded PRNG polled in deterministic DES order, so a given (plan, seed,
// workload) triple replays bit-for-bit: same failures at the same virtual
// times with the same consequences, run after run.
//
// Layering: this header knows nothing about RDMA. Targets are named by
// plain integers (node ids, QP numbers); rdma::Fabric implements
// FaultTarget on top of them.
#ifndef SLASH_SIM_FAULT_H_
#define SLASH_SIM_FAULT_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace slash::sim {

/// Wildcard for DropRule/DelayRule endpoints: matches every node.
inline constexpr int kAnyNode = -1;

/// Virtual time between a transfer being lost and the sender's NIC
/// reporting retry-exhausted (models the RC transport retransmit budget).
inline constexpr Nanos kDropReportDelay = 10 * kMicrosecond;

/// A declarative failure schedule. Plain data: build one, hand it to a
/// FaultInjector (engines take it via ClusterConfig::fault_plan).
struct FaultPlan {
  /// Seed for the per-transfer coin flips (drop probability). Independent
  /// of the workload seed so data and faults can vary separately.
  uint64_t seed = 1;

  /// Connection error on the QP with number `qp_num` (both endpoints of
  /// the connection enter the error state). `recover_after == 0` means the
  /// error is permanent; otherwise the connection resets to ready after
  /// that interval.
  struct QpError {
    Nanos at = 0;
    uint32_t qp_num = 0;
    Nanos recover_after = 0;
  };

  /// Scales node `node`'s NIC line rate by `bandwidth_scale` (in (0, 1])
  /// during [at, at + duration).
  struct NicDegrade {
    Nanos at = 0;
    int node = 0;
    double bandwidth_scale = 0.1;
    Nanos duration = 0;
  };

  /// Freezes node `node`'s NIC (both paths) during [at, at + duration).
  struct NodePause {
    Nanos at = 0;
    int node = 0;
    Nanos duration = 0;
  };

  /// Drops transfers from `src_node` to `dst_node` (kAnyNode wildcards)
  /// posted inside [from, until) with probability `probability`, up to
  /// `max_drops` losses. until == 0 means "forever" (a dead link).
  struct DropRule {
    Nanos from = 0;
    Nanos until = 0;
    int src_node = kAnyNode;
    int dst_node = kAnyNode;
    double probability = 1.0;
    uint64_t max_drops = UINT64_MAX;
  };

  /// Adds `extra_latency` to matching transfers posted in [from, until).
  struct DelayRule {
    Nanos from = 0;
    Nanos until = 0;
    int src_node = kAnyNode;
    int dst_node = kAnyNode;
    Nanos extra_latency = 0;
  };

  /// Kills node `node` permanently at virtual time `at`: every QP touching
  /// the node enters the error state (in-flight work flushes with errors),
  /// the fabric marks the node dead, and the engine's crash handler — if one
  /// is registered — gets a synchronous notification to start recovery.
  struct NodeCrash {
    Nanos at = 0;
    int node = 0;
  };

  /// Bipartitions the cluster at virtual time `at`: every transfer crossing
  /// the cut between `side_a` and its complement is dropped (reported to the
  /// sender as retry-exhausted after kDropReportDelay), in both
  /// directions, until the matching PartitionHeal fires. Nodes keep running
  /// — nothing errors, traffic just silently dies on the wire. `side_a`
  /// must be a non-empty strict subset of [0, nodes).
  struct NetworkPartition {
    Nanos at = 0;
    std::vector<int> side_a;
  };

  /// Heals the currently active partition at virtual time `at`. Partitions
  /// and heals must alternate: P, H, P, H, ... A partition without a
  /// following heal is permanent.
  struct PartitionHeal {
    Nanos at = 0;
  };

  /// A gray node: multiplies node `node`'s NIC transfer durations and CPU
  /// compute costs by `factor` (>= 1) during [at, at + duration) without
  /// erroring anything. duration == 0 means the slowdown is permanent.
  struct NodeSlow {
    Nanos at = 0;
    int node = 0;
    double factor = 10.0;
    Nanos duration = 0;
  };

  /// Deterministically drops every transfer from `src_node` to `dst_node`
  /// (that direction only) posted inside [from, until). until == 0 means
  /// forever. Unlike DropRule this never consults the PRNG, so it composes
  /// with probabilistic rules without perturbing their coin-flip sequence.
  struct LinkDropOneWay {
    Nanos from = 0;
    Nanos until = 0;
    int src_node = 0;
    int dst_node = 0;
  };

  std::vector<QpError> qp_errors;
  std::vector<NicDegrade> nic_degrades;
  std::vector<NodePause> node_pauses;
  std::vector<DropRule> drop_rules;
  std::vector<DelayRule> delay_rules;
  std::vector<NodeCrash> node_crashes;
  std::vector<NetworkPartition> partitions;
  std::vector<PartitionHeal> partition_heals;
  std::vector<NodeSlow> node_slows;
  std::vector<LinkDropOneWay> one_way_drops;

  bool empty() const {
    return qp_errors.empty() && nic_degrades.empty() && node_pauses.empty() &&
           drop_rules.empty() && delay_rules.empty() && node_crashes.empty() &&
           partitions.empty() && partition_heals.empty() &&
           node_slows.empty() && one_way_drops.empty();
  }

  /// Checks the plan against a fabric of `nodes` nodes. Rejects unsorted
  /// schedules (each vector must be ordered by trigger time), overlapping
  /// pauses/slowdowns of the same node, node-targeted faults naming nodes
  /// outside [0, nodes), malformed partition sides (empty, duplicated, or
  /// non-strict subsets), heals with no preceding partition, and partitions
  /// that overlap an un-healed predecessor. Engines call this before arming
  /// the injector so a bad plan fails the run with a clear error instead of
  /// corrupting it mid-flight.
  Status Validate(int nodes) const;
};

/// What the injector can do to the substrate. Implemented by rdma::Fabric;
/// all identifiers are plain integers so sim/ stays below rdma/.
class FaultTarget {
 public:
  virtual ~FaultTarget() = default;

  /// Transitions the connection owning QP `qp_num` into the error state.
  virtual void FailQp(uint32_t qp_num) = 0;
  /// Resets that connection back to ready (lost in-flight work stays lost).
  virtual void RecoverQp(uint32_t qp_num) = 0;
  /// Scales `node`'s NIC bandwidth by `scale` (1.0 restores full rate).
  virtual void SetNicBandwidthScale(int node, double scale) = 0;
  /// Freezes `node`'s NIC paths until virtual time `until`.
  virtual void PauseNode(int node, Nanos until) = 0;
  /// Kills `node` permanently: marks it dead, errors every QP touching it.
  virtual void CrashNode(int node) = 0;
  /// Installs the bipartition cut: `side_a` vs its complement.
  virtual void PartitionNodes(const std::vector<int>& side_a) = 0;
  /// Removes the active bipartition cut.
  virtual void HealPartition() = 0;
  /// Multiplies `node`'s NIC and CPU costs by `factor` (1.0 restores).
  virtual void SetNodeSpeedFactor(int node, double factor) = 0;
};

/// Kinds of injected events, for the trace.
enum class FaultKind : uint8_t {
  kQpError = 0,
  kQpRecover,
  kNicDegrade,
  kNicRestore,
  kNodePause,
  kTransferDrop,
  kTransferDelay,
  kNodeCrash,
  kNetworkPartition,
  kPartitionHeal,
  kNodeSlow,
  kNodeRestoreSpeed,
  kLinkDropOneWay,
};

std::string_view FaultKindName(FaultKind kind);

/// One entry of the injection trace: what fired, when, against whom.
struct FaultEvent {
  Nanos time = 0;
  FaultKind kind = FaultKind::kQpError;
  int64_t subject = 0;  // node id or qp_num
  int64_t detail = 0;   // duration, peer node, scaled bandwidth (ppm), ...
};

/// Executes a FaultPlan against one simulation, deterministically.
///
/// Lifecycle: construct with the simulator and plan, register with
/// Simulator::set_fault_injector, then build the fabric (which attaches
/// itself as the target and arms the timed actions). The injector must
/// outlive the simulation run.
class FaultInjector {
 public:
  FaultInjector(Simulator* sim, FaultPlan plan);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms the plan's timed actions against `target`. Called by the fabric
  /// when it finds this injector registered on the simulator. One target
  /// per injector.
  void Attach(FaultTarget* target);

  /// Per-transfer decision, consulted synchronously by the fabric when a
  /// work request is posted. Deterministic: the seeded PRNG advances once
  /// per probabilistic rule match, in DES order. `round_trip` marks
  /// request/response operations (RDMA READ): the whole round trip is lost
  /// if either direction of the cut/link is faulted.
  struct TransferFault {
    bool drop = false;
    Nanos extra_delay = 0;
  };
  TransferFault OnTransfer(int src_node, int dst_node, uint32_t qp_num,
                           uint64_t bytes, bool round_trip = false);

  /// Every event injected so far, in virtual-time order.
  const std::vector<FaultEvent>& trace() const { return trace_; }

  /// FNV-1a digest of the trace; byte-identical across replays of the same
  /// (plan, workload) pair — the determinism regression tests compare it.
  uint64_t trace_digest() const;

  uint64_t dropped_transfers() const { return dropped_transfers_; }
  uint64_t delayed_transfers() const { return delayed_transfers_; }
  uint64_t qp_errors_injected() const { return qp_errors_injected_; }

  const FaultPlan& plan() const { return plan_; }

 private:
  void Record(FaultKind kind, int64_t subject, int64_t detail);

  /// True while a NetworkPartition separates `a` and `b`.
  bool Partitioned(int a, int b) const;

  Simulator* sim_;
  FaultPlan plan_;
  FaultTarget* target_ = nullptr;
  Rng rng_;
  std::vector<uint64_t> drops_used_;  // per drop rule
  std::vector<FaultEvent> trace_;
  bool partition_active_ = false;
  std::vector<int> partition_side_a_;
  uint64_t dropped_transfers_ = 0;
  uint64_t delayed_transfers_ = 0;
  uint64_t qp_errors_injected_ = 0;
};

}  // namespace slash::sim

#endif  // SLASH_SIM_FAULT_H_
