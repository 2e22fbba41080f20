// The reconfiguration control plane: executes a ReconfigPlan's scheduled
// NodeJoin/NodeLeave events — and the optional metric-driven autoscale
// trigger — against an engine's membership callbacks, entirely on the DES
// clock.
//
// Engine-agnostic by the same layering rule as sim::FaultInjector: the
// coordinator knows node ids and virtual times, nothing about channels or
// state backends. The engine supplies three callbacks: on_join / on_leave
// return false when the event cannot execute right now (a recovery or an
// earlier handoff is still in flight), in which case the coordinator
// re-fires it after kDeferralRetryInterval — handoffs are serialized,
// never overlapped. sample_records feeds the load trigger.
//
// Determinism: everything is driven by ScheduleAt on the shared virtual
// clock and the engine's deterministic progress counters; the coordinator
// keeps an event trace with an FNV-1a digest that replays byte-identically
// for a given (plan, seed) pair, mirroring FaultInjector::trace_digest.
#ifndef SLASH_ELASTIC_COORDINATOR_H_
#define SLASH_ELASTIC_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "elastic/reconfig.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace slash::elastic {

/// Virtual time between a deferred membership event (the engine was
/// mid-recovery or mid-handoff) and its retry.
inline constexpr Nanos kDeferralRetryInterval = 50 * kMicrosecond;

/// Kinds of membership events, for the trace.
enum class ReconfigKind : uint8_t {
  kJoin = 0,       // a scheduled join consumed (executed or moot)
  kLeave,          // a scheduled leave consumed (executed or moot)
  kTriggerJoin,    // the load trigger grew the cluster
  kTriggerLeave,   // the load trigger shrank it
  kDeferred,       // the engine was busy (or, for a leave, the node's join
                   // is still pending); the event will retry
};

std::string_view ReconfigKindName(ReconfigKind kind);

/// One entry of the reconfiguration trace: what fired, when, against whom.
struct ReconfigEvent {
  Nanos time = 0;
  ReconfigKind kind = ReconfigKind::kJoin;
  int node = 0;
};

class ReconfigCoordinator {
 public:
  struct Callbacks {
    /// Activate `node`. Returns false when the engine cannot take a
    /// membership change right now (recovery or handoff in flight); the
    /// coordinator retries after kDeferralRetryInterval. A true return
    /// means the event is consumed — executed, or discarded as moot (the
    /// run already drained, the node crashed in the meantime).
    std::function<bool(int node)> on_join;
    /// Retire `node` gracefully; same return contract as on_join.
    std::function<bool(int node)> on_leave;
    /// Monotonic count of records the job has ingested, for the load
    /// trigger. Only consulted when the plan's trigger is enabled.
    std::function<uint64_t()> sample_records;
  };

  /// `plan` must outlive the coordinator and have passed Validate(nodes).
  /// The elastic.deferrals counter is published into the simulator's
  /// registry under `labels` (the job's). The engine counts the handoffs it
  /// executes (elastic.{reconfigs,joins,leaves}); the trace records every
  /// consumed event, moot ones included.
  ReconfigCoordinator(sim::Simulator* sim, const ReconfigPlan* plan,
                      int nodes, const obs::LabelSet& labels,
                      Callbacks callbacks);
  ReconfigCoordinator(const ReconfigCoordinator&) = delete;
  ReconfigCoordinator& operator=(const ReconfigCoordinator&) = delete;

  /// Arms the scheduled events and (when enabled) the load-trigger
  /// sampling chain.
  void Start();

  /// Stops retry and sampling chains; already-queued DES events fire but
  /// do nothing. The engine calls this when the run drains or fails.
  void Stop();
  bool stopped() const { return stopped_; }

  /// The coordinator's view of the active set (updated when an event is
  /// consumed; the load trigger picks its targets from it).
  bool active(int node) const { return active_[size_t(node)]; }
  int active_count() const { return active_count_; }

  /// Every membership event recorded so far, in virtual-time order.
  const std::vector<ReconfigEvent>& trace() const { return trace_; }

  /// FNV-1a digest of the trace; byte-identical across replays of the same
  /// (plan, seed) pair.
  uint64_t trace_digest() const;

 private:
  void FireJoin(int node, bool from_trigger);
  void FireLeave(int node, bool from_trigger);
  void SampleLoad();
  void Record(ReconfigKind kind, int node);

  sim::Simulator* sim_;
  const ReconfigPlan* plan_;
  int nodes_;
  Callbacks callbacks_;
  bool stopped_ = false;
  std::vector<bool> active_;
  std::vector<bool> left_;  // trigger must not re-join a departed node
  std::vector<bool> join_pending_;  // a deferred join awaits its retry
  int active_count_ = 0;
  uint64_t last_sample_ = 0;
  uint32_t cooldown_ = 0;  // sampling intervals left before trigger re-arms
  obs::Counter* deferrals_;
  std::vector<ReconfigEvent> trace_;
};

}  // namespace slash::elastic

#endif  // SLASH_ELASTIC_COORDINATOR_H_
