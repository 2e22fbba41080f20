// Deterministic failure detection over the RDMA substrate.
//
// Every node publishes a liveness word — a monotonically increasing
// heartbeat counter in its own registered memory — and every node monitors
// every other node by issuing one-sided RDMA READs of that word on a
// virtual-time heartbeat. The read path is exactly the paper's argument for
// one-sided verbs: probing costs the *prober* a posted WR and the NIC a
// round trip, but never interrupts the probed node's CPU, so a busy-but-
// healthy node can never be suspected merely for being busy.
//
// Suspicion is a deterministic phi-accrual analogue: the score for a peer
// is the count of *consecutive* probe misses (timeout, error completion,
// or a round trip slower than the rpc deadline), and crossing
// `suspicion_threshold` marks the peer suspect. Timeouts form a strict
// hierarchy — probe rpc < heartbeat interval < suspicion window (epoch
// scale) < recovery deadline < run deadline — validated up front so a
// plan cannot configure an inverted detector.
//
// Split-brain safety is decided locally from the same evidence: a node
// that can reach a majority of the cluster (counting itself) may report
// suspects upward (the engine quarantines them and starts the same
// epoch-aligned rollback a declared crash takes); a node that cannot reach
// a majority *self-fences* — it stops emitting and committing until its
// connectivity returns. Quarantined peers keep being probed: the first
// timely probe after a partition heals is the rejoin signal.
//
// Everything runs on the DES clock through the fabric's modeled NIC, so
// detection latencies, false positives, and recovery decisions replay
// bit-for-bit for a given (plan, seed) pair.
#ifndef SLASH_HEALTH_HEALTH_H_
#define SLASH_HEALTH_HEALTH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "rdma/fabric.h"

namespace slash::obs {
class Counter;
class Gauge;
}  // namespace slash::obs

namespace slash::health {

/// Detector parameters. Defaults give ~0.8 ms detection (8 consecutive
/// misses at a 100 us heartbeat) — well inside the channel layer's ~8 ms
/// retry budget, so suspicion always beats retry exhaustion.
struct HealthConfig {
  /// Master switch. Off by default: a disabled detector posts nothing,
  /// registers no instruments, and keeps runs byte-identical to builds
  /// without src/health/ at all.
  bool enabled = false;

  /// RPC-level deadline for one liveness READ round trip. A probe that
  /// completes later than this (or errors) counts as a miss.
  Nanos probe_timeout = 20 * kMicrosecond;

  /// Heartbeat tick: liveness word bump + one probe per peer per tick.
  Nanos heartbeat_interval = 100 * kMicrosecond;

  /// Consecutive misses before a peer is suspected. The product
  /// suspicion_threshold * heartbeat_interval is the epoch-scale detection
  /// window.
  uint32_t suspicion_threshold = 8;

  /// Virtual-time budget for one recovery round (teardown + restore +
  /// first post-restore progress). Exceeding it aborts the run with
  /// kDeadlineExceeded instead of spinning. 0 disables the watchdog.
  Nanos recovery_deadline = 50 * kMillisecond;

  /// Whole-run deadline; 0 = unbounded. The top of the timeout hierarchy:
  /// a run that has not drained by this virtual time is failed cleanly
  /// (chaos schedules use it to turn would-be hangs into clean aborts).
  Nanos run_deadline = 0;

  /// Enforces the timeout hierarchy:
  ///   probe_timeout < heartbeat_interval,
  ///   heartbeat_interval * suspicion_threshold < recovery_deadline,
  ///   recovery_deadline < run_deadline (when both are set).
  Status Validate() const;
};

/// The per-run failure detector. One instance watches the `nodes` executor
/// nodes of a fabric; construct it *after* the engine's own QPs so QP
/// numbering of the data plane is unchanged, then Start() it.
class HealthMonitor {
 public:
  struct Callbacks {
    /// `monitor` (majority-side) accuses `suspects` of being unreachable.
    /// Re-fired on every evaluation until the engine quarantines them via
    /// SetQuarantined or the suspicion recants.
    std::function<void(int monitor, const std::vector<int>& suspects)>
        on_suspect;
    /// `node` lost contact with the majority and fenced itself.
    std::function<void(int node)> on_self_fence;
    /// `node` regained majority contact and unfenced.
    std::function<void(int node)> on_unfence;
    /// A quarantined `node` answered a probe within the rpc deadline:
    /// evidence it is reachable again. Re-fired per timely probe until the
    /// engine lifts the quarantine (rejoin) or ignores it (node crashed).
    std::function<void(int node)> on_liveness_resumed;
  };

  /// Registers liveness/landing regions and one probe QP pair per ordered
  /// node pair. `nodes` is the number of monitored executor nodes (may be
  /// fewer than fabric->nodes(): ingestion-source hub nodes are not
  /// cluster members).
  HealthMonitor(rdma::Fabric* fabric, const HealthConfig& config, int nodes,
                Callbacks callbacks);
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Arms the per-node heartbeat ticks (first tick one interval from now).
  void Start();

  /// Stops re-arming ticks; in-flight probe completions are ignored. The
  /// engine calls this when the run drains or fails so the simulator's
  /// event queue can empty.
  void Stop();
  bool stopped() const { return stopped_; }

  /// Engine decision feedback: a quarantined peer's continued suspicion is
  /// expected (not a false positive) and its recovered liveness is a
  /// rejoin signal. Lifting the quarantine resets the peer's probe state
  /// on every monitor (fresh slate).
  void SetQuarantined(int node, bool quarantined);

  /// Elastic membership: a planned leave RETIRES `node` from the detector's
  /// view — it stops probing, stops being probed, and drops out of the
  /// majority denominator — so a graceful departure is never accused as a
  /// failure and never shrinks the survivors' quorum. A join (or a node
  /// activated after Start) re-admits it with a clean probe slate and arms
  /// its heartbeat tick. Every node is a member by default.
  void SetMembership(int node, bool member);

  /// True while `node` has self-fenced (no majority contact).
  bool fenced(int node) const { return fenced_[node]; }

  /// Current suspicion score: consecutive misses of `peer` observed by
  /// `monitor`.
  uint32_t suspicion(int monitor, int peer) const {
    return probes_[monitor][peer].missed;
  }

  const HealthConfig& config() const { return config_; }

 private:
  struct PeerProbe {
    rdma::QpPair qp;
    bool outstanding = false;
    uint64_t next_seq = 0;
    uint64_t outstanding_seq = 0;
    Nanos sent_at = 0;
    uint32_t missed = 0;
    bool suspect = false;
    obs::Gauge* gauge = nullptr;  // health.suspicion{node,peer}
  };

  void Tick(int monitor);
  bool OnProbeCompletion(int monitor, int peer, const rdma::Completion& c);
  void Miss(int monitor, int peer);
  void Progress(int monitor, int peer);
  void Evaluate(int monitor);
  void TraceInstant(std::string_view name, int node);

  rdma::Fabric* fabric_;
  HealthConfig config_;
  int nodes_;
  Callbacks callbacks_;
  bool stopped_ = false;
  bool started_ = false;
  std::vector<rdma::MemoryRegion*> liveness_;  // [node]: own heartbeat word
  std::vector<rdma::MemoryRegion*> landing_;   // [node]: read landing slots
  std::vector<std::vector<PeerProbe>> probes_;  // [monitor][peer]
  std::vector<bool> quarantined_;
  std::vector<bool> fenced_;
  std::vector<bool> member_;      // false = elastically retired/not yet joined
  std::vector<bool> tick_armed_;  // a Tick event chain exists for this node
  // The health.* tallies, published in place into the simulator's registry.
  obs::Counter* probes_sent_;
  obs::Counter* probe_misses_;
  obs::Counter* suspicions_;
  obs::Counter* false_positives_;
  obs::Counter* fence_events_;
  obs::Counter* quarantines_;
};

}  // namespace slash::health

#endif  // SLASH_HEALTH_HEALTH_H_
