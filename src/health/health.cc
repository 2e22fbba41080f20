#include "health/health.h"

#include <cstring>
#include <string>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace slash::health {

namespace {

constexpr uint64_t kLivenessWordBytes = 8;

uint64_t LoadWord(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StoreWord(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

obs::MetricsRegistry& Registry(rdma::Fabric* fabric) {
  return fabric->simulator()->metrics();
}

}  // namespace

Status HealthConfig::Validate() const {
  if (probe_timeout <= 0 || heartbeat_interval <= 0) {
    return Status::InvalidArgument(
        "health: probe_timeout and heartbeat_interval must be positive");
  }
  if (suspicion_threshold == 0) {
    return Status::InvalidArgument(
        "health: suspicion_threshold must be at least 1");
  }
  if (probe_timeout >= heartbeat_interval) {
    return Status::InvalidArgument(
        "health: timeout hierarchy violated: probe_timeout must be below "
        "heartbeat_interval");
  }
  const Nanos suspicion_window =
      heartbeat_interval * Nanos(suspicion_threshold);
  if (recovery_deadline > 0 && suspicion_window >= recovery_deadline) {
    return Status::InvalidArgument(
        "health: timeout hierarchy violated: suspicion window "
        "(heartbeat_interval * suspicion_threshold) must be below "
        "recovery_deadline");
  }
  if (run_deadline > 0 && recovery_deadline >= run_deadline) {
    return Status::InvalidArgument(
        "health: timeout hierarchy violated: recovery_deadline must be "
        "below run_deadline");
  }
  return Status::OK();
}

HealthMonitor::HealthMonitor(rdma::Fabric* fabric, const HealthConfig& config,
                             int nodes, Callbacks callbacks)
    : fabric_(fabric),
      config_(config),
      nodes_(nodes),
      callbacks_(std::move(callbacks)),
      probes_sent_(
          Registry(fabric).GetCounter(obs::metric::kHealthProbesSent)),
      probe_misses_(
          Registry(fabric).GetCounter(obs::metric::kHealthProbeMisses)),
      suspicions_(
          Registry(fabric).GetCounter(obs::metric::kHealthSuspicions)),
      false_positives_(
          Registry(fabric).GetCounter(obs::metric::kHealthFalsePositives)),
      fence_events_(
          Registry(fabric).GetCounter(obs::metric::kHealthFenceEvents)),
      quarantines_(
          Registry(fabric).GetCounter(obs::metric::kHealthQuarantines)) {
  SLASH_CHECK_GT(nodes_, 0);
  SLASH_CHECK_LE(nodes_, fabric_->nodes());
  SLASH_CHECK(config_.Validate().ok());
  quarantined_.assign(nodes_, false);
  fenced_.assign(nodes_, false);
  member_.assign(nodes_, true);
  tick_armed_.assign(nodes_, false);
  liveness_.resize(nodes_);
  landing_.resize(nodes_);
  for (int n = 0; n < nodes_; ++n) {
    liveness_[n] = fabric_->pd(n)->RegisterRegion(kLivenessWordBytes);
    landing_[n] =
        fabric_->pd(n)->RegisterRegion(kLivenessWordBytes * uint64_t(nodes_));
    StoreWord(liveness_[n]->data(), 0);
  }
  probes_.resize(nodes_);
  for (int m = 0; m < nodes_; ++m) {
    probes_[m].resize(nodes_);
    for (int p = 0; p < nodes_; ++p) {
      if (p == m) continue;
      PeerProbe& probe = probes_[m][p];
      probe.qp = fabric_->Connect(m, p);
      probe.qp.first->send_cq().SetInterceptor(
          [this, m, p](const rdma::Completion& c) {
            return OnProbeCompletion(m, p, c);
          });
      probe.gauge = Registry(fabric_).GetGauge(
          obs::metric::kHealthSuspicion,
          {{obs::kLabelNode, std::to_string(m)}, {"peer", std::to_string(p)}});
    }
  }
}

void HealthMonitor::Start() {
  sim::Simulator* sim = fabric_->simulator();
  started_ = true;
  const Nanos first = sim->now() + config_.heartbeat_interval;
  for (int m = 0; m < nodes_; ++m) {
    if (!member_[m]) continue;  // armed on SetMembership(m, true)
    tick_armed_[m] = true;
    sim->ScheduleAt(first, [this, m] { Tick(m); });
  }
}

void HealthMonitor::Stop() { stopped_ = true; }

void HealthMonitor::SetQuarantined(int node, bool quarantined) {
  SLASH_CHECK_GE(node, 0);
  SLASH_CHECK_LT(node, nodes_);
  if (quarantined_[node] == quarantined) return;
  quarantined_[node] = quarantined;
  if (quarantined) {
    quarantines_->Add(1);
    TraceInstant("health.quarantine", node);
  } else {
    // Rejoin: the peer starts from a clean slate on every monitor so stale
    // partition-era misses cannot be mistaken for fresh gray behaviour (or
    // counted as false positives).
    for (int m = 0; m < nodes_; ++m) {
      if (m == node) continue;
      PeerProbe& probe = probes_[m][node];
      probe.missed = 0;
      probe.suspect = false;
      probe.gauge->Set(0);
    }
  }
}

void HealthMonitor::SetMembership(int node, bool member) {
  SLASH_CHECK_GE(node, 0);
  SLASH_CHECK_LT(node, nodes_);
  if (member_[node] == member) return;
  member_[node] = member;
  // Fresh slate in both directions: the node's rows and columns must not
  // carry evidence from before the membership change. Clearing
  // `outstanding` also voids in-flight probes (their completions read as
  // stale).
  for (int m = 0; m < nodes_; ++m) {
    if (m == node) continue;
    for (PeerProbe* probe : {&probes_[m][node], &probes_[node][m]}) {
      probe->missed = 0;
      probe->suspect = false;
      probe->outstanding = false;
      probe->gauge->Set(0);
    }
  }
  if (member) {
    fenced_[node] = false;
    TraceInstant("health.member_join", node);
    if (started_ && !stopped_ && !tick_armed_[node] &&
        !fabric_->node_dead(node)) {
      tick_armed_[node] = true;
      sim::Simulator* sim = fabric_->simulator();
      sim->ScheduleAt(sim->now() + config_.heartbeat_interval,
                      [this, node] { Tick(node); });
    }
  } else {
    TraceInstant("health.member_leave", node);
  }
}

void HealthMonitor::Tick(int monitor) {
  if (stopped_) return;
  // A crashed node's heartbeat stops with it — no bump, no probes, no
  // re-arm. So does a non-member's (elastic leave; re-armed if it rejoins).
  // Fenced and quarantined nodes keep ticking: a fenced minority must
  // notice the heal, and a quarantined node's liveness word is what the
  // survivors' rejoin probes read.
  if (fabric_->node_dead(monitor) || !member_[monitor]) {
    tick_armed_[monitor] = false;
    return;
  }
  sim::Simulator* sim = fabric_->simulator();
  const Nanos now = sim->now();
  StoreWord(liveness_[monitor]->data(),
            LoadWord(liveness_[monitor]->data()) + 1);
  for (int p = 0; p < nodes_; ++p) {
    if (p == monitor || !member_[p]) continue;
    PeerProbe& probe = probes_[monitor][p];
    if (probe.outstanding && now - probe.sent_at >= config_.probe_timeout) {
      // Abandoned: the rpc deadline passed with no completion. A late
      // completion for this sequence number is ignored as stale.
      probe.outstanding = false;
      Miss(monitor, p);
    }
    if (!probe.outstanding) {
      probe.outstanding = true;
      probe.outstanding_seq = ++probe.next_seq;
      probe.sent_at = now;
      probes_sent_->Add(1);
      rdma::MemorySpan span{landing_[monitor],
                            uint64_t(p) * kLivenessWordBytes,
                            kLivenessWordBytes};
      const Status posted = probe.qp.first->PostRead(
          span, liveness_[p]->remote_key(), 0, probe.outstanding_seq);
      SLASH_CHECK_MSG(posted.ok(), "liveness probe post failed: " << posted);
    }
  }
  Evaluate(monitor);
  if (!stopped_) {
    sim->ScheduleAt(now + config_.heartbeat_interval,
                    [this, monitor] { Tick(monitor); });
  }
}

bool HealthMonitor::OnProbeCompletion(int monitor, int peer,
                                      const rdma::Completion& c) {
  if (stopped_) return true;
  // Either endpoint leaving between post and completion makes the probe
  // moot — its result is neither progress nor gray evidence.
  if (!member_[monitor] || !member_[peer]) return true;
  PeerProbe& probe = probes_[monitor][peer];
  if (!probe.outstanding || c.wr_id != probe.outstanding_seq) {
    return true;  // stale (abandoned) probe
  }
  probe.outstanding = false;
  if (fabric_->node_dead(monitor)) return true;
  const Nanos rtt = fabric_->simulator()->now() - probe.sent_at;
  if (!c.ok() || rtt > config_.probe_timeout) {
    // Error completion (flush, retry-exhausted) or a round trip past the
    // rpc deadline: gray evidence either way.
    Miss(monitor, peer);
  } else {
    Progress(monitor, peer);
  }
  Evaluate(monitor);
  return true;
}

void HealthMonitor::Miss(int monitor, int peer) {
  PeerProbe& probe = probes_[monitor][peer];
  ++probe.missed;
  probe_misses_->Add(1);
  probe.gauge->Set(double(probe.missed));
  if (!probe.suspect && probe.missed >= config_.suspicion_threshold) {
    probe.suspect = true;
    suspicions_->Add(1);
    TraceInstant("health.suspect", peer);
  }
}

void HealthMonitor::Progress(int monitor, int peer) {
  PeerProbe& probe = probes_[monitor][peer];
  if (quarantined_[peer]) {
    // A quarantined peer answering within the rpc deadline is the rejoin
    // signal; keep the suspicion state untouched (the engine resets it via
    // SetQuarantined(false) when it actually rejoins).
    if (callbacks_.on_liveness_resumed) callbacks_.on_liveness_resumed(peer);
    return;
  }
  if (probe.missed > 0) {
    if (probe.suspect) {
      // Reached threshold but recovered before the engine quarantined it:
      // the detector cried wolf.
      false_positives_->Add(1);
      TraceInstant("health.false_positive", peer);
    }
    probe.suspect = false;
    probe.missed = 0;
    probe.gauge->Set(0);
  }
}

void HealthMonitor::Evaluate(int monitor) {
  std::vector<int> fresh;
  int unreachable = 0;
  int members = 0;
  for (int p = 0; p < nodes_; ++p) {
    if (member_[p]) ++members;
  }
  for (int p = 0; p < nodes_; ++p) {
    if (p == monitor || !member_[p]) continue;
    const PeerProbe& probe = probes_[monitor][p];
    // Reachability is judged on *any* miss evidence, not the full
    // suspicion threshold: a cut-off node's peers cross the threshold a
    // few events apart, and judging on suspects alone would let it accuse
    // the first one while still believing it sees a majority. Accusations
    // below stay threshold-gated.
    if (probe.missed == 0) continue;
    ++unreachable;
    if (probe.suspect && !quarantined_[p] && !fabric_->node_dead(p)) {
      fresh.push_back(p);
    }
  }
  // Majority is over current MEMBERS, not provisioned nodes: a planned
  // leave shrinks the denominator, so graceful departures never push the
  // survivors below quorum the way failures do.
  const int reachable = members - unreachable;  // counting this node itself
  const int majority = members / 2 + 1;
  if (reachable >= majority) {
    if (fenced_[monitor]) {
      fenced_[monitor] = false;
      TraceInstant("health.unfence", monitor);
      if (callbacks_.on_unfence) callbacks_.on_unfence(monitor);
    }
    if (!fresh.empty() && callbacks_.on_suspect) {
      callbacks_.on_suspect(monitor, fresh);
    }
  } else if (!fenced_[monitor]) {
    // Minority side of a cut: fence before any divergent epoch can commit.
    fenced_[monitor] = true;
    fence_events_->Add(1);
    TraceInstant("health.fence", monitor);
    if (callbacks_.on_self_fence) callbacks_.on_self_fence(monitor);
  }
}

void HealthMonitor::TraceInstant(std::string_view name, int node) {
  if (obs::Tracer* tracer = fabric_->simulator()->tracer()) {
    tracer->InstantNamed(fabric_->simulator()->now(), name, "health", node,
                         obs::kTrackHealth);
  }
}

}  // namespace slash::health
