#include "elastic/coordinator.h"

#include <string>

#include "common/logging.h"
#include "obs/trace.h"

namespace slash::elastic {

std::string_view ReconfigKindName(ReconfigKind kind) {
  switch (kind) {
    case ReconfigKind::kJoin:
      return "join";
    case ReconfigKind::kLeave:
      return "leave";
    case ReconfigKind::kTriggerJoin:
      return "trigger_join";
    case ReconfigKind::kTriggerLeave:
      return "trigger_leave";
    case ReconfigKind::kDeferred:
      return "deferred";
  }
  return "unknown";
}

ReconfigCoordinator::ReconfigCoordinator(sim::Simulator* sim,
                                         const ReconfigPlan* plan, int nodes,
                                         const obs::LabelSet& labels,
                                         Callbacks callbacks)
    : sim_(sim),
      plan_(plan),
      nodes_(nodes),
      callbacks_(std::move(callbacks)),
      deferrals_(sim->metrics().GetCounter(obs::metric::kElasticDeferrals,
                                           labels)) {
  SLASH_CHECK_GT(nodes_, 0);
  SLASH_CHECK(plan_ != nullptr);
  const int initial =
      plan_->initial_nodes == 0 ? nodes_ : plan_->initial_nodes;
  active_.assign(size_t(nodes_), false);
  left_.assign(size_t(nodes_), false);
  join_pending_.assign(size_t(nodes_), false);
  for (int n = 0; n < initial; ++n) active_[size_t(n)] = true;
  active_count_ = initial;
}

void ReconfigCoordinator::Start() {
  for (const ReconfigPlan::NodeJoin& j : plan_->joins) {
    sim_->ScheduleAt(j.at, [this, node = j.node] {
      FireJoin(node, /*from_trigger=*/false);
    });
  }
  for (const ReconfigPlan::NodeLeave& l : plan_->leaves) {
    sim_->ScheduleAt(l.at, [this, node = l.node] {
      FireLeave(node, /*from_trigger=*/false);
    });
  }
  if (plan_->trigger.enabled) {
    SLASH_CHECK(callbacks_.sample_records != nullptr);
    cooldown_ = plan_->trigger.cooldown_intervals;
    sim_->ScheduleAt(sim_->now() + plan_->trigger.interval,
                     [this] { SampleLoad(); });
  }
}

void ReconfigCoordinator::Stop() { stopped_ = true; }

void ReconfigCoordinator::FireJoin(int node, bool from_trigger) {
  if (stopped_) return;
  if (!callbacks_.on_join(node)) {
    // Engine busy (recovery or earlier handoff in flight): handoffs are
    // serialized, so back off and retry.
    join_pending_[size_t(node)] = true;
    deferrals_->Add(1);
    Record(ReconfigKind::kDeferred, node);
    sim_->ScheduleAt(sim_->now() + kDeferralRetryInterval,
                     [this, node, from_trigger] {
                       FireJoin(node, from_trigger);
                     });
    return;
  }
  join_pending_[size_t(node)] = false;
  if (!active_[size_t(node)]) {
    active_[size_t(node)] = true;
    ++active_count_;
  }
  cooldown_ = plan_->trigger.cooldown_intervals;
  Record(from_trigger ? ReconfigKind::kTriggerJoin : ReconfigKind::kJoin,
         node);
}

void ReconfigCoordinator::FireLeave(int node, bool from_trigger) {
  if (stopped_) return;
  // A node's leave waits for its deferred join: it must not overtake it
  // and be discarded as the leave of an inactive node.
  if (join_pending_[size_t(node)] || !callbacks_.on_leave(node)) {
    deferrals_->Add(1);
    Record(ReconfigKind::kDeferred, node);
    sim_->ScheduleAt(sim_->now() + kDeferralRetryInterval,
                     [this, node, from_trigger] {
                       FireLeave(node, from_trigger);
                     });
    return;
  }
  if (active_[size_t(node)]) {
    active_[size_t(node)] = false;
    --active_count_;
  }
  left_[size_t(node)] = true;
  cooldown_ = plan_->trigger.cooldown_intervals;
  Record(from_trigger ? ReconfigKind::kTriggerLeave : ReconfigKind::kLeave,
         node);
}

void ReconfigCoordinator::SampleLoad() {
  if (stopped_) return;
  const ReconfigPlan::LoadTrigger& t = plan_->trigger;
  const uint64_t records = callbacks_.sample_records();
  const uint64_t delta = records - last_sample_;
  last_sample_ = records;
  if (cooldown_ > 0) {
    --cooldown_;
  } else if (active_count_ > 0) {
    const uint64_t per_node = delta / uint64_t(active_count_);
    if (per_node > t.join_above && active_count_ < nodes_) {
      // Lowest-numbered inactive node that never left joins first.
      for (int n = 0; n < nodes_; ++n) {
        if (!active_[size_t(n)] && !left_[size_t(n)]) {
          FireJoin(n, /*from_trigger=*/true);
          break;
        }
      }
    } else if (per_node < t.leave_below && active_count_ > t.min_active) {
      // Highest-numbered active node leaves first.
      for (int n = nodes_ - 1; n >= 0; --n) {
        if (active_[size_t(n)]) {
          FireLeave(n, /*from_trigger=*/true);
          break;
        }
      }
    }
  }
  if (!stopped_) {
    sim_->ScheduleAt(sim_->now() + t.interval, [this] { SampleLoad(); });
  }
}

void ReconfigCoordinator::Record(ReconfigKind kind, int node) {
  trace_.push_back(ReconfigEvent{sim_->now(), kind, node});
  if (obs::Tracer* tracer = sim_->tracer()) {
    const std::string name =
        "reconfig." + std::string(ReconfigKindName(kind));
    tracer->InstantNamed(sim_->now(), name, "elastic", node,
                         obs::kTrackElastic);
  }
}

uint64_t ReconfigCoordinator::trace_digest() const {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;  // FNV prime
    }
  };
  for (const ReconfigEvent& e : trace_) {
    mix(uint64_t(e.time));
    mix(uint64_t(e.kind));
    mix(uint64_t(e.node));
  }
  return h;
}

}  // namespace slash::elastic
