#include "engines/membership.h"

#include "common/logging.h"

namespace slash::engines {

Membership::Membership(int nodes, int active)
    : phase_(size_t(nodes), NodePhase::kInactive),
      quarantines_(size_t(nodes), 0),
      alive_(size_t(nodes), false),
      live_(active) {
  SLASH_CHECK_LE(active, nodes);
  for (int n = 0; n < active; ++n) {
    phase_[size_t(n)] = NodePhase::kActive;
    alive_[size_t(n)] = true;
  }
}

bool Membership::Allows(int node, NodeEvent event) const {
  const NodePhase from = phase(node);
  switch (event) {
    case NodeEvent::kCrash:
      return from != NodePhase::kCrashed;
    case NodeEvent::kSuspect:
    case NodeEvent::kLeave:
      return alive(node);
    case NodeEvent::kFence:
      return from == NodePhase::kActive;
    case NodeEvent::kUnfence:
      return from == NodePhase::kFenced;
    case NodeEvent::kRejoin:
      return from == NodePhase::kQuarantined &&
             quarantines(node) <= kMaxQuarantinesForRejoin;
    case NodeEvent::kJoin:
      return from == NodePhase::kInactive;
  }
  return false;
}

bool Membership::Apply(int node, NodeEvent event) {
  if (!Allows(node, event)) return false;
  // Every event has exactly one target phase; only its source is checked.
  static constexpr NodePhase kTarget[] = {
      NodePhase::kCrashed, NodePhase::kQuarantined, NodePhase::kFenced,
      NodePhase::kActive,  NodePhase::kActive,      NodePhase::kActive,
      NodePhase::kInactive};
  const NodePhase to = kTarget[size_t(event)];
  const bool now_alive = to == NodePhase::kActive || to == NodePhase::kFenced;
  if (event == NodeEvent::kSuspect) ++quarantines_[size_t(node)];
  live_ += int(now_alive) - int(alive(node));
  alive_[size_t(node)] = now_alive;
  phase_[size_t(node)] = to;
  return true;
}

}  // namespace slash::engines
