// The node-lifecycle table of one Slash job (DESIGN.md §10, §13.2): one
// phase per provisioned node and the one transition function that moves
// it. Crash, quarantine, fence, rejoin, join and leave are all events on
// this table; the engine reacts to a transition that happened (tear down,
// roll back, rebuild), the table only decides whether it may happen.
//
// Pure bookkeeping: no clock, no fabric, no health or elastic dependency,
// so the whole table is testable without a DES (tests/membership_test.cc).
#ifndef SLASH_ENGINES_MEMBERSHIP_H_
#define SLASH_ENGINES_MEMBERSHIP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace slash::engines {

enum class NodePhase : uint8_t {
  kInactive,     // provisioned, not a member: not yet joined, or left
  kActive,       // a member running its share of the job
  kFenced,       // a member that lost majority contact: parked, emits nothing
  kQuarantined,  // accused by the majority and excluded; may rejoin
  kCrashed,      // dead for good
};

// The transitions, in Apply's target-table order.
enum class NodeEvent : uint8_t {
  kCrash,    // any phase but kCrashed -> kCrashed
  kSuspect,  // kActive | kFenced -> kQuarantined (counts a quarantine)
  kFence,    // kActive -> kFenced
  kUnfence,  // kFenced -> kActive
  kRejoin,   // kQuarantined -> kActive, unless the node flaps
  kJoin,     // kInactive -> kActive
  kLeave,    // kActive | kFenced -> kInactive
};

class Membership {
 public:
  // A node quarantined more than this many times stays out for good: a
  // flapping link (e.g. a permanent one-way drop) would otherwise cycle
  // quarantine -> rejoin -> quarantine forever. Survivors carry its load.
  static constexpr uint32_t kMaxQuarantinesForRejoin = 2;

  /// `nodes` provisioned nodes; the first `active` start as members, the
  /// rest kInactive.
  Membership(int nodes, int active);

  /// True when `event` would move `node` out of its current phase.
  bool Allows(int node, NodeEvent event) const;

  /// The only writer of node phase: applies `event` to `node` and returns
  /// whether the transition happened (false leaves the table unchanged).
  bool Apply(int node, NodeEvent event);

  NodePhase phase(int node) const { return phase_[size_t(node)]; }
  bool fenced(int node) const { return phase(node) == NodePhase::kFenced; }
  /// Active or fenced: the node belongs to the attempt being run.
  bool alive(int node) const { return alive_[size_t(node)]; }
  int live_count() const { return live_; }
  uint32_t quarantines(int node) const { return quarantines_[size_t(node)]; }

  /// alive(n) for every node, in the form LatestRecoverableRound, Heir
  /// and the Rebalancer take.
  const std::vector<bool>& alive_mask() const { return alive_; }

 private:
  std::vector<NodePhase> phase_;
  std::vector<uint32_t> quarantines_;
  std::vector<bool> alive_;  // derived from phase_
  int live_ = 0;
};

}  // namespace slash::engines

#endif  // SLASH_ENGINES_MEMBERSHIP_H_
