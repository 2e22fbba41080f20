// The Slash node-lifecycle table (engines/membership.h), tested without a
// DES: every (phase, event) pair against the expected transition, flap
// suppression, crash as a terminal phase from everywhere, joins entering
// kActive, and the derived live count and alive mask.
#include "engines/membership.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

namespace slash::engines {
namespace {

constexpr NodePhase kPhases[] = {NodePhase::kInactive, NodePhase::kActive,
                                 NodePhase::kFenced, NodePhase::kQuarantined,
                                 NodePhase::kCrashed};
constexpr NodeEvent kEvents[] = {NodeEvent::kCrash,   NodeEvent::kSuspect,
                                 NodeEvent::kFence,   NodeEvent::kUnfence,
                                 NodeEvent::kRejoin,  NodeEvent::kJoin,
                                 NodeEvent::kLeave};

bool IsAlive(NodePhase phase) {
  return phase == NodePhase::kActive || phase == NodePhase::kFenced;
}

/// A one-node table whose node 0 sits in `phase`, reached through Apply.
Membership InPhase(NodePhase phase) {
  Membership m(1, phase == NodePhase::kInactive ? 0 : 1);
  switch (phase) {
    case NodePhase::kFenced:
      EXPECT_TRUE(m.Apply(0, NodeEvent::kFence));
      break;
    case NodePhase::kQuarantined:
      EXPECT_TRUE(m.Apply(0, NodeEvent::kSuspect));
      break;
    case NodePhase::kCrashed:
      EXPECT_TRUE(m.Apply(0, NodeEvent::kCrash));
      break;
    default:
      break;
  }
  EXPECT_EQ(m.phase(0), phase);
  return m;
}

/// The transition table: where `event` takes a node in `from`, or nullopt
/// when the event is refused there.
std::optional<NodePhase> Expected(NodePhase from, NodeEvent event) {
  using P = NodePhase;
  switch (event) {
    case NodeEvent::kCrash:
      if (from == P::kCrashed) return std::nullopt;
      return P::kCrashed;
    case NodeEvent::kSuspect:
      if (!IsAlive(from)) return std::nullopt;
      return P::kQuarantined;
    case NodeEvent::kFence:
      if (from != P::kActive) return std::nullopt;
      return P::kFenced;
    case NodeEvent::kUnfence:
      if (from != P::kFenced) return std::nullopt;
      return P::kActive;
    case NodeEvent::kRejoin:
      if (from != P::kQuarantined) return std::nullopt;
      return P::kActive;
    case NodeEvent::kJoin:
      if (from != P::kInactive) return std::nullopt;
      return P::kActive;
    case NodeEvent::kLeave:
      if (!IsAlive(from)) return std::nullopt;
      return P::kInactive;
  }
  return std::nullopt;
}

TEST(MembershipTest, EveryPhaseEventPairFollowsTheTable) {
  for (const NodePhase from : kPhases) {
    for (const NodeEvent event : kEvents) {
      SCOPED_TRACE(::testing::Message() << "phase " << int(from) << " event "
                                        << int(event));
      Membership m = InPhase(from);
      const std::optional<NodePhase> to = Expected(from, event);
      EXPECT_EQ(m.Allows(0, event), to.has_value());
      EXPECT_EQ(m.Apply(0, event), to.has_value());
      const NodePhase now = to.value_or(from);
      EXPECT_EQ(m.phase(0), now);
      EXPECT_EQ(m.alive(0), IsAlive(now));
      EXPECT_EQ(m.fenced(0), now == NodePhase::kFenced);
      EXPECT_EQ(m.live_count(), IsAlive(now) ? 1 : 0);
      EXPECT_EQ(m.alive_mask(), std::vector<bool>{IsAlive(now)});
    }
  }
}

TEST(MembershipTest, CrashIsTerminalFromEveryPhase) {
  for (const NodePhase from : kPhases) {
    Membership m = InPhase(from);
    EXPECT_EQ(m.Apply(0, NodeEvent::kCrash), from != NodePhase::kCrashed);
    for (const NodeEvent event : kEvents) {
      EXPECT_FALSE(m.Apply(0, event)) << "event " << int(event);
      EXPECT_EQ(m.phase(0), NodePhase::kCrashed);
    }
    EXPECT_FALSE(m.alive(0));
  }
}

TEST(MembershipTest, ThirdQuarantineRefusesTheRejoin) {
  Membership m(2, 2);
  for (uint32_t q = 1; q <= Membership::kMaxQuarantinesForRejoin; ++q) {
    ASSERT_TRUE(m.Apply(1, NodeEvent::kSuspect));
    EXPECT_EQ(m.quarantines(1), q);
    EXPECT_TRUE(m.Apply(1, NodeEvent::kRejoin)) << "quarantine " << q;
    EXPECT_EQ(m.phase(1), NodePhase::kActive);
  }
  ASSERT_TRUE(m.Apply(1, NodeEvent::kSuspect));
  EXPECT_EQ(m.quarantines(1), Membership::kMaxQuarantinesForRejoin + 1);
  EXPECT_FALSE(m.Allows(1, NodeEvent::kRejoin));
  EXPECT_FALSE(m.Apply(1, NodeEvent::kRejoin));
  EXPECT_EQ(m.phase(1), NodePhase::kQuarantined);
  EXPECT_EQ(m.live_count(), 1);
}

TEST(MembershipTest, QuarantinesCountFromFencedToo) {
  Membership m(1, 1);
  ASSERT_TRUE(m.Apply(0, NodeEvent::kFence));
  ASSERT_TRUE(m.Apply(0, NodeEvent::kSuspect));
  EXPECT_EQ(m.quarantines(0), 1u);
  // The monitor's fence bit is its own: a quarantined node ignores fence
  // changes and rejoins straight into kActive.
  EXPECT_FALSE(m.Apply(0, NodeEvent::kUnfence));
  EXPECT_FALSE(m.Apply(0, NodeEvent::kFence));
  ASSERT_TRUE(m.Apply(0, NodeEvent::kRejoin));
  EXPECT_EQ(m.phase(0), NodePhase::kActive);
}

TEST(MembershipTest, JoinAlwaysEntersActive) {
  // Never a member before.
  Membership fresh(1, 0);
  ASSERT_TRUE(fresh.Apply(0, NodeEvent::kJoin));
  EXPECT_EQ(fresh.phase(0), NodePhase::kActive);
  // Left while fenced: the fence does not survive the leave.
  Membership left(1, 1);
  ASSERT_TRUE(left.Apply(0, NodeEvent::kFence));
  ASSERT_TRUE(left.Apply(0, NodeEvent::kLeave));
  EXPECT_EQ(left.phase(0), NodePhase::kInactive);
  ASSERT_TRUE(left.Apply(0, NodeEvent::kJoin));
  EXPECT_EQ(left.phase(0), NodePhase::kActive);
  EXPECT_FALSE(left.fenced(0));
}

TEST(MembershipTest, InitialMembersAndLiveCountTrackEveryTransition) {
  Membership m(4, 2);
  EXPECT_EQ(m.alive_mask(), (std::vector<bool>{true, true, false, false}));
  EXPECT_EQ(m.live_count(), 2);
  ASSERT_TRUE(m.Apply(2, NodeEvent::kJoin));
  ASSERT_TRUE(m.Apply(0, NodeEvent::kFence));  // fenced still counts
  EXPECT_EQ(m.live_count(), 3);
  ASSERT_TRUE(m.Apply(1, NodeEvent::kSuspect));
  ASSERT_TRUE(m.Apply(3, NodeEvent::kCrash));  // never joined: no change
  EXPECT_EQ(m.live_count(), 2);
  ASSERT_TRUE(m.Apply(0, NodeEvent::kLeave));
  EXPECT_EQ(m.alive_mask(), (std::vector<bool>{false, false, true, false}));
  EXPECT_EQ(m.live_count(), 1);
  ASSERT_TRUE(m.Apply(1, NodeEvent::kRejoin));
  EXPECT_EQ(m.live_count(), 2);
}

}  // namespace
}  // namespace slash::engines
