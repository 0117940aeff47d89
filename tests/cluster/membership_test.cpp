// GossipMembership unit tests: SWIM probe/ack/ping-req mechanics against a
// fake transport, incarnation precedence rules, refutation, partition
// split-brain views, and convergence after heal — all deterministic on the
// sim EventLoop.

#include "cluster/membership.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "sim/fault.hpp"

namespace stash::cluster {
namespace {

using sim::kFrontendNode;
using sim::kMillisecond;
using sim::kSecond;

/// Fast-converging config for tests (defaults are tuned for cluster runs).
MembershipConfig test_config() {
  MembershipConfig config;
  config.probe_interval = 50 * kMillisecond;
  config.probe_timeout = 5 * kMillisecond;
  config.suspicion_timeout = 100 * kMillisecond;
  return config;
}

/// Membership over a flat-latency transport with FaultInjector semantics:
/// drops and partitions apply per message, crashed destinations eat
/// deliveries.
struct Harness {
  sim::EventLoop loop;
  sim::FaultInjector fault;
  std::unique_ptr<GossipMembership> membership;

  explicit Harness(MembershipConfig config, std::uint32_t nodes,
                   sim::FaultPlan plan = {},
                   std::uint32_t initial_members = GossipMembership::kAllSlots)
      : fault(std::move(plan), nodes) {
    fault.arm(loop);
    membership = std::make_unique<GossipMembership>(
        config, nodes, loop,
        [this](std::uint32_t from, std::uint32_t to, std::size_t,
               std::function<void()> deliver) {
          if (fault.should_drop(from, to)) return;
          const sim::SimTime delay = 200 + fault.extra_latency(from, to);
          loop.schedule_background(delay,
                                   [this, to, fn = std::move(deliver)] {
                                     if (fault.alive(to)) fn();
                                   });
        },
        [this](std::uint32_t id) { return fault.alive(id); },
        initial_members);
    membership->start();
  }

  /// How many (observer, member) pairs currently believe `state`.
  int count(std::uint32_t nodes, MemberState state) const {
    int total = 0;
    for (std::uint32_t obs = 0; obs <= nodes; ++obs) {
      const std::uint32_t id = obs == nodes ? kFrontendNode : obs;
      for (std::uint32_t m = 0; m < nodes; ++m)
        if (membership->state(id, m) == state) ++total;
    }
    return total;
  }

  std::string fingerprint(std::uint32_t nodes) const {
    std::ostringstream out;
    for (std::uint32_t obs = 0; obs <= nodes; ++obs) {
      const std::uint32_t id = obs == nodes ? kFrontendNode : obs;
      for (std::uint32_t m = 0; m < nodes; ++m) {
        const MemberInfo& v = membership->info(id, m);
        out << to_string(v.state) << '@' << v.incarnation << ';';
      }
    }
    out << membership->stats().probes_sent << '/'
        << membership->stats().updates_applied;
    return out.str();
  }
};

TEST(MembershipTest, HealthyClusterStaysAllAliveWithNoFalseSuspicions) {
  Harness h(test_config(), 8);
  h.loop.run_for(5 * kSecond);
  EXPECT_EQ(h.count(8, MemberState::kAlive), 9 * 8);
  EXPECT_GT(h.membership->stats().probes_sent, 100u);
  EXPECT_GT(h.membership->stats().acks_received, 100u);
  EXPECT_EQ(h.membership->stats().suspicions, 0u);
  EXPECT_EQ(h.membership->stats().false_suspicions, 0u);
  EXPECT_EQ(h.membership->stats().deaths_declared, 0u);
}

TEST(MembershipTest, CrashedNodeIsDeclaredDeadInEveryView) {
  Harness h(test_config(), 8);
  h.fault.force_crash(3);
  h.loop.run_for(3 * kSecond);
  for (std::uint32_t obs = 0; obs < 8; ++obs) {
    if (obs == 3) continue;  // the corpse's own view is moot
    EXPECT_EQ(h.membership->state(obs, 3), MemberState::kDead)
        << "observer " << obs;
  }
  EXPECT_EQ(h.membership->state(kFrontendNode, 3), MemberState::kDead);
  EXPECT_FALSE(h.membership->usable(kFrontendNode, 3));
  EXPECT_GT(h.membership->stats().suspicions, 0u);
  EXPECT_GT(h.membership->stats().deaths_declared, 0u);
}

TEST(MembershipTest, RestartWithAnnounceResurrectsEverywhere) {
  Harness h(test_config(), 8);
  h.fault.force_crash(3);
  h.loop.run_for(3 * kSecond);
  ASSERT_EQ(h.membership->state(0, 3), MemberState::kDead);

  h.fault.force_restart(3);
  h.membership->reset_view(3);
  h.membership->announce(3);
  h.loop.run_for(3 * kSecond);
  EXPECT_EQ(h.count(8, MemberState::kAlive), 9 * 8);
  // The rejoin rode a bumped incarnation past the death rumor.
  EXPECT_GE(h.membership->info(0, 3).incarnation, 1u);
  EXPECT_GT(h.membership->stats().announces, 0u);
}

TEST(MembershipTest, TransientIsolationIsSuspectedThenRefuted) {
  // Sever node 2 for 300ms with a generous suspicion timeout: peers
  // suspect it but it refutes with a bumped incarnation after the heal.
  MembershipConfig config = test_config();
  config.suspicion_timeout = 10 * kSecond;  // never escalates to dead
  sim::FaultPlan plan;
  plan.partitions.push_back(
      {.groups = {{2}, {0, 1, 3, 4, 5, kFrontendNode}},
       .at = 0,
       .heal_at = 300 * kMillisecond});
  Harness h(config, 6, plan);
  h.loop.run_for(300 * kMillisecond);
  EXPECT_GT(h.membership->stats().suspicions, 0u);
  h.loop.run_for(5 * kSecond);
  EXPECT_EQ(h.count(6, MemberState::kAlive), 7 * 6);
  EXPECT_GT(h.membership->stats().refutations, 0u);
  EXPECT_GT(h.membership->stats().false_suspicions, 0u);
  EXPECT_EQ(h.membership->stats().deaths_declared, 0u);
}

TEST(MembershipTest, PartitionSplitsViewsThenConvergesAfterHeal) {
  // Two-way split long enough for both sides to declare the other dead;
  // after the heal the dead-probe path resurrects everyone without any
  // explicit announce.
  sim::FaultPlan plan;
  plan.partitions.push_back({.groups = {{0, 1, 2, kFrontendNode}, {3, 4, 5}},
                             .at = 0,
                             .heal_at = 2 * kSecond});
  Harness h(test_config(), 6, plan);
  h.loop.run_for(2 * kSecond);
  // Majority side (with the frontend) has declared the minority dead.
  EXPECT_EQ(h.membership->state(0, 4), MemberState::kDead);
  EXPECT_EQ(h.membership->state(kFrontendNode, 4), MemberState::kDead);
  EXPECT_EQ(h.membership->state(4, 0), MemberState::kDead);
  // Same side stays alive throughout.
  EXPECT_EQ(h.membership->state(0, 1), MemberState::kAlive);
  EXPECT_EQ(h.membership->state(4, 5), MemberState::kAlive);

  h.loop.run_for(20 * kSecond);
  EXPECT_EQ(h.count(6, MemberState::kAlive), 7 * 6);
}

TEST(MembershipTest, IncarnationPrecedenceRules) {
  Harness h(test_config(), 4);

  // suspect@0 beats alive@0; alive@0 cannot take it back; alive@1 can.
  EXPECT_TRUE(h.membership->apply(0, {2, MemberState::kSuspect, 0}));
  EXPECT_EQ(h.membership->state(0, 2), MemberState::kSuspect);
  EXPECT_FALSE(h.membership->apply(0, {2, MemberState::kAlive, 0}));
  EXPECT_TRUE(h.membership->apply(0, {2, MemberState::kAlive, 1}));
  EXPECT_EQ(h.membership->state(0, 2), MemberState::kAlive);
  EXPECT_EQ(h.membership->stats().false_suspicions, 1u);

  // dead@1 wins the tie against alive@1 and suspect@1; only alive@2 returns.
  EXPECT_TRUE(h.membership->apply(0, {2, MemberState::kDead, 1}));
  EXPECT_FALSE(h.membership->apply(0, {2, MemberState::kAlive, 1}));
  EXPECT_FALSE(h.membership->apply(0, {2, MemberState::kSuspect, 1}));
  EXPECT_EQ(h.membership->state(0, 2), MemberState::kDead);
  EXPECT_TRUE(h.membership->apply(0, {2, MemberState::kAlive, 2}));
  EXPECT_EQ(h.membership->state(0, 2), MemberState::kAlive);
}

TEST(MembershipTest, SelfRumorsAreRefutedNotAccepted) {
  Harness h(test_config(), 4);
  const std::uint64_t before = h.membership->incarnation(1);
  // Node 1 hears it is suspected at its own incarnation: it must stay
  // alive in its own view and out-bid the rumor.
  EXPECT_TRUE(h.membership->apply(1, {1, MemberState::kSuspect, before}));
  EXPECT_EQ(h.membership->state(1, 1), MemberState::kAlive);
  EXPECT_EQ(h.membership->incarnation(1), before + 1);
  EXPECT_GT(h.membership->stats().refutations, 0u);
  // A stale rumor below the current incarnation is ignored outright.
  EXPECT_FALSE(h.membership->apply(1, {1, MemberState::kDead, before}));
  EXPECT_EQ(h.membership->state(1, 1), MemberState::kAlive);
}

TEST(MembershipTest, SameSeedSameScriptIsBitIdentical) {
  sim::FaultPlan plan;
  plan.partitions.push_back(
      {.groups = {{0, 1}, {2, 3}}, .at = 100 * kMillisecond,
       .heal_at = 900 * kMillisecond});
  plan.crashes.push_back({.node = 1, .at = 200 * kMillisecond,
                          .restart_at = 600 * kMillisecond});
  Harness a(test_config(), 4, plan);
  Harness b(test_config(), 4, plan);
  a.loop.run_for(5 * kSecond);
  b.loop.run_for(5 * kSecond);
  EXPECT_EQ(a.fingerprint(4), b.fingerprint(4));
  EXPECT_EQ(a.loop.executed(), b.loop.executed());
}

TEST(MembershipTest, StandbySlotsStartLeftAndJoinAdmitsThem) {
  // 6 slots, 4 initial members: slots 4 and 5 are standbys — kLeft in
  // every view, never probed, not registered.
  Harness h(test_config(), 6, {}, /*initial_members=*/4);
  h.loop.run_for(2 * kSecond);
  for (std::uint32_t obs = 0; obs < 4; ++obs) {
    EXPECT_EQ(h.membership->state(obs, 4), MemberState::kLeft);
    EXPECT_EQ(h.membership->state(obs, 5), MemberState::kLeft);
  }
  EXPECT_FALSE(h.membership->is_registered(4));
  EXPECT_FALSE(h.membership->usable(kFrontendNode, 4));
  EXPECT_EQ(h.membership->stats().suspicions, 0u);  // nobody probed a standby

  h.membership->join(4);
  h.loop.run_for(3 * kSecond);
  EXPECT_TRUE(h.membership->is_registered(4));
  for (std::uint32_t obs = 0; obs < 4; ++obs)
    EXPECT_EQ(h.membership->state(obs, 4), MemberState::kAlive)
        << "observer " << obs;
  EXPECT_EQ(h.membership->state(kFrontendNode, 4), MemberState::kAlive);
  EXPECT_EQ(h.membership->state(0, 5), MemberState::kLeft);  // still standby
  EXPECT_EQ(h.membership->stats().joins, 1u);
}

TEST(MembershipTest, LeaveConvergesToLeftEverywhereAndStops) {
  Harness h(test_config(), 6);
  h.loop.run_for(1 * kSecond);
  h.membership->leave(3);
  h.loop.run_for(4 * kSecond);
  EXPECT_FALSE(h.membership->is_registered(3));
  for (std::uint32_t obs = 0; obs < 6; ++obs) {
    if (obs == 3) continue;
    EXPECT_EQ(h.membership->state(obs, 3), MemberState::kLeft)
        << "observer " << obs;
  }
  EXPECT_EQ(h.membership->state(kFrontendNode, 3), MemberState::kLeft);
  EXPECT_FALSE(h.membership->usable(0, 3));
  EXPECT_EQ(h.membership->stats().leaves, 1u);
  // Intentional absence is not a fault: no death was ever declared.
  EXPECT_EQ(h.membership->stats().deaths_declared, 0u);
}

TEST(MembershipTest, LeftPrecedenceRules) {
  Harness h(test_config(), 4);
  const std::uint64_t inc = h.membership->incarnation(2);
  EXPECT_TRUE(h.membership->apply(0, {2, MemberState::kLeft, inc}));
  EXPECT_EQ(h.membership->state(0, 2), MemberState::kLeft);
  // dead at the same incarnation must NOT override left: a decommissioned
  // node that later misses probes stays "left", not "dead" (otherwise the
  // two rumors flap forever).
  EXPECT_FALSE(h.membership->apply(0, {2, MemberState::kDead, inc}));
  EXPECT_EQ(h.membership->state(0, 2), MemberState::kLeft);
  // alive at the same incarnation cannot take it back either...
  EXPECT_FALSE(h.membership->apply(0, {2, MemberState::kAlive, inc}));
  EXPECT_EQ(h.membership->state(0, 2), MemberState::kLeft);
  // ...only a strictly higher incarnation (an explicit rejoin) can.
  EXPECT_TRUE(h.membership->apply(0, {2, MemberState::kAlive, inc + 1}));
  EXPECT_EQ(h.membership->state(0, 2), MemberState::kAlive);
}

TEST(MembershipTest, LeaverCrashingMidDrainStillConvergesToLeft) {
  // A decommissioned node that dies before the rumor finishes spreading
  // must still end as kLeft everywhere: the frontend re-disseminates the
  // departure, and dead cannot out-bid left at the same incarnation.
  Harness h(test_config(), 6);
  h.loop.run_for(1 * kSecond);
  h.membership->leave(2);
  h.fault.force_crash(2);
  h.loop.run_for(6 * kSecond);
  for (std::uint32_t obs = 0; obs < 6; ++obs) {
    if (obs == 2) continue;
    EXPECT_EQ(h.membership->state(obs, 2), MemberState::kLeft)
        << "observer " << obs;
  }
  EXPECT_EQ(h.membership->state(kFrontendNode, 2), MemberState::kLeft);
}

TEST(MembershipTest, RejoinAfterLeaveRidesAHigherIncarnation) {
  Harness h(test_config(), 6);
  h.loop.run_for(1 * kSecond);
  h.membership->leave(4);
  h.loop.run_for(3 * kSecond);
  ASSERT_EQ(h.membership->state(0, 4), MemberState::kLeft);
  const std::uint64_t inc_at_leave = h.membership->incarnation(4);

  h.membership->join(4);
  h.loop.run_for(3 * kSecond);
  EXPECT_TRUE(h.membership->is_registered(4));
  EXPECT_GT(h.membership->incarnation(4), inc_at_leave);
  for (std::uint32_t obs = 0; obs < 6; ++obs)
    EXPECT_EQ(h.membership->state(obs, 4), MemberState::kAlive)
        << "observer " << obs;
}

TEST(MembershipTest, ConfigValidation) {
  sim::EventLoop loop;
  const auto noop_transport = [](std::uint32_t, std::uint32_t, std::size_t,
                                 std::function<void()>) {};
  const auto always_up = [](std::uint32_t) { return true; };
  MembershipConfig bad = test_config();
  bad.probe_interval = 0;
  EXPECT_THROW(GossipMembership(bad, 4, loop, noop_transport, always_up),
               std::invalid_argument);
  bad = test_config();
  bad.ping_req_fanout = -1;
  EXPECT_THROW(GossipMembership(bad, 4, loop, noop_transport, always_up),
               std::invalid_argument);
  EXPECT_THROW(GossipMembership(test_config(), 0, loop, noop_transport,
                                always_up),
               std::invalid_argument);
  GossipMembership ok(test_config(), 4, loop, noop_transport, always_up);
  EXPECT_THROW((void)ok.info(0, 9), std::invalid_argument);
  EXPECT_THROW((void)ok.info(7, 0), std::invalid_argument);
}

}  // namespace
}  // namespace stash::cluster
