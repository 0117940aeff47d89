// SWIM-style gossip failure detection for the simulated STASH cluster.
//
// The paper's deployment (§VII) assumes every node can tell which peers
// are reachable — handoff targets, clique-replica holders, and DHT
// successors are all picked from "live" nodes.  PR 1 approximated that
// with a frontend-only suspicion circuit breaker: only the scatter/gather
// coordinator learned anything, only from its own timeouts, and a node
// behind a partition looked identical to a slow one.  This module replaces
// that with a real membership protocol in the SWIM family (Das et al.,
// DSN'02, as hardened by Hashicorp's memberlist):
//
//   * every observer (each node, plus the frontend) periodically pings one
//     random member; a missed direct ack escalates to `ping-req` through k
//     proxies before the target is *suspected*;
//   * a suspect that stays silent for a suspicion timeout is declared
//     *dead*; state changes piggyback on subsequent probe traffic and
//     spread epidemically;
//   * every member carries an *incarnation* number only it may bump.  A
//     member that learns it is suspected or declared dead refutes with a
//     higher incarnation, which overrides the stale rumor everywhere —
//     this is what lets a restarted or healed node rejoin (`announce`).
//
// All timers run as *background* events on the sim EventLoop: gossip
// interleaves deterministically with foreground work but never keeps
// `run()` alive, so run-to-quiescence tests are unaffected.  Transport is
// a callback the cluster wires through its normal message path — gossip
// traffic is subject to the same FaultInjector drops, partitions, and
// latency as queries, which is exactly why it detects them.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_loop.hpp"
#include "sim/fault.hpp"

namespace stash::cluster {

/// kLeft marks a slot that is not part of the cluster: either a standby
/// that has never joined, or a member that was decommissioned.  Unlike
/// kDead (a fault to rout around and probe for recovery), kLeft is an
/// *intentional* absence — left slots are never probed, and only an
/// explicit (re)join with a strictly higher incarnation brings one back.
enum class MemberState : std::uint8_t {
  kAlive = 0,
  kSuspect = 1,
  kDead = 2,
  kLeft = 3,
};

[[nodiscard]] const char* to_string(MemberState state) noexcept;

/// One observer's belief about one member.
struct MemberInfo {
  MemberState state = MemberState::kAlive;
  std::uint64_t incarnation = 0;
  sim::SimTime since = 0;  // when this belief was adopted
};

/// A disseminated state claim: "member `node` is `state` at `incarnation`".
struct MembershipUpdate {
  std::uint32_t node = 0;
  MemberState state = MemberState::kAlive;
  std::uint64_t incarnation = 0;
};

struct MembershipConfig {
  /// One probe per observer per interval (initial offsets are jittered so
  /// the fleet does not probe in lockstep).
  sim::SimTime probe_interval = 500 * sim::kMillisecond;
  /// Wait for a direct ack before escalating to ping-req; the indirect
  /// round gets the same again.
  sim::SimTime probe_timeout = 40 * sim::kMillisecond;
  /// Proxies asked to ping the target indirectly after a direct miss.
  int ping_req_fanout = 2;
  /// Suspect -> dead after this long without a refutation.
  sim::SimTime suspicion_timeout = 2 * sim::kSecond;
  /// Max piggybacked updates per gossip message.
  int piggyback_limit = 8;
  /// How many messages each accepted update rides before being retired.
  int update_retransmits = 6;
  /// Members contacted directly by `announce` (rejoin after restart/heal).
  int announce_fanout = 4;
  /// Every Nth tick an observer may probe members it believes dead, so a
  /// healed side rediscovers the other without an explicit announce.
  int dead_probe_every = 4;
  /// Base wire size of a gossip message (updates add 16 bytes each).
  std::size_t message_bytes = 48;
  std::uint64_t seed = 0x5357494dULL;  // "SWIM"
};

struct MembershipStats {
  std::uint64_t probes_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t ping_reqs_sent = 0;
  std::uint64_t suspicions = 0;
  std::uint64_t refutations = 0;       // self-defences with a bumped incarnation
  std::uint64_t false_suspicions = 0;  // suspect -> alive transitions observed
  std::uint64_t deaths_declared = 0;
  std::uint64_t updates_applied = 0;
  std::uint64_t announces = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
};

/// Gossip failure detector over `num_nodes` members, observed by each node
/// and by the frontend pseudo-node (which probes but is not itself a
/// member — it is always reachable by construction).
class GossipMembership {
 public:
  /// Sends `bytes` from observer address `from` to `to` (node ids, or
  /// sim::kFrontendNode) and runs `deliver` at the destination iff the
  /// message survives the network and the destination is up.  The cluster
  /// routes this through its normal (background) message path.
  using Transport = std::function<void(std::uint32_t from, std::uint32_t to,
                                       std::size_t bytes,
                                       std::function<void()> deliver)>;
  /// Is this process itself up?  Crashed observers skip their probe ticks.
  using Liveness = std::function<bool(std::uint32_t node)>;
  /// Observer `observer`'s view of `node` changed to `state`.
  using StateHandler = std::function<void(
      std::uint32_t observer, std::uint32_t node, MemberState state)>;

  /// `num_nodes` total addressable slots; slots >= `initial_members` start
  /// as kLeft standbys that can join() later (the default joins every
  /// slot, the historical fixed-size behavior).
  GossipMembership(MembershipConfig config, std::uint32_t num_nodes,
                   sim::EventLoop& loop, Transport transport,
                   Liveness liveness,
                   std::uint32_t initial_members = kAllSlots);

  static constexpr std::uint32_t kAllSlots = 0xFFFFFFFFu;

  void set_state_handler(StateHandler handler) {
    on_state_ = std::move(handler);
  }

  /// Schedules the first (jittered) probe tick for every observer.  Call
  /// once.
  void start();

  /// Rejoin: bump the node's incarnation, reassert it alive, and push the
  /// news to `announce_fanout` members directly.  Overrides any suspect or
  /// dead rumor about it at lower incarnations.
  void announce(std::uint32_t node);

  /// Membership join: registers a standby (or re-registers a decommissioned
  /// slot) and announces it with a bumped incarnation, which out-bids the
  /// kLeft record everywhere.
  void join(std::uint32_t node);

  /// Intentional departure: deregisters the slot, bumps its incarnation,
  /// and disseminates an explicit kLeft rumor — from the leaver itself and
  /// from the frontend (which drives decommissions), so a leaver that
  /// crashes mid-drain still converges to left, not merely dead.
  void leave(std::uint32_t node);

  /// Ground truth: is this slot currently a registered cluster member?
  /// (Pinned to the durable store in a real deployment, like incarnations.)
  [[nodiscard]] bool is_registered(std::uint32_t node) const {
    return node < num_nodes_ && registered_[node];
  }

  /// Forget everything observer `node` believed (its view is volatile
  /// state, wiped on crash).  Its own persisted incarnation survives.
  void reset_view(std::uint32_t node);

  /// Observer `observer`'s belief about `node` (ids; observer may be
  /// sim::kFrontendNode).
  [[nodiscard]] const MemberInfo& info(std::uint32_t observer,
                                       std::uint32_t node) const;
  [[nodiscard]] MemberState state(std::uint32_t observer,
                                  std::uint32_t node) const {
    return info(observer, node).state;
  }
  /// Should `observer` send work to `node` right now?
  [[nodiscard]] bool usable(std::uint32_t observer, std::uint32_t node) const {
    return state(observer, node) == MemberState::kAlive;
  }

  /// Applies one update to one observer's view (public for tests; the
  /// protocol calls this for every piggybacked update).  Returns true if
  /// the view changed.
  bool apply(std::uint32_t observer, const MembershipUpdate& update);

  [[nodiscard]] const MembershipStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const MembershipConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::uint64_t incarnation(std::uint32_t node) const {
    return incarnations_[node];
  }

 private:
  struct PendingUpdate {
    MembershipUpdate update;
    int remaining;
  };
  struct Probe {
    std::uint32_t target = 0;
    std::uint64_t seq = 0;
    bool acked = true;
  };

  [[nodiscard]] std::size_t index_of(std::uint32_t observer) const;
  [[nodiscard]] std::uint32_t address_of(std::size_t index) const {
    return index == num_nodes_ ? sim::kFrontendNode
                               : static_cast<std::uint32_t>(index);
  }
  [[nodiscard]] std::size_t wire_bytes(std::size_t updates) const {
    return config_.message_bytes + 16 * updates;
  }

  void tick(std::size_t obs);
  void send_ping(std::size_t obs, std::uint32_t target);
  void on_ping(std::size_t obs, std::uint32_t sender, std::uint64_t seq,
               std::vector<MembershipUpdate> updates,
               std::uint64_t sender_incarnation);
  void on_ack(std::size_t obs, std::uint32_t target, std::uint64_t seq,
              std::vector<MembershipUpdate> updates,
              std::uint64_t target_incarnation);
  void on_direct_timeout(std::size_t obs, std::uint64_t seq);
  void on_indirect_timeout(std::size_t obs, std::uint64_t seq);
  void on_ping_req(std::size_t obs, std::uint32_t origin, std::uint32_t target,
                   std::uint64_t seq);
  void suspect(std::size_t obs, std::uint32_t target);
  bool apply_at(std::size_t obs, const MembershipUpdate& update);

  /// Drains up to piggyback_limit updates from the observer's rumor queue.
  std::vector<MembershipUpdate> take_updates(std::size_t obs);
  void enqueue_update(std::size_t obs, const MembershipUpdate& update);
  void apply_all(std::size_t obs, const std::vector<MembershipUpdate>& updates);
  /// Direct evidence of life: a message physically arrived from `node`.
  void evidence_alive(std::size_t obs, std::uint32_t node,
                      std::uint64_t incarnation);

  MembershipConfig config_;
  std::uint32_t num_nodes_;
  sim::EventLoop& loop_;
  Transport transport_;
  Liveness liveness_;
  StateHandler on_state_;
  Rng rng_;
  MembershipStats stats_;

  /// views_[observer][member]; observer num_nodes_ is the frontend.
  std::vector<std::vector<MemberInfo>> views_;
  std::vector<std::deque<PendingUpdate>> rumors_;
  std::vector<Probe> probes_;
  std::vector<std::uint64_t> tick_counts_;
  /// Per-member incarnation.  Survives reset_view: real deployments pin it
  /// to the durable store the Galileo blocks live on, so a cold restart
  /// can still out-bid the rumors of its own death.
  std::vector<std::uint64_t> incarnations_;
  /// Ground-truth membership ledger (survives reset_view, like
  /// incarnations_): true iff the slot is currently joined.
  std::vector<bool> registered_;
  /// Set by leave(): suppresses the self-refutation path so a leaver does
  /// not out-bid its own departure rumor.  Cleared by join()/announce.
  std::vector<bool> wants_left_;
  std::uint64_t next_seq_ = 0;
  bool started_ = false;
};

}  // namespace stash::cluster
