#include "cluster/membership.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace stash::cluster {

const char* to_string(MemberState state) noexcept {
  switch (state) {
    case MemberState::kAlive: return "alive";
    case MemberState::kSuspect: return "suspect";
    case MemberState::kDead: return "dead";
    case MemberState::kLeft: return "left";
  }
  return "?";
}

GossipMembership::GossipMembership(MembershipConfig config,
                                   std::uint32_t num_nodes,
                                   sim::EventLoop& loop, Transport transport,
                                   Liveness liveness,
                                   std::uint32_t initial_members)
    : config_(config),
      num_nodes_(num_nodes),
      loop_(loop),
      transport_(std::move(transport)),
      liveness_(std::move(liveness)),
      rng_(config.seed),
      views_(num_nodes + 1, std::vector<MemberInfo>(num_nodes)),
      rumors_(num_nodes + 1),
      probes_(num_nodes + 1),
      tick_counts_(num_nodes + 1, 0),
      incarnations_(num_nodes, 0),
      registered_(num_nodes, true),
      wants_left_(num_nodes, false) {
  if (num_nodes == 0)
    throw std::invalid_argument("GossipMembership: empty cluster");
  if (config_.probe_interval <= 0 || config_.probe_timeout <= 0 ||
      config_.suspicion_timeout <= 0)
    throw std::invalid_argument("GossipMembership: timers must be positive");
  if (config_.ping_req_fanout < 0 || config_.piggyback_limit < 0 ||
      config_.update_retransmits < 1 || config_.announce_fanout < 0)
    throw std::invalid_argument("GossipMembership: negative fan-out/limit");
  if (initial_members != kAllSlots) {
    if (initial_members == 0 || initial_members > num_nodes)
      throw std::invalid_argument("GossipMembership: bad initial member count");
    // Slots beyond the initial membership are standbys: kLeft in every
    // view from the start, waiting for an explicit join().
    for (std::uint32_t s = initial_members; s < num_nodes_; ++s) {
      registered_[s] = false;
      for (auto& view : views_) view[s] = MemberInfo{MemberState::kLeft, 0, 0};
    }
  }
}

std::size_t GossipMembership::index_of(std::uint32_t observer) const {
  if (observer == sim::kFrontendNode) return num_nodes_;
  if (observer >= num_nodes_)
    throw std::invalid_argument("GossipMembership: unknown observer");
  return observer;
}

const MemberInfo& GossipMembership::info(std::uint32_t observer,
                                         std::uint32_t node) const {
  if (node >= num_nodes_)
    throw std::invalid_argument("GossipMembership: unknown member");
  return views_[index_of(observer)][node];
}

void GossipMembership::start() {
  if (started_) return;
  started_ = true;
  for (std::size_t obs = 0; obs <= num_nodes_; ++obs) {
    const auto offset = static_cast<sim::SimTime>(
        1 + rng_.next_below(static_cast<std::uint64_t>(config_.probe_interval)));
    loop_.schedule_background(offset, [this, obs] { tick(obs); });
  }
}

void GossipMembership::tick(std::size_t obs) {
  loop_.schedule_background(config_.probe_interval, [this, obs] { tick(obs); });
  if (!liveness_(address_of(obs))) return;  // crashed: keep idling
  if (obs < num_nodes_ && !registered_[obs]) return;  // standby/left: no probing
  ++tick_counts_[obs];

  std::vector<std::uint32_t> live, dead;
  for (std::uint32_t m = 0; m < num_nodes_; ++m) {
    if (obs < num_nodes_ && m == obs) continue;
    if (views_[obs][m].state == MemberState::kLeft) continue;  // not a member
    (views_[obs][m].state == MemberState::kDead ? dead : live).push_back(m);
  }
  // Mostly probe members believed up; every Nth round reach for a member
  // believed dead instead, so a healed partition heals the *views* too —
  // the probe tells the target it is considered dead, and its bumped
  // incarnation refutes the rumor (see send_ping).
  const bool reach_for_dead =
      config_.dead_probe_every > 0 && !dead.empty() &&
      (live.empty() ||
       tick_counts_[obs] % static_cast<std::uint64_t>(config_.dead_probe_every) == 0);
  const auto& pool = reach_for_dead ? dead : live;
  if (pool.empty()) return;
  send_ping(obs, pool[rng_.next_below(pool.size())]);
}

void GossipMembership::send_ping(std::size_t obs, std::uint32_t target) {
  ++stats_.probes_sent;
  const std::uint64_t seq = ++next_seq_;
  probes_[obs] = Probe{target, seq, /*acked=*/false};
  auto updates = take_updates(obs);
  // Always tell a non-alive-believed target what we think of it: that is
  // the trigger for its refutation.
  const MemberInfo& belief = views_[obs][target];
  if (belief.state != MemberState::kAlive)
    updates.push_back({target, belief.state, belief.incarnation});
  const std::uint64_t self_inc = obs < num_nodes_ ? incarnations_[obs] : 0;
  transport_(address_of(obs), target, wire_bytes(updates.size()),
             [this, sender = address_of(obs), tobs = std::size_t{target}, seq,
              updates = std::move(updates), self_inc] {
               on_ping(tobs, sender, seq, updates, self_inc);
             });
  loop_.schedule_background(config_.probe_timeout,
                            [this, obs, seq] { on_direct_timeout(obs, seq); });
}

void GossipMembership::on_ping(std::size_t obs, std::uint32_t sender,
                               std::uint64_t seq,
                               std::vector<MembershipUpdate> updates,
                               std::uint64_t sender_incarnation) {
  apply_all(obs, updates);
  evidence_alive(obs, sender, sender_incarnation);
  auto reply = take_updates(obs);
  if (obs < num_nodes_ && registered_[obs])  // self-assertion rides every ack
    reply.push_back({static_cast<std::uint32_t>(obs), MemberState::kAlive,
                     incarnations_[obs]});
  const std::uint64_t self_inc = obs < num_nodes_ ? incarnations_[obs] : 0;
  transport_(address_of(obs), sender, wire_bytes(reply.size()),
             [this, origin = index_of(sender), responder = address_of(obs), seq,
              reply = std::move(reply), self_inc] {
               on_ack(origin, responder, seq, reply, self_inc);
             });
}

void GossipMembership::on_ack(std::size_t obs, std::uint32_t target,
                              std::uint64_t seq,
                              std::vector<MembershipUpdate> updates,
                              std::uint64_t target_incarnation) {
  apply_all(obs, updates);
  evidence_alive(obs, target, target_incarnation);
  Probe& probe = probes_[obs];
  if (probe.seq == seq && !probe.acked) {
    probe.acked = true;
    ++stats_.acks_received;
  }
}

void GossipMembership::on_direct_timeout(std::size_t obs, std::uint64_t seq) {
  const Probe& probe = probes_[obs];
  if (probe.seq != seq || probe.acked) return;
  if (!liveness_(address_of(obs))) return;
  const std::uint32_t target = probe.target;
  // Indirect round: ask k live proxies to ping the target for us, so one
  // lossy or slow link does not condemn a healthy node.
  std::vector<std::uint32_t> pool;
  for (std::uint32_t m = 0; m < num_nodes_; ++m) {
    if ((obs < num_nodes_ && m == obs) || m == target) continue;
    if (views_[obs][m].state == MemberState::kAlive) pool.push_back(m);
  }
  for (int k = 0; k < config_.ping_req_fanout && !pool.empty(); ++k) {
    const std::size_t pick = rng_.next_below(pool.size());
    const std::uint32_t proxy = pool[pick];
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    ++stats_.ping_reqs_sent;
    transport_(address_of(obs), proxy, wire_bytes(0),
               [this, pobs = std::size_t{proxy}, origin = address_of(obs),
                target, seq] { on_ping_req(pobs, origin, target, seq); });
  }
  loop_.schedule_background(2 * config_.probe_timeout, [this, obs, seq] {
    on_indirect_timeout(obs, seq);
  });
}

void GossipMembership::on_ping_req(std::size_t obs, std::uint32_t origin,
                                   std::uint32_t target, std::uint64_t seq) {
  // Relay ping: the target's ack flows back through us to the origin.
  transport_(
      address_of(obs), target, wire_bytes(0),
      [this, proxy = address_of(obs), origin, target, seq] {
        const std::uint64_t target_inc = incarnations_[target];
        transport_(
            target, proxy, wire_bytes(1),
            [this, proxy, origin, target, seq, target_inc] {
              evidence_alive(index_of(proxy), target, target_inc);
              transport_(proxy, origin, wire_bytes(1),
                         [this, origin, target, seq, target_inc] {
                           on_ack(index_of(origin), target, seq, {},
                                  target_inc);
                         });
            });
      });
}

void GossipMembership::on_indirect_timeout(std::size_t obs, std::uint64_t seq) {
  const Probe& probe = probes_[obs];
  if (probe.seq != seq || probe.acked) return;
  if (!liveness_(address_of(obs))) return;
  suspect(obs, probe.target);
}

void GossipMembership::suspect(std::size_t obs, std::uint32_t target) {
  const MemberInfo& cur = views_[obs][target];
  if (cur.state != MemberState::kAlive) return;
  ++stats_.suspicions;
  apply_at(obs, {target, MemberState::kSuspect, cur.incarnation});
}

bool GossipMembership::apply(std::uint32_t observer,
                             const MembershipUpdate& update) {
  return apply_at(index_of(observer), update);
}

bool GossipMembership::apply_at(std::size_t obs,
                                const MembershipUpdate& update) {
  if (update.node >= num_nodes_) return false;
  // Only a member may speak for itself: rumors of our own suspicion or
  // death are refuted by bumping the incarnation, never accepted.  A node
  // that chose to leave does not refute — out-bidding its own departure
  // rumor would trap the cluster in a join/leave flap.
  if (obs < num_nodes_ && update.node == obs) {
    if (wants_left_[obs]) return false;
    if (update.state != MemberState::kAlive &&
        update.incarnation >= incarnations_[obs]) {
      incarnations_[obs] = update.incarnation + 1;
      views_[obs][obs] =
          MemberInfo{MemberState::kAlive, incarnations_[obs], loop_.now()};
      ++stats_.refutations;
      enqueue_update(obs, {update.node, MemberState::kAlive,
                           incarnations_[obs]});
      return true;
    }
    return false;
  }
  MemberInfo& cur = views_[obs][update.node];
  bool accept = false;
  switch (update.state) {
    case MemberState::kAlive:
      accept = update.incarnation > cur.incarnation;
      break;
    case MemberState::kSuspect:
      accept = (cur.state == MemberState::kAlive &&
                update.incarnation >= cur.incarnation) ||
               update.incarnation > cur.incarnation;
      break;
    case MemberState::kDead:
      // Dead wins ties: it takes a *bumped* incarnation to come back.
      // It does not override an intentional departure at equal
      // incarnation, though — left slots are settled, not faulted.
      accept = (cur.state != MemberState::kDead &&
                cur.state != MemberState::kLeft &&
                update.incarnation >= cur.incarnation) ||
               update.incarnation > cur.incarnation;
      break;
    case MemberState::kLeft:
      // Departure wins ties like death does; only a join() with a bumped
      // incarnation (kAlive, inc > cur) brings the slot back.
      accept = (cur.state != MemberState::kLeft &&
                update.incarnation >= cur.incarnation) ||
               update.incarnation > cur.incarnation;
      break;
  }
  if (!accept) return false;
  const MemberState prev = cur.state;
  if (prev == MemberState::kSuspect && update.state == MemberState::kAlive)
    ++stats_.false_suspicions;
  if (prev != MemberState::kDead && update.state == MemberState::kDead)
    ++stats_.deaths_declared;
  cur = MemberInfo{update.state, update.incarnation, loop_.now()};
  ++stats_.updates_applied;
  enqueue_update(obs, update);
  if (update.state == MemberState::kSuspect) {
    // Every observer runs its own suspect->dead clock; a refutation
    // anywhere within the window clears it epidemically.
    loop_.schedule_background(
        config_.suspicion_timeout,
        [this, obs, node = update.node, inc = update.incarnation] {
          const MemberInfo& v = views_[obs][node];
          if (v.state == MemberState::kSuspect && v.incarnation == inc)
            apply_at(obs, {node, MemberState::kDead, inc});
        });
  }
  if (on_state_ && prev != update.state)
    on_state_(address_of(obs), update.node, update.state);
  return true;
}

void GossipMembership::apply_all(std::size_t obs,
                                 const std::vector<MembershipUpdate>& updates) {
  for (const MembershipUpdate& update : updates) apply_at(obs, update);
}

void GossipMembership::evidence_alive(std::size_t obs, std::uint32_t node,
                                      std::uint64_t incarnation) {
  if (node >= num_nodes_) return;  // the frontend is not a member
  apply_at(obs, {node, MemberState::kAlive, incarnation});
}

void GossipMembership::enqueue_update(std::size_t obs,
                                      const MembershipUpdate& update) {
  auto& queue = rumors_[obs];
  // Latest belief about a member supersedes any queued rumor about it.
  queue.erase(std::remove_if(queue.begin(), queue.end(),
                             [&](const PendingUpdate& pending) {
                               return pending.update.node == update.node;
                             }),
              queue.end());
  queue.push_back(PendingUpdate{update, config_.update_retransmits});
  if (queue.size() > static_cast<std::size_t>(2 * num_nodes_))
    queue.pop_front();
}

std::vector<MembershipUpdate> GossipMembership::take_updates(std::size_t obs) {
  auto& queue = rumors_[obs];
  std::vector<MembershipUpdate> out;
  const std::size_t count =
      std::min(queue.size(), static_cast<std::size_t>(config_.piggyback_limit));
  for (std::size_t i = 0; i < count; ++i) {
    PendingUpdate pending = queue.front();
    queue.pop_front();
    out.push_back(pending.update);
    if (--pending.remaining > 0) queue.push_back(pending);
  }
  return out;
}

void GossipMembership::announce(std::uint32_t node) {
  if (node >= num_nodes_)
    throw std::invalid_argument("GossipMembership::announce: unknown member");
  if (!registered_[node]) return;  // a left slot only returns via join()
  ++stats_.announces;
  wants_left_[node] = false;
  ++incarnations_[node];
  const std::uint64_t inc = incarnations_[node];
  views_[node][node] = MemberInfo{MemberState::kAlive, inc, loop_.now()};
  enqueue_update(node, {node, MemberState::kAlive, inc});
  if (!started_) return;
  std::vector<std::uint32_t> pool;
  for (std::uint32_t m = 0; m < num_nodes_; ++m)
    if (m != node && views_[node][m].state != MemberState::kLeft)
      pool.push_back(m);
  for (int k = 0; k < config_.announce_fanout && !pool.empty(); ++k) {
    const std::size_t pick = rng_.next_below(pool.size());
    const std::uint32_t member = pool[pick];
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    auto updates = take_updates(node);
    updates.push_back({node, MemberState::kAlive, inc});
    transport_(node, member, wire_bytes(updates.size()),
               [this, mobs = std::size_t{member}, node, inc,
                updates = std::move(updates)] {
                 apply_all(mobs, updates);
                 evidence_alive(mobs, node, inc);
               });
  }
}

void GossipMembership::join(std::uint32_t node) {
  if (node >= num_nodes_)
    throw std::invalid_argument("GossipMembership::join: unknown slot");
  ++stats_.joins;
  registered_[node] = true;
  wants_left_[node] = false;
  // The joiner's alive@inc+1 out-bids its kLeft record everywhere; the
  // frontend (which admits joiners into the ring) hears it directly so a
  // ring decision never waits on gossip fan-out alone.
  announce(node);
  apply_at(num_nodes_, {node, MemberState::kAlive, incarnations_[node]});
}

void GossipMembership::leave(std::uint32_t node) {
  if (node >= num_nodes_)
    throw std::invalid_argument("GossipMembership::leave: unknown slot");
  if (!registered_[node]) return;
  ++stats_.leaves;
  registered_[node] = false;
  wants_left_[node] = true;
  ++incarnations_[node];
  const std::uint64_t inc = incarnations_[node];
  const MembershipUpdate update{node, MemberState::kLeft, inc};
  // The leaver adopts and gossips its own departure...
  views_[node][node] = MemberInfo{MemberState::kLeft, inc, loop_.now()};
  enqueue_update(node, update);
  // ...and the frontend, which drives decommissions, seconds the rumor —
  // a leaver that crashes mid-farewell still converges to left, not dead.
  apply_at(num_nodes_, update);
}

void GossipMembership::reset_view(std::uint32_t node) {
  if (node >= num_nodes_)
    throw std::invalid_argument("GossipMembership::reset_view: unknown member");
  // Rebuild from the ground-truth ledger: current members presumed alive,
  // everyone else remembered as left (both survive the crash, like the
  // incarnations they are pinned with).
  for (std::uint32_t m = 0; m < num_nodes_; ++m)
    views_[node][m] = registered_[m]
                          ? MemberInfo{MemberState::kAlive, 0, loop_.now()}
                          : MemberInfo{MemberState::kLeft, incarnations_[m],
                                       loop_.now()};
  views_[node][node] = MemberInfo{registered_[node] ? MemberState::kAlive
                                                    : MemberState::kLeft,
                                  incarnations_[node], loop_.now()};
  rumors_[node].clear();
  probes_[node] = Probe{};  // stale probe timers no longer match
}

}  // namespace stash::cluster
