#include "cluster/cluster.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>

#include "common/codec.hpp"
#include "exec/host_clock.hpp"

namespace stash::cluster {

namespace {
constexpr sim::SimTime kNeverSuspected =
    std::numeric_limits<sim::SimTime>::min();
constexpr std::size_t kSyncMaxChunks = 512;  // chunks pulled per exchange
constexpr std::size_t kRecoveryPeers = 3;    // digest peers per recovery
constexpr int kRebalanceMaxAttempts = 3;     // warm tries, then flip cold
}  // namespace

StashCluster::Node::Node(NodeId node_id, const StashConfig& stash_config,
                         const GalileoStore& store, sim::EventLoop& loop,
                         const sim::SimServer::Config& server_config,
                         std::uint64_t seed)
    : id(node_id),
      graph(stash_config),
      guest_graph(stash_config),
      engine(graph, store),
      guest_engine(guest_graph, store),
      server(loop, server_config),
      maintenance(loop, 1),  // the paper's "separate thread" for population
      last_handoff(std::numeric_limits<sim::SimTime>::min() / 2),
      last_handoff_attempt(std::numeric_limits<sim::SimTime>::min() / 2),
      rng(seed) {}

Evaluation StashCluster::Node::evaluate(std::string_view partition,
                                        const AggregationQuery& query,
                                        EvalMode mode,
                                        std::uint64_t deadline_ms,
                                        bool* partial) const {
  if (!exec_engine) return engine.evaluate_partition(partition, query, mode);
  if (partial == nullptr)
    return exec_engine->evaluate_partition(partition, query, mode);
  exec::ExecOptions options;
  if (deadline_ms > 0)
    options.deadline_ns = exec::host_now_ns() + deadline_ms * 1'000'000ull;
  exec::BatchReport report;
  Evaluation eval =
      exec_engine->evaluate_partition(partition, query, mode, options, report);
  *partial = !report.complete();
  return eval;
}

MaintenanceStats StashCluster::Node::absorb(const Evaluation& eval,
                                            const Resolution& res,
                                            sim::SimTime now) {
  return exec_engine ? exec_engine->absorb(eval, res, now)
                     : engine.absorb(eval, res, now);
}

StashCluster::StashCluster(ClusterConfig config,
                           std::shared_ptr<const NamGenerator> generator)
    : config_(config),
      dht_(config.num_nodes, config.partition_prefix_length),
      // Slots beyond num_nodes are elastic standbys: addressable by the
      // fault plan and the network, but outside the ring until they join.
      fault_(config.fault_plan, std::max(config.num_nodes, config.max_nodes)),
      generator_(std::move(generator)),
      store_(generator_, config.partition_prefix_length),
      suspect_until_(std::max(config.num_nodes, config.max_nodes),
                     kNeverSuspected),
      last_recovery_(std::max(config.num_nodes, config.max_nodes),
                     std::numeric_limits<sim::SimTime>::min() / 2),
      frontend_rng_(config.seed ^ 0x46524f4e54ULL),
      tracer_(config.tracing, config.trace_capacity),
      counters_(bind_counters(registry_)),
      query_latency_us_(registry_.histogram(
          "stash_query_latency_us", "End-to-end query latency (simulated us)",
          obs::latency_buckets_us())),
      subquery_service_us_(registry_.histogram(
          "stash_subquery_service_us",
          "Per-subquery server service time (simulated us)",
          obs::latency_buckets_us())),
      maintenance_service_us_(registry_.histogram(
          "stash_maintenance_service_us",
          "Background maintenance task duration (simulated us)",
          obs::latency_buckets_us())) {
  if (!generator_) throw std::invalid_argument("StashCluster: null generator");
  if (config_.max_nodes != 0 && config_.max_nodes < config_.num_nodes)
    throw std::invalid_argument("StashCluster: max_nodes < num_nodes");
  const std::uint32_t slots = std::max(config_.num_nodes, config_.max_nodes);
  elastic_ = config_.max_nodes > config_.num_nodes ||
             !config_.fault_plan.joins.empty() ||
             !config_.fault_plan.decommissions.empty() ||
             config_.autoscale.enabled;
  // Validate scripted bit-rot targets eagerly: a bad partition key should
  // fail construction, not throw from inside the event loop at fire time.
  for (const auto& event : config_.fault_plan.bitrot) {
    if (event.partition.size() !=
        static_cast<std::size_t>(config_.partition_prefix_length))
      throw std::invalid_argument(
          "StashCluster: bit-rot partition key length != partition prefix");
    if (!geohash::is_valid(event.partition))
      throw std::invalid_argument(
          "StashCluster: bit-rot partition is not a valid geohash");
  }
  nodes_.reserve(slots);
  const sim::SimServer::Config server_config{
      config_.workers_per_node, config_.queue_limit, config_.admission_policy};
  for (NodeId id = 0; id < slots; ++id)
    nodes_.push_back(std::make_unique<Node>(id, config_.stash, store_, loop_,
                                            server_config,
                                            config_.seed ^ mix64(id)));
  if (config_.exec_threads > 0) {
    // Wall-clock datapath: every node shards its chunk work across a real
    // thread pool.  Answers stay byte-identical to the inline engine, so
    // the sim remains deterministic for a fixed seed.
    exec::ExecConfig exec_config;
    exec_config.threads = config_.exec_threads;
    exec_config.queue_capacity = config_.exec_queue_capacity;
    exec_config.faults = config_.exec_faults;
    for (auto& node : nodes_)
      node->exec_engine = std::make_unique<exec::ParallelQueryEngine>(
          node->graph, store_, exec_config);
  }
  // Gossip rides the normal (faulty) message path as background traffic:
  // subject to the same drops/partitions/latency as queries, but never
  // keeping run-to-quiescence alive.
  membership_ = std::make_unique<GossipMembership>(
      config_.membership, slots, loop_,
      [this](std::uint32_t from, std::uint32_t to, std::size_t bytes,
             std::function<void()> deliver) {
        send_message(from, to, bytes, std::move(deliver), /*background=*/true);
      },
      [this](std::uint32_t node) { return fault_.alive(node); },
      /*initial_members=*/config_.num_nodes);
  membership_->set_state_handler(
      [this](std::uint32_t observer, std::uint32_t node, MemberState state) {
        // Stale-replica fix: the moment a node's own view declares a peer
        // dead (or learns it left), routing entries pointing at that peer
        // are invalidated, so no subquery is ever forwarded to a host known
        // to be gone.
        if ((state == MemberState::kDead || state == MemberState::kLeft) &&
            observer != sim::kFrontendNode && fault_.alive(observer))
          nodes_[observer]->routing.drop_helper(node);
      });
  register_callback_metrics();
  // Crash wipes volatile state only — the Galileo store survives, so any
  // node (the owner after restart, or a failover successor) can rebuild
  // answers from disk.  This is the paper's volatile-cache/durable-store
  // split made executable.
  fault_.set_crash_handler([this](std::uint32_t id) {
    wipe_node(id);
    membership_->reset_view(id);  // its beliefs were volatile state too
    counters_.node_crashes.inc();
    if (elastic_) handle_elastic_crash(id);
  });
  fault_.set_restart_handler([this](std::uint32_t id) {
    counters_.node_restarts.inc();
    // Rejoin with a bumped incarnation: overrides any rumor of this
    // node's death everywhere it has spread.
    membership_->announce(id);
    if (config_.recovery) start_recovery(id);
  });
  fault_.set_heal_handler([this](const sim::PartitionEvent& event) {
    // Every healed node re-announces for fast view convergence; the
    // groups cut off from the front-end additionally re-warm their caches
    // from the replicas that served their partitions meanwhile.
    for (const auto& group : event.groups) {
      const bool had_frontend =
          std::find(group.begin(), group.end(), sim::kFrontendNode) !=
          group.end();
      for (const std::uint32_t id : group) {
        if (id == sim::kFrontendNode || !fault_.alive(id)) continue;
        membership_->announce(id);
        if (config_.recovery && !had_frontend) start_recovery(id);
      }
    }
  });
  fault_.set_bitrot_handler([this](const sim::BitRotEvent& event) {
    store_.rot_block(BlockKey{event.partition, event.day});
  });
  fault_.set_join_handler([this](std::uint32_t id) { join_node(id); });
  fault_.set_decommission_handler(
      [this](std::uint32_t id) { decommission_node(id); });
  fault_.arm(loop_);
  membership_->start();
  // Ring watcher + autoscaler run only when something elastic can happen,
  // so fixed-size runs stay bit-identical to the pre-elastic cluster.
  if (elastic_) ensure_elastic();
  // Background scrubber: detect -> quarantine -> repair without waiting
  // for a query to trip over the rot.  Background scheduling means an idle
  // cluster still quiesces.
  if (config_.scrub_interval > 0)
    loop_.schedule_background(config_.scrub_interval,
                              [this] { scrub_tick(/*reschedule=*/true); });
}

void StashCluster::rot_block(const std::string& partition, std::int64_t day) {
  store_.rot_block(BlockKey{partition, day});
}

void StashCluster::scrub_now() { scrub_tick(/*reschedule=*/false); }

void StashCluster::scrub_tick(bool reschedule) {
  counters_.scrub_cycles.inc();
  // Storage pass: verify the block table, then rewrite every quarantined
  // block from pristine data.  (The store is generative, so a repair is an
  // exact rewrite — no replica round-trip to model for durable blocks.)
  store_.scrub();
  for (const BlockKey& block : store_.quarantine_list())
    if (store_.repair_block(block)) counters_.scrub_repairs.inc();
  // Cache pass: walk one node's chunk digests per tick (round-robin)
  // against its ring successors over the anti-entropy path.  A cached
  // replica whose digest disagrees with its peers' is dropped and
  // re-pulled there, not trusted.
  const auto& members = dht_.ring().members;
  if (!members.empty()) {
    const NodeId id = members[scrub_cursor_ % members.size()];
    scrub_cursor_ =
        static_cast<std::uint32_t>((scrub_cursor_ + 1) % members.size());
    if (fault_.alive(id)) start_recovery(id);
  }
  if (reschedule && config_.scrub_interval > 0)
    loop_.schedule_background(config_.scrub_interval,
                              [this] { scrub_tick(/*reschedule=*/true); });
}

template <typename Write>
void StashCluster::write_graphs(Node& node, Write&& write) {
  if (node.exec_engine)
    node.exec_engine->with_exclusive_graph(std::forward<Write>(write));
  else
    write();
}

void StashCluster::wipe_node(NodeId id) {
  Node& node = *nodes_[id];
  write_graphs(node, [&node] {
    node.graph.clear();
    node.guest_graph.clear();
  });
  node.routing.clear();
  node.server.reset();
  node.maintenance.reset();
  node.last_handoff = std::numeric_limits<sim::SimTime>::min() / 2;
  node.last_handoff_attempt = std::numeric_limits<sim::SimTime>::min() / 2;
}

void StashCluster::crash_node(NodeId id) { fault_.force_crash(id); }

void StashCluster::restart_node(NodeId id) { fault_.force_restart(id); }

bool StashCluster::reachable(NodeId id) const {
  return membership_->usable(sim::kFrontendNode, id) && !suspected(id);
}

void StashCluster::recover_node(NodeId id) {
  if (id >= nodes_.size())
    throw std::out_of_range("StashCluster::recover_node: bad node id");
  start_recovery(id);
}

std::vector<StashCluster::DigestEntry> StashCluster::sync_digest(
    NodeId holder, const std::vector<std::string>& partitions) const {
  std::vector<DigestEntry> out;
  const Node& node = *nodes_[holder];
  const auto covers = [&](const std::string& prefix) {
    for (const auto& p : partitions) {
      const bool hit = prefix.size() >= p.size()
                           ? prefix.compare(0, p.size(), p) == 0
                           : p.compare(0, prefix.size(), prefix) == 0;
      if (hit) return true;
    }
    return false;
  };
  std::set<std::pair<int, ChunkKey>> seen;
  const auto collect = [&](const StashGraph& graph) {
    for (int lvl = 0; lvl < kNumLevels; ++lvl) {
      const Resolution res = resolution_of_level(lvl);
      graph.for_each_chunk(
          res, [&](const ChunkKey& key, const StashGraph::ChunkData&) {
            if (!covers(key.prefix_str())) return;
            if (!graph.chunk_complete(res, key)) return;
            if (!seen.insert({lvl, key}).second) return;
            // Content-covering digest (PLM bitmap + Cell contents, both on
            // the shared integrity checksum): a mismatch detects a rotted
            // or diverged replica, not just different coverage.
            out.push_back({res, key, graph.chunk_digest(res, key)});
          });
    }
  };
  collect(node.graph);
  collect(node.guest_graph);
  return out;
}

void StashCluster::sync_chunks(
    NodeId holder, NodeId puller,
    std::function<std::vector<std::string>()> scope, bool background,
    std::function<bool()> current, std::function<void()> done) {
  const auto live = [current] { return !current || current(); };
  // Digest Request: puller -> holder.  Unguarded — the holder just answers.
  send_message(puller, holder, kRequestBytes, [=, this] {
    // The scope is read on arrival: a recovering node's partitions are
    // whatever the ring says when the holder builds the digest.
    const auto digest = std::make_shared<std::vector<DigestEntry>>(
        sync_digest(holder, scope()));
    // Digest Response: one (level, chunk, content-hash) triple per entry.
    const std::size_t bytes = kRequestBytes + 24 * digest->size();
    send_message(holder, puller, bytes, [=, this] {
      if (!live()) return;
      counters_.digests_exchanged.inc();
      Node& local = *nodes_[puller];
      // Diff against the local graph's content digests.  Pull a chunk this
      // node does not hold at all; when BOTH sides hold it complete but the
      // digests disagree, the local copy diverged or rotted — drop it and
      // re-pull, never trust it.  A locally partial chunk is left alone:
      // absorb's idempotence guard would reject the overlapping days.
      auto wanted =
          std::make_shared<std::vector<std::pair<Resolution, ChunkKey>>>();
      for (const auto& entry : *digest) {
        if (wanted->size() >= kSyncMaxChunks) break;
        const std::uint64_t local_hash =
            local.graph.chunk_digest(entry.res, entry.chunk);
        if (local_hash == entry.hash) continue;  // same coverage + content
        if (local_hash != 0) {
          if (!local.graph.chunk_complete(entry.res, entry.chunk))
            continue;  // partial: skip
          write_graphs(local, [&] {
            local.graph.drop_chunk(entry.res, entry.chunk);
          });
          counters_.replica_divergences.inc();
        }
        wanted->emplace_back(entry.res, entry.chunk);
      }
      if (wanted->empty()) {
        if (done) done();  // already in sync
        return;
      }
      // Chunk Pull Request: names exactly the wanted complete chunks.
      const std::size_t req_bytes = kRequestBytes + 16 * wanted->size();
      send_message(puller, holder, req_bytes, [=, this] {
        if (!live()) return;
        // Ship from the local graph first, then whatever only the guest
        // graph holds complete.
        const Node& source = *nodes_[holder];
        std::vector<ChunkContribution> payload;
        std::set<std::pair<int, ChunkKey>> shipped;
        for (const StashGraph* graph : {&source.graph, &source.guest_graph}) {
          std::vector<std::pair<Resolution, ChunkKey>> rest;
          for (const auto& [res, chunk] : *wanted)
            if (!shipped.contains({level_index(res), chunk}))
              rest.emplace_back(res, chunk);
          for (auto& c : chunk_payload(*graph, rest)) {
            shipped.insert({level_index(c.res), c.chunk});
            payload.push_back(std::move(c));
          }
        }
        if (payload.empty()) {
          // The holder lost the chunks meanwhile: Ack "nothing" so a
          // caller waiting on `done` is not left to its deadline.
          if (!done) return;
          send_message(
              holder, puller, kAckBytes,
              [live, done] {
                if (live()) done();
              },
              background);
          return;
        }
        replicate(holder, puller, payload, &Node::graph, background, current,
                  [this, done](std::uint64_t chunks, std::uint64_t cells) {
                    counters_.chunks_rewarmed.inc(chunks);
                    counters_.cells_rewarmed.inc(cells);
                    if (done) done();
                  });
      }, background);
    }, background);
  }, background);
}

void StashCluster::replicate(
    NodeId from, NodeId to, const std::vector<ChunkContribution>& payload,
    StashGraph Node::*into, bool background, std::function<bool()> current,
    std::function<void(std::uint64_t, std::uint64_t)> then) {
  // Replication Request inside a checksummed frame: a bit-flip or tear en
  // route is detected and redelivered, never absorbed.
  send_frame(
      from, to, codec::encode_replication_frame(payload),
      [this, to, into, current = std::move(current),
       then = std::move(then)](codec::Buffer&& verified) {
        if (current && !current()) return;
        std::vector<ChunkContribution> contributions;
        try {
          contributions = codec::decode_replication_payload(verified);
        } catch (const std::exception&) {
          // Checksum-valid but structurally bad: a sender-side encoding
          // bug, not line noise.  Quarantine (drop), never absorb garbage.
          counters_.poison_messages.inc();
          return;
        }
        Node& node = *nodes_[to];
        std::uint64_t chunks = 0, cells = 0;
        write_graphs(node, [&] {
          for (const auto& c : contributions) {
            if ((node.*into).absorb(c, loop_.now()) == 0) continue;
            ++chunks;
            cells += c.cells.size();
          }
        });
        then(chunks, cells);
      },
      background, config_.max_redeliveries);
}

void StashCluster::start_recovery(NodeId id) {
  if (!config_.recovery || !fault_.alive(id)) return;
  if (loop_.now() - last_recovery_[id] < config_.recovery_cooldown) return;
  last_recovery_[id] = loop_.now();
  counters_.recoveries.inc();
  Node& node = *nodes_[id];
  // Routing hygiene first: entries pointing at peers this node's own view
  // does not consider alive are invalidated before any query can follow
  // them into a black hole.
  for (NodeId peer = 0; peer < nodes_.size(); ++peer)
    if (peer != id && !membership_->usable(id, peer))
      node.routing.drop_helper(peer);
  // Digest peers: the first kRecoveryPeers nodes along this node's ring
  // successor chain.  Whichever of them the front-end failed over to
  // served (and cached) this node's partitions while it was gone; the
  // rejoining node cannot know which — front-end reachability during the
  // outage is not reconstructible — so it asks the whole bracket.  The
  // bracket is deliberately NOT filtered through this node's own gossip
  // view: right after a heal that view still calls the other side dead,
  // and those are exactly the replica holders.  A digest request to a
  // truly dead peer just goes unanswered — recovery is fire-and-forget.
  // Successors come from the installed ring, so recovery keeps working
  // across epoch changes (a decommissioned slot is simply never a peer).
  std::size_t asked = 0;
  const std::size_t ring_size = dht_.ring().members.size();
  for (std::uint32_t k = 0; k + 1 < ring_size && asked < kRecoveryPeers; ++k) {
    const NodeId peer = dht_.successor_of_node(id, k);
    if (peer == id) continue;
    ++asked;
    sync_chunks(
        peer, id, [this, id] { return dht_.partitions_of(id); },
        /*background=*/false, /*current=*/{}, /*done=*/{});
  }
}

// --- elastic membership & ring rebalancing -------------------------------
//
// Ownership is the epoch-versioned ring in the DHT plus the handoff
// records in moves_: a partition with a live Move is answered by its OLD
// owner (Move::from); erasing the record is the atomic flip to the ring
// owner.  The front-end drives everything — it watches its own gossip
// view, advances the epoch only after the desired member set holds stable,
// plans one Move per partition whose serving owner changes, and the new
// owners pull warm state from live donors over the same digest/pull/
// checksummed-frame path anti-entropy recovery uses.  All of it is
// background traffic: a run-to-quiescence test that never scales sees a
// bit-identical cluster.

NodeId StashCluster::serving_owner(const std::string& partition) const {
  const auto it = moves_.find(partition);
  return it != moves_.end() ? it->second.from
                            : dht_.node_for_partition(partition);
}

bool StashCluster::move_current(const std::string& partition,
                                std::uint64_t epoch, int attempt) const {
  const auto it = moves_.find(partition);
  return it != moves_.end() && it->second.epoch == epoch &&
         it->second.attempt == attempt;
}

bool StashCluster::has_inbound_move(NodeId id) const {
  return std::any_of(moves_.begin(), moves_.end(),
                     [id](const auto& entry) { return entry.second.to == id; });
}

bool StashCluster::rebalance_in_progress() const {
  if (!moves_.empty() || !joining_.empty() || !leaving_.empty()) return true;
  return elastic_ && desired_ring_members() != dht_.ring().members;
}

bool StashCluster::run_until_stable(sim::SimTime max_wait) {
  const sim::SimTime deadline = loop_.now() + max_wait;
  const sim::SimTime step =
      std::max<sim::SimTime>(config_.ring_check_interval, 1);
  while (loop_.now() < deadline) {
    if (!rebalance_in_progress()) return true;
    loop_.run_for(std::min(step, deadline - loop_.now()));
  }
  return !rebalance_in_progress();
}

void StashCluster::ensure_elastic() {
  if (elastic_armed_) return;
  elastic_armed_ = true;
  elastic_ = true;
  ring_candidate_ = dht_.ring().members;
  ring_candidate_since_ = loop_.now();
  loop_.schedule_background(config_.ring_check_interval,
                            [this] { ring_watch_tick(); });
  if (config_.autoscale.enabled)
    loop_.schedule_background(config_.autoscale.eval_interval,
                              [this] { autoscale_tick(); });
}

void StashCluster::join_node(NodeId id) {
  if (id >= nodes_.size())
    throw std::out_of_range("StashCluster::join_node: bad node id");
  if (membership_->is_registered(id)) return;  // member or already joining
  if (!fault_.alive(id)) return;  // a dead standby cannot announce itself
  ensure_elastic();  // programmatic scaling arms the watcher lazily
  joining_.insert(id);
  membership_->join(id);
}

void StashCluster::decommission_node(NodeId id) {
  if (id >= nodes_.size())
    throw std::out_of_range("StashCluster::decommission_node: bad node id");
  if (!membership_->is_registered(id)) return;  // standby or already left
  if (leaving_.contains(id) || joining_.contains(id)) return;
  if (!dht_.ring().contains(id)) {
    // Registered but never made it into an epoch (join still converging):
    // it owns nothing, so it can leave immediately.
    membership_->leave(id);
    return;
  }
  // Never drain the last serving member.
  if (dht_.ring().members.size() <= leaving_.size() + 1) return;
  ensure_elastic();  // programmatic scaling arms the watcher lazily
  leaving_.insert(id);  // keeps serving until its last outbound move flips
}

std::vector<NodeId> StashCluster::desired_ring_members() const {
  std::vector<NodeId> out;
  for (const NodeId m : dht_.ring().members) {
    if (leaving_.contains(m)) continue;
    // A deregistered ring member is a reverted joiner: it died before its
    // inbound transfers completed, so the next epoch drops it.  (Crashed
    // *established* members stay — failover covers them, and only an
    // explicit decommission removes a member.)
    if (!membership_->is_registered(m)) continue;
    out.push_back(m);
  }
  for (const NodeId j : joining_) {
    if (dht_.ring().contains(j)) continue;
    if (!membership_->is_registered(j)) continue;
    // Admit a joiner only once the front-end's own view believes it alive
    // (the stabilize window then debounces the rest of the convergence).
    if (membership_->state(sim::kFrontendNode, j) != MemberState::kAlive)
      continue;
    out.push_back(j);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void StashCluster::ring_watch_tick() {
  loop_.schedule_background(config_.ring_check_interval,
                            [this] { ring_watch_tick(); });
  std::vector<NodeId> desired = desired_ring_members();
  if (desired == dht_.ring().members || desired.empty()) {
    ring_candidate_ = dht_.ring().members;
    ring_candidate_since_ = loop_.now();
    return;
  }
  if (desired != ring_candidate_) {
    // New candidate: start the stability clock.
    ring_candidate_ = std::move(desired);
    ring_candidate_since_ = loop_.now();
    return;
  }
  if (loop_.now() - ring_candidate_since_ < config_.ring_stabilize_delay)
    return;
  advance_epoch(std::move(desired));
  ring_candidate_ = dht_.ring().members;
  ring_candidate_since_ = loop_.now();
}

void StashCluster::advance_epoch(std::vector<NodeId> members) {
  // Who answers each partition under the OUTGOING epoch + handoffs?  That
  // node keeps answering through the transition: it becomes Move::from
  // wherever ownership shifts.
  std::vector<std::pair<std::string, NodeId>> serving;
  dht_.for_each_partition([&](std::string_view p) {
    std::string key(p);
    NodeId owner = serving_owner(key);
    serving.emplace_back(std::move(key), owner);
  });
  // Supersede in-flight moves: their (epoch, attempt) tags go stale, so
  // every outstanding transfer continuation drops itself on arrival.
  for (auto& [partition, move] : moves_)
    if (move.deadline_timer != 0) loop_.cancel(move.deadline_timer);
  RingView next;
  next.epoch = dht_.epoch() + 1;
  next.members = std::move(members);
  dht_.install(std::move(next));
  counters_.rebalance_epoch_advances.inc();
  std::unordered_map<std::string, Move> planned;
  for (auto& [partition, old_owner] : serving) {
    const NodeId new_owner = dht_.node_for_partition(partition);
    if (new_owner == old_owner) continue;
    Move move;
    move.from = old_owner;
    move.to = new_owner;
    move.epoch = dht_.epoch();
    planned.emplace(partition, move);
  }
  moves_ = std::move(planned);
  for (const auto& [partition, move] : moves_) start_move(partition);
  // A leaver that owned nothing (or whose every move was superseded into
  // a no-op) finishes right away; likewise a joiner with no inbound moves
  // is fully admitted.
  std::erase_if(joining_, [this](NodeId j) {
    return dht_.ring().contains(j) && !has_inbound_move(j);
  });
  const std::vector<NodeId> leavers(leaving_.begin(), leaving_.end());
  for (const NodeId l : leavers) maybe_finish_decommission(l);
}

void StashCluster::start_move(const std::string& partition) {
  const auto it = moves_.find(partition);
  if (it == moves_.end()) return;
  Move& move = it->second;
  const std::uint64_t epoch = move.epoch;
  const int attempt = move.attempt;
  const NodeId to = move.to;
  // Retry budget + deadline bound every attempt: a wedged transfer can
  // stall routing for at most max_attempts * transfer_deadline before the
  // partition flips cold.
  move.deadline_timer = loop_.schedule_background_cancellable(
      config_.rebalance_transfer_deadline,
      [this, partition, epoch, attempt] {
        on_move_deadline(partition, epoch, attempt);
      });
  // Donor: the serving owner while it lives; a dead donor fails over to
  // any live ring member (complete cached chunks are content-digested, so
  // any holder is equivalent — and a cold donor just answers "nothing").
  NodeId donor = move.from;
  if (!fault_.alive(donor) || donor == to) {
    donor = to;
    for (const NodeId m : dht_.ring().members)
      if (m != to && fault_.alive(m)) {
        donor = m;
        break;
      }
  }
  if (donor == to || !fault_.alive(to)) return;  // deadline path owns this
  // Kickoff: front-end -> new owner, then the shared digest/pull/frame
  // exchange scoped to this one partition.  Every continuation checks the
  // (epoch, attempt) tag, and the done report goes back to the front-end —
  // also when there was nothing warm to pull (cold partition, or already
  // in sync): the handoff is then complete as-is.
  send_message(
      sim::kFrontendNode, to, kRequestBytes,
      [this, partition, epoch, attempt, donor, to] {
        if (!move_current(partition, epoch, attempt)) return;
        sync_chunks(
            donor, to, [partition] { return std::vector{partition}; },
            /*background=*/true,
            [this, partition, epoch, attempt] {
              return move_current(partition, epoch, attempt);
            },
            [this, partition, epoch, attempt, to] {
              send_message(
                  to, sim::kFrontendNode, kAckBytes,
                  [this, partition, epoch, attempt] {
                    complete_move(partition, epoch, attempt);
                  },
                  /*background=*/true);
            });
      },
      /*background=*/true);
}

void StashCluster::on_move_deadline(const std::string& partition,
                                    std::uint64_t epoch, int attempt) {
  if (!move_current(partition, epoch, attempt)) return;
  Move& move = moves_.find(partition)->second;
  move.deadline_timer = 0;
  counters_.rebalance_transfers_aborted.inc();
  // A deregistered target is a reverting joiner: hold the handoff (old
  // owner keeps serving) until the watcher advances the epoch past it.
  if (!membership_->is_registered(move.to)) return;
  if (move.attempt + 1 < kRebalanceMaxAttempts) {
    ++move.attempt;
    start_move(partition);
    return;
  }
  // Attempts exhausted: flip cold.  The ring owner answers from durable
  // storage (never wrong, just unwarmed) and rebuilds warmth on demand.
  flip_move(partition);
}

void StashCluster::complete_move(const std::string& partition,
                                 std::uint64_t epoch, int attempt) {
  if (!move_current(partition, epoch, attempt)) return;
  flip_move(partition);
}

void StashCluster::flip_move(const std::string& partition) {
  const auto it = moves_.find(partition);
  if (it == moves_.end()) return;
  const Move move = it->second;
  if (move.deadline_timer != 0) loop_.cancel(move.deadline_timer);
  moves_.erase(it);  // THE flip: routing now reads the installed ring
  counters_.rebalance_partitions_moved.inc();
  if (joining_.contains(move.to) && !has_inbound_move(move.to))
    joining_.erase(move.to);  // fully admitted
  if (leaving_.contains(move.from)) maybe_finish_decommission(move.from);
}

void StashCluster::maybe_finish_decommission(NodeId id) {
  if (!leaving_.contains(id)) return;
  if (dht_.ring().contains(id)) return;  // epoch has not moved past it yet
  for (const auto& [p, m] : moves_)
    if (m.from == id) return;  // still draining
  leaving_.erase(id);
  // Explicit departure rumor (kLeft out-bids dead): even observers that
  // watched it crash mid-drain converge to "left", never probe it again.
  membership_->leave(id);
  wipe_node(id);
  // Routing hygiene cluster-wide: nobody reroutes to a departed member.
  for (const auto& node : nodes_)
    if (node->id != id && fault_.alive(node->id))
      node->routing.drop_helper(id);
}

void StashCluster::handle_elastic_crash(NodeId id) {
  if (!joining_.contains(id)) return;
  // A joiner died before its handoffs completed: the join is reverted, not
  // failed over.  Deregistering drops it from the desired member set, so
  // the watcher advances the epoch without it; until then the in-flight
  // Move records keep the old owners serving (that IS the revert — routing
  // never pointed at the dead joiner).  Timers are silenced so the
  // deadline path cannot flip a partition cold onto a corpse.
  joining_.erase(id);
  membership_->leave(id);
  for (auto& [partition, move] : moves_) {
    if (move.to != id) continue;
    if (move.deadline_timer != 0) {
      loop_.cancel(move.deadline_timer);
      move.deadline_timer = 0;
    }
    counters_.rebalance_ownership_reverts.inc();
  }
}

void StashCluster::autoscale_tick() {
  loop_.schedule_background(config_.autoscale.eval_interval,
                            [this] { autoscale_tick(); });
  const AutoscalePolicy& policy = config_.autoscale;
  // PR-3 signals: worst queue depth seen across serving members since the
  // previous tick (the high-water mark, so sub-interval bursts count — an
  // instantaneous sample at the tick would miss every queue that built and
  // drained between evaluations), and admission-control sheds since the
  // previous tick.
  std::size_t peak = 0, high_water = 0;
  for (const NodeId m : dht_.ring().members) {
    peak = std::max(peak, nodes_[m]->server.queue_length());
    high_water = std::max(high_water, nodes_[m]->server.peak_queue_length());
  }
  const bool queue_spiked =
      high_water > autoscale_prev_peak_ && high_water >= policy.high_queue;
  autoscale_prev_peak_ = std::max(autoscale_prev_peak_, high_water);
  std::uint64_t shed = 0;
  for (const auto& node : nodes_) shed += node->server.shed_jobs();
  const std::uint64_t shed_delta =
      shed >= autoscale_prev_shed_ ? shed - autoscale_prev_shed_ : 0;
  autoscale_prev_shed_ = shed;
  const bool hot = queue_spiked || shed_delta >= policy.high_shed_delta;
  const bool cold =
      !queue_spiked && peak <= policy.low_queue && shed_delta == 0;
  autoscale_high_ticks_ = hot ? autoscale_high_ticks_ + 1 : 0;
  autoscale_low_ticks_ = cold ? autoscale_low_ticks_ + 1 : 0;
  if (loop_.now() - autoscale_last_action_ < policy.cooldown) return;
  if (rebalance_in_progress()) return;  // let the current move land first
  if (autoscale_high_ticks_ >= policy.hysteresis_ticks) {
    // Scale out: admit the lowest live standby slot.
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      if (membership_->is_registered(id) || !fault_.alive(id)) continue;
      join_node(id);
      autoscale_last_action_ = loop_.now();
      autoscale_high_ticks_ = 0;
      return;
    }
    return;
  }
  if (autoscale_low_ticks_ >= policy.hysteresis_ticks &&
      dht_.ring().members.size() > policy.min_nodes) {
    // Scale in: drain the highest member back to standby.
    decommission_node(dht_.ring().members.back());
    autoscale_last_action_ = loop_.now();
    autoscale_low_ticks_ = 0;
  }
}

bool StashCluster::suspected(NodeId id) const {
  return suspect_until_[id] > loop_.now();
}

bool StashCluster::node_suspected(NodeId id) const {
  if (id >= suspect_until_.size())
    throw std::out_of_range("StashCluster::node_suspected: bad node id");
  return suspected(id);
}

void StashCluster::suspect(NodeId id) {
  suspect_until_[id] = loop_.now() + config_.suspect_ttl;
}

void StashCluster::absolve(NodeId id) { suspect_until_[id] = kNeverSuspected; }

void StashCluster::send_message(std::uint32_t from, std::uint32_t to,
                                std::size_t bytes,
                                std::function<void()> deliver,
                                bool background) {
  ++messages_sent_;
  if (fault_.should_drop(from, to)) {
    counters_.messages_dropped.inc();
    return;
  }
  const sim::SimTime delay =
      config_.cost.net_transfer(bytes) + fault_.extra_latency(from, to);
  auto action = [this, to, deliver = std::move(deliver)] {
    // A message addressed to a node that died in flight is simply lost;
    // the sender's timeout is the only notification it will ever get.
    if (!fault_.alive(to)) return;
    deliver();
  };
  if (background)
    loop_.schedule_background(delay, std::move(action));
  else
    loop_.schedule(delay, std::move(action));
}

void StashCluster::send_frame(
    std::uint32_t from, std::uint32_t to, std::vector<std::uint8_t> frame,
    std::function<void(std::vector<std::uint8_t>&&)> deliver, bool background,
    int redeliveries_left) {
  // Tamper dice roll at send time (the event loop guarantees a
  // deterministic call order); the tamper mutates a wire copy so a NACKed
  // frame can be retransmitted from the sender's pristine bytes.
  const sim::Tamper tamper = fault_.should_tamper(from, to);
  std::vector<std::uint8_t> wire = frame;
  sim::apply_tamper(tamper, wire);
  const std::size_t bytes = wire.size() + kRequestBytes;
  send_message(
      from, to, bytes,
      [this, from, to, frame = std::move(frame), wire = std::move(wire),
       deliver = std::move(deliver), background,
       redeliveries_left]() mutable {
        codec::Buffer payload;
        try {
          payload = codec::decode_frame(wire);
        } catch (const codec::IntegrityError&) {
          counters_.frame_integrity_failures.inc();
          if (redeliveries_left <= 0) {
            // Poison message: still corrupt after the redelivery budget.
            // Dropped and counted — never parsed, never crashes, never
            // silently absorbed.
            counters_.poison_messages.inc();
            return;
          }
          counters_.messages_redelivered.inc();
          // NACK back to the sender, which retransmits its pristine copy;
          // the resend is a fresh physical message with fresh dice.
          send_message(
              to, from, kAckBytes,
              [this, from, to, frame = std::move(frame),
               deliver = std::move(deliver), background, redeliveries_left] {
                send_frame(from, to, std::move(frame), std::move(deliver),
                           background, redeliveries_left - 1);
              },
              background);
          return;
        }
        deliver(std::move(payload));
      },
      background);
}

sim::SimTime StashCluster::service_time(const EvalBreakdown& b) const {
  const auto& cost = config_.cost;
  sim::SimTime t = config_.subquery_overhead;
  t += cost.cache_probes(b.cache_probes);
  t += static_cast<sim::SimTime>(b.scan.blocks_touched) * cost.disk_seek;
  t += cost.disk_stream(b.scan.bytes_read);
  t += cost.scan(b.scan.records_scanned);
  t += cost.merge(b.synthesis_merges);
  t += cost.merge(b.cells_from_cache + b.cells_scanned + b.cells_synthesized);
  return t;
}

void StashCluster::record_serve_spans(std::uint64_t query_id,
                                      obs::SpanId parent, NodeId node_id,
                                      const EvalBreakdown& b, bool guest) {
  if (!tracer_.enabled() || parent == obs::kNoSpan) return;
  const auto& cost = config_.cost;
  const sim::SimTime end = loop_.now();
  const sim::SimTime service = service_time(b);
  const obs::SpanId serve = tracer_.record_span(
      query_id, parent, guest ? "serve guest" : "serve", end - service, end);
  tracer_.tag(query_id, serve, "node", std::to_string(node_id));
  tracer_.tag(query_id, serve, "chunks_from_cache",
              std::to_string(b.chunks_from_cache));
  tracer_.tag(query_id, serve, "chunks_synthesized",
              std::to_string(b.chunks_synthesized));
  tracer_.tag(query_id, serve, "chunks_scanned",
              std::to_string(b.chunks_scanned));
  tracer_.tag(query_id, serve, "chunks_missing",
              std::to_string(b.chunks_missing));
  // The stages below replay service_time()'s decomposition term by term, so
  // the children partition [end - service, end] exactly (zero-cost stages
  // are elided — they would be zero-width anyway).
  sim::SimTime t = end - service;
  const auto stage = [&](const char* name, sim::SimTime dur) {
    if (dur <= 0) return;
    tracer_.record_span(query_id, serve, name, t, t + dur);
    t += dur;
  };
  stage("dispatch", config_.subquery_overhead);
  stage("cache_probe", cost.cache_probes(b.cache_probes));
  stage("disk",
        static_cast<sim::SimTime>(b.scan.blocks_touched) * cost.disk_seek +
            cost.disk_stream(b.scan.bytes_read) +
            cost.scan(b.scan.records_scanned));
  stage("rollup", cost.merge(b.synthesis_merges));
  // "cell_merge", not "merge": the front-end gather span owns that name.
  stage("cell_merge",
        cost.merge(b.cells_from_cache + b.cells_scanned + b.cells_synthesized));
}

sim::SimTime StashCluster::maintenance_time(const MaintenanceStats& m) const {
  const auto& cost = config_.cost;
  return cost.cell_inserts(m.cells_absorbed) +
         cost.freshness_updates(m.freshness_updates) +
         cost.cell_inserts(m.cells_evicted / 4);  // eviction is cheaper than insert
}

void StashCluster::maybe_start_handoff(NodeId node_id) {
  if (config_.mode != SystemMode::Stash) return;
  Node& node = *nodes_[node_id];
  if (node.server.queue_length() <= config_.stash.hotspot_queue_threshold) return;
  if (loop_.now() - node.last_handoff < config_.stash.hotspot_cooldown) return;
  // Back off briefly between attempts so a saturated node does not run
  // clique selection on every enqueue.
  if (loop_.now() - node.last_handoff_attempt < 2 * sim::kMillisecond) return;
  node.last_handoff_attempt = loop_.now();

  const CliqueSelector selector(node.graph);
  auto cliques = selector.select_top(loop_.now(),
                                     config_.stash.max_replicated_cells,
                                     config_.stash.max_cliques_per_handoff,
                                     config_.stash.clique_depth);
  // A cold hotspot (nothing cached yet) has nothing to replicate; do not
  // burn the cooldown — retry once maintenance has populated the graph.
  if (cliques.empty()) return;
  node.last_handoff = loop_.now();
  counters_.handoffs_initiated.inc();
  for (auto& clique : cliques) send_distress(node_id, std::move(clique), 0);
}

void StashCluster::send_distress(NodeId hot_id, Clique clique, int attempt) {
  if (attempt > config_.antipode_retries) {
    counters_.distress_rejections.inc();
    return;
  }
  if (!fault_.alive(hot_id)) return;  // the hot node died: abandon the handoff
  Node& hot = *nodes_[hot_id];
  // Antipode selection (§VII-B.3): first try the node owning the region
  // diametrically opposite the Clique; on rejection wander randomly around
  // that antipode.  (HelperPolicy::Neighbor is the related-work ablation:
  // replicate to a node owning an adjacent region instead.)
  std::string target_gh;
  if (config_.helper_policy == HelperPolicy::Antipode) {
    target_gh = geohash::antipode(clique.root.prefix_str());
  } else {
    const auto east =
        geohash::neighbor(clique.root.prefix_str(), geohash::Direction::E);
    target_gh = east.value_or(geohash::antipode(clique.root.prefix_str()));
  }
  for (int i = 0; i < attempt; ++i) {
    const auto neighbors = geohash::neighbors(target_gh);
    target_gh = neighbors[hot.rng.next_below(neighbors.size())];
  }
  const NodeId target = dht_.node_for(target_gh);
  if (target == hot_id) {
    send_distress(hot_id, std::move(clique), attempt + 1);
    return;
  }
  if (suspected(target) || !membership_->usable(hot_id, target)) {
    // Circuit breaker / gossip view: a believed-dead helper is a free
    // NACK — keep wandering instead of paying the handoff timeout.
    send_distress(hot_id, std::move(clique), attempt + 1);
    return;
  }

  // Watchdog for the whole Distress -> Ack -> Replication -> Response
  // round: a dead helper or a lost message is treated as a NACK and the
  // antipode retry continues.
  auto settled = std::make_shared<bool>(false);
  sim::EventLoop::EventId watchdog = 0;
  if (config_.handoff_timeout > 0) {
    watchdog = loop_.schedule_cancellable(
        config_.handoff_timeout,
        [this, hot_id, target, clique, attempt, settled] {
          if (*settled) return;
          *settled = true;
          counters_.timeouts_fired.inc();
          counters_.handoff_timeouts.inc();
          suspect(target);
          if (fault_.alive(hot_id)) {
            nodes_[hot_id]->routing.drop_helper(target);
            send_distress(hot_id, clique, attempt + 1);
          }
        });
  }
  const auto settle = [this, settled, watchdog] {
    *settled = true;
    if (watchdog != 0) loop_.cancel(watchdog);
  };

  // Distress Request: hot -> helper.
  send_message(
      hot_id, target, kRequestBytes,
      [this, hot_id, target, clique = std::move(clique), attempt, settled,
       settle]() mutable {
        Node& helper = *nodes_[target];
        const bool accept =
            helper.server.queue_length() <=
                config_.stash.hotspot_queue_threshold &&
            helper.guest_graph.total_cells() + clique.cell_count <=
                config_.stash.guest_capacity_cells;
        if (!accept) {
          // Negative acknowledgement: helper -> hot, retry on arrival.
          send_message(target, hot_id, kAckBytes,
                       [this, hot_id, clique = std::move(clique), attempt,
                        settled, settle]() mutable {
                         if (*settled) return;
                         settle();
                         counters_.distress_rejections.inc();
                         send_distress(hot_id, std::move(clique), attempt + 1);
                       });
          return;
        }
        // Positive ack: helper -> hot; on arrival the hot node ships the
        // Clique's Cells, encoded with the real wire codec so transfer
        // time reflects actual bytes.
        send_message(
            target, hot_id, kAckBytes,
            [this, hot_id, target, clique = std::move(clique), settled,
             settle]() mutable {
              if (*settled) return;
              Node& hot_node = *nodes_[hot_id];
              const auto payload = clique_payload(hot_node.graph, clique);
              std::size_t cells = 0;
              for (const auto& c : payload) cells += c.cells.size();
              // Replication Request: hot -> helper, absorbed into the
              // helper's guest graph.
              replicate(
                  hot_id, target, payload, &Node::guest_graph,
                  /*background=*/false, /*current=*/{},
                  [this, hot_id, target, clique = std::move(clique), cells,
                   settled, settle](std::uint64_t, std::uint64_t) mutable {
                    counters_.cliques_replicated.inc();
                    counters_.cells_replicated.inc(cells);
                    // Replication Response: helper -> hot populates the
                    // routing table (§VII-B.5).
                    send_message(
                        target, hot_id, kAckBytes,
                        [this, hot_id, target, clique = std::move(clique),
                         settled, settle] {
                          if (*settled) return;
                          settle();
                          Node& hot_after = *nodes_[hot_id];
                          for (const auto& member : clique.members)
                            hot_after.routing.add(member.res, member.chunk,
                                                  target, loop_.now());
                        });
                  });
            });
      });
}

const StashGraph& StashCluster::node_graph(NodeId id) const {
  return nodes_.at(id)->graph;
}

const StashGraph& StashCluster::node_guest_graph(NodeId id) const {
  return nodes_.at(id)->guest_graph;
}

const RoutingTable& StashCluster::node_routing(NodeId id) const {
  return nodes_.at(id)->routing;
}

std::size_t StashCluster::node_queue_length(NodeId id) const {
  return nodes_.at(id)->server.queue_length();
}

std::size_t StashCluster::total_cached_cells() const {
  std::size_t total = 0;
  for (const auto& node : nodes_) total += node->graph.total_cells();
  return total;
}

std::size_t StashCluster::total_guest_cells() const {
  std::size_t total = 0;
  for (const auto& node : nodes_) total += node->guest_graph.total_cells();
  return total;
}

AuditReport StashCluster::audit_all(AuditOptions options) const {
  if (!options.now) options.now = loop_.now();
  const GraphAuditor auditor(options);
  AuditReport total;
  for (const auto& node : nodes_) {
    const auto annotate = [&](AuditReport&& report, const char* which) {
      for (auto& v : report.violations)
        v.detail = "node " + std::to_string(node->id) + " " + which + ": " +
                   v.detail;
      total.merge(std::move(report));
    };
    annotate(auditor.audit(node->graph), "graph");
    annotate(auditor.audit(node->guest_graph), "guest");
    annotate(auditor.audit_routing(node->routing,
                                   static_cast<std::uint32_t>(nodes_.size()),
                                   node->id),
             "routing");
  }
  // Epoch-aware membership checks: the installed ring is structurally
  // sound, and every in-flight handoff record agrees with it — planned
  // under the current epoch, genuinely moving (from != to), and pointing
  // at the member the ring says now owns the partition.  Together with the
  // single moves_ map (presence == old owner serves, absence == ring owner
  // serves) this is the no-partition-double-owned / none-lost invariant.
  total.merge(auditor.audit_ring(dht_.ring(),
                                 static_cast<std::uint32_t>(nodes_.size())));
  for (const auto& [partition, move] : moves_) {
    const auto bad = [&](const std::string& why) {
      total.violations.push_back(
          {AuditViolationKind::RingInconsistent,
           "move " + partition + " (" + std::to_string(move.from) + " -> " +
               std::to_string(move.to) + ", epoch " +
               std::to_string(move.epoch) + "): " + why});
    };
    if (move.epoch != dht_.epoch())
      bad("stale epoch (installed " + std::to_string(dht_.epoch()) + ")");
    if (move.from == move.to) bad("does not move ownership");
    if (dht_.node_for_partition(partition) != move.to)
      bad("target is not the installed epoch's owner (" +
          std::to_string(dht_.node_for_partition(partition)) + ")");
  }
  return total;
}

std::size_t StashCluster::preload(const AggregationQuery& query) {
  std::size_t inserted = 0;
  for (const auto& partition :
       geohash::covering(query.area, config_.partition_prefix_length)) {
    // Warm whoever is *serving* the partition — mid-handoff that is still
    // the old owner, and warming anyone else would be wasted work.
    const NodeId owner = serving_owner(partition);
    if (!fault_.alive(owner)) continue;  // a dead node cannot warm its cache
    Node& node = *nodes_[owner];
    const Evaluation eval =
        node.evaluate(partition, query, EvalMode::Cached);
    inserted += node.absorb(eval, query.res, loop_.now()).cells_absorbed;
  }
  return inserted;
}

void StashCluster::clear_caches() {
  for (auto& node : nodes_) {
    write_graphs(*node, [&node] {
      node->graph.clear();
      node->guest_graph.clear();
    });
    node->routing.purge(loop_.now() + config_.stash.routing_ttl * 2,
                        config_.stash.routing_ttl);
  }
}

void StashCluster::invalidate_block(const std::string& partition,
                                    std::int64_t day) {
  for (auto& node : nodes_)
    write_graphs(*node, [&] {
      node->graph.invalidate_block(partition, day);
      node->guest_graph.invalidate_block(partition, day);
    });
}

std::uint64_t StashCluster::ingest_update(const std::string& partition,
                                          std::int64_t day) {
  const std::uint64_t version = store_.ingest_update(BlockKey{partition, day});
  invalidate_block(partition, day);
  return version;
}

}  // namespace stash::cluster
