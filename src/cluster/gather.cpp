// Scatter/gather: the front-end splits each query into per-partition
// subqueries, drives every attempt (failover, guest reroute, retry,
// pushback) and merges the returned Cell summaries.
#include "cluster/cluster.hpp"

#include <algorithm>
#include <stdexcept>

namespace stash::cluster {

namespace {
constexpr std::size_t kResponseCellBytes = 12;  // cell id + aggregate
constexpr std::size_t kResponseHeaderBytes = 128;  // framing beside the Cells
/// Front-end parse/render overhead added to every query's latency.
constexpr sim::SimTime kFrontendOverhead = 1 * sim::kMillisecond;
/// Retry tokens each exact subquery response refills (retry_budget > 0).
constexpr double kRetryRefillPerSuccess = 0.5;
}  // namespace

std::vector<ChunkKey> StashCluster::subquery_chunks(
    const AggregationQuery& query, const std::string& partition) const {
  const BoundingBox clipped = query.area.intersection(geohash::decode(partition));
  if (!clipped.valid()) return {};
  return chunk_covering(clipped, query.time, query.res,
                        config_.stash.chunk_precision);
}

void StashCluster::submit(const AggregationQuery& query, RichCallback done) {
  submit_impl(query, nullptr, std::move(done));
}

void StashCluster::submit(const AggregationQuery& query, Callback done) {
  submit_impl(query, std::move(done), nullptr);
}

void StashCluster::submit_impl(const AggregationQuery& query, Callback done,
                               RichCallback done_rich) {
  if (!query.valid()) throw std::invalid_argument("StashCluster: invalid query");
  const std::uint64_t id = next_query_id_++;
  Pending pending;
  pending.query = query;
  pending.done = std::move(done);
  pending.done_rich = std::move(done_rich);
  pending.stats.query_id = id;
  pending.stats.submitted_at = loop_.now();
  pending.root_span = tracer_.start_trace(id, "query", loop_.now());
  pending.scatter_span =
      tracer_.start_span(id, pending.root_span, "scatter", loop_.now());
  if (config_.query_deadline > 0) {
    pending.deadline = loop_.now() + config_.query_deadline;
    pending.stats.deadline = pending.deadline;
    tracer_.tag(id, pending.root_span, "deadline_us",
                std::to_string(pending.deadline));
  }
  pending.retry_tokens = config_.retry_budget;
  const auto partitions =
      geohash::covering(query.area, config_.partition_prefix_length);
  pending.remaining = partitions.size();
  pending.stats.subqueries = partitions.size();
  pending.subqueries.reserve(partitions.size());
  pending.stats.coverage.reserve(partitions.size());
  for (const auto& partition : partitions) {
    Subquery sq;
    sq.partition = partition;
    pending.subqueries.push_back(std::move(sq));
    PartitionCoverage cov;
    cov.partition = partition;
    cov.served_res = query.res;
    pending.stats.coverage.push_back(std::move(cov));
  }
  pending_.emplace(id, std::move(pending));
  if (config_.query_deadline > 0) {
    pending_.find(id)->second.deadline_timer = loop_.schedule_cancellable(
        config_.query_deadline, [this, id] { on_query_deadline(id); });
  }
  for (std::size_t i = 0; i < partitions.size(); ++i) start_attempt(id, i);
  if (partitions.empty()) {
    // Degenerate covering: complete with an empty payload instead of
    // leaking a Pending entry that quiescence can never drain.
    pending_.find(id)->second.remaining = 1;
    complete_subquery(id);
  }
}

void StashCluster::start_attempt(std::uint64_t query_id, std::size_t idx) {
  const auto it = pending_.find(query_id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  Subquery& sq = pending.subqueries[idx];
  if (sq.done) return;
  ++sq.attempts;
  const SubqueryAttempt a{query_id, idx, sq.attempts};
  if (a.attempt == 1) {
    sq.span = tracer_.start_span(query_id, pending.scatter_span,
                                 "subquery " + sq.partition, loop_.now());
  }
  if (a.attempt > 1) {
    counters_.subquery_retries.inc();
    ++pending.stats.retries;
  }
  sq.forwarded_to.reset();

  // Handoff-aware routing: while a rebalance move is in flight the *old*
  // owner keeps answering; the instant the move flips, the ring owner
  // does.  A query racing the flip is answered by whichever side holds the
  // handoff — never neither.
  const NodeId owner = serving_owner(sq.partition);
  NodeId target = owner;
  if (config_.failover_to_successor && !reachable(owner)) {
    // The owner's partition lives on durable storage every node can reach,
    // so the next live ring successor re-scans it from disk.  Liveness is
    // the gossip view plus the timeout circuit breaker: a partitioned or
    // dead owner is routed around before paying a single timeout.
    const std::uint32_t ring_size =
        static_cast<std::uint32_t>(dht_.ring().members.size());
    // k = 0 is the ring owner itself — normally `owner`, but during a
    // handoff it is the pulling side, the best possible failover target.
    for (std::uint32_t k = 0; k < ring_size; ++k) {
      const NodeId candidate = dht_.successor_for_partition(sq.partition, k);
      if (candidate != owner && reachable(candidate)) {
        target = candidate;
        break;
      }
    }
  }
  if (target != owner) {
    counters_.failovers.inc();
    ++pending.stats.failovers;
  }
  sq.target = target;
  sq.attempt_span = tracer_.start_span(
      query_id, sq.span, "attempt " + std::to_string(a.attempt), loop_.now());
  tracer_.tag(query_id, sq.attempt_span, "target", std::to_string(target));
  if (target != owner)
    tracer_.tag(query_id, sq.attempt_span, "failover", "true");

  // Deadline propagation: an attempt only gets the query's remaining
  // budget, so a retry near the deadline times out (and is reaped by the
  // deadline timer) instead of outliving the query.
  sim::SimTime timeout = config_.subquery_timeout;
  if (pending.deadline != 0) {
    const sim::SimTime remaining = pending.deadline - loop_.now();
    if (remaining <= 0) return;  // the deadline timer owns this cut
    timeout = timeout > 0 ? std::min(timeout, remaining) : remaining;
  }
  if (timeout > 0) {
    sq.timeout = loop_.schedule_cancellable(
        timeout, [this, a] { on_subquery_timeout(a); });
  }
  // Rerouting to a guest helper only makes sense at the partition's owner:
  // a failover successor serves from storage.
  const bool allow_reroute = target == owner;
  send_message(sim::kFrontendNode, target, kRequestBytes,
               [this, a, target, allow_reroute] {
                 route_subquery(a, target, allow_reroute);
               });
}

std::pair<StashCluster::Pending*, StashCluster::Subquery*>
StashCluster::live_attempt(SubqueryAttempt attempt) {
  const auto it = pending_.find(attempt.query_id);
  if (it == pending_.end()) return {};
  Subquery& sq = it->second.subqueries[attempt.idx];
  if (sq.done || sq.attempts != attempt.attempt) return {};
  return {&it->second, &sq};
}

void StashCluster::on_subquery_timeout(SubqueryAttempt a) {
  Subquery* sq = live_attempt(a).second;
  if (sq == nullptr) return;
  sq->timeout = 0;
  counters_.timeouts_fired.inc();
  handle_attempt_failure(a, "timeout", /*suspect_target=*/true);
}

sim::SimTime StashCluster::retry_delay(int attempts) {
  // Exponential backoff, doubled until the clamp so a large attempt count
  // can never overflow past it (satellite fix: 2^(k-1) * retry_backoff was
  // unbounded).
  sim::SimTime delay = config_.retry_backoff;
  for (int i = 1; i < attempts; ++i) {
    if (config_.max_retry_backoff > 0 && delay >= config_.max_retry_backoff)
      break;
    delay <<= 1;
  }
  if (config_.max_retry_backoff > 0)
    delay = std::min(delay, config_.max_retry_backoff);
  if (config_.retry_jitter > 0.0) {
    const double factor =
        1.0 + config_.retry_jitter * frontend_rng_.uniform(-1.0, 1.0);
    delay = std::max<sim::SimTime>(
        0, static_cast<sim::SimTime>(static_cast<double>(delay) * factor));
  }
  return delay;
}

void StashCluster::handle_attempt_failure(SubqueryAttempt a,
                                          const char* reason,
                                          bool suspect_target) {
  const auto [pending, sq] = live_attempt(a);
  if (sq == nullptr) return;
  if (sq->timeout != 0) {
    loop_.cancel(sq->timeout);
    sq->timeout = 0;
  }
  // At or past the deadline the cut belongs to the deadline timer, which
  // fires at this same instant and reports the whole query honestly.
  if (pending->deadline != 0 && loop_.now() >= pending->deadline) return;
  tracer_.tag(a.query_id, sq->attempt_span, "outcome", reason);
  tracer_.end_span(a.query_id, sq->attempt_span, loop_.now());
  if (suspect_target) {
    // Open the circuit breaker: later attempts (and other queries) route
    // around the silent node instead of paying the timeout again.
    suspect(sq->target);
    if (sq->forwarded_to.has_value()) {
      suspect(*sq->forwarded_to);
      // The owner's routing entries point at a helper that went dark:
      // invalidate them so the retry (and every later query) stays local.
      if (fault_.alive(sq->target))
        nodes_[sq->target]->routing.drop_helper(*sq->forwarded_to);
    }
  }
  if (sq->attempts >= config_.subquery_max_attempts) {
    fail_subquery(a.query_id, a.idx);
    return;
  }
  const sim::SimTime delay = retry_delay(sq->attempts);
  if (pending->deadline != 0 && loop_.now() + delay >= pending->deadline) {
    // The retry could never answer in time: fail now instead of queueing
    // work whose response nobody will read.
    tracer_.tag(a.query_id, sq->span, "retry_abandoned", "deadline");
    fail_subquery(a.query_id, a.idx);
    return;
  }
  if (config_.retry_budget > 0) {
    // Per-query token bucket: retries beyond the budget are suppressed so
    // they can never multiply offered load past a configured factor (the
    // metastable-retry-storm guard).
    if (pending->retry_tokens < 1.0) {
      counters_.retries_suppressed.inc();
      tracer_.tag(a.query_id, sq->span, "retry_suppressed", "budget");
      fail_subquery(a.query_id, a.idx);
      return;
    }
    pending->retry_tokens -= 1.0;
  }
  loop_.schedule(delay, [this, a] { start_attempt(a.query_id, a.idx); });
}

void StashCluster::handle_server_pushback(NodeId node_id, SubqueryAttempt a,
                                          sim::Outcome outcome, bool guest) {
  const auto [pending, sq] = live_attempt(a);
  if (sq == nullptr) return;

  if (outcome == sim::Outcome::kDropped) {
    // The node crashed with our job aboard.  reset() notifying is the
    // whole point of the drop outcome: the front-end reacts immediately
    // (connection-reset semantics) instead of waiting out the timeout.
    suspect(node_id);
    if (sq->forwarded_to.has_value() && *sq->forwarded_to == node_id &&
        fault_.alive(sq->target))
      nodes_[sq->target]->routing.drop_helper(node_id);
    handle_attempt_failure(a, "dropped", /*suspect_target=*/false);
    return;
  }

  const bool shed = outcome == sim::Outcome::kShed;
  if (shed)
    counters_.subqueries_shed.inc();
  else
    counters_.subqueries_expired.inc();
  ++pending->stats.shed_subqueries;
  const char* cause = shed ? "shed" : "expired";
  tracer_.tag(a.query_id, sq->attempt_span, "pushback", cause);

  // Admission control pushed back.  A coarse cached answer beats both a
  // retry (more load on a node that just said "too busy") and a hole in
  // the result: serve the nearest PLM-complete ancestor level if the node
  // has one.  Guest helpers skip this — their graph holds only the hot
  // Clique, so the owner (via the retry path) is the better bet.
  if (!guest && config_.degraded_answers &&
      config_.mode != SystemMode::Basic && fault_.alive(node_id)) {
    Node& node = *nodes_[node_id];
    auto deg = std::make_shared<DegradedEvaluation>(
        node.engine.evaluate_degraded(sq->partition, pending->query));
    if (deg->found) {
      // Assembling from cache is the cheap path, but not free: charge the
      // PLM probes and per-cell merge before the response leaves the node.
      // It bypasses the worker queue by design — shedding exists precisely
      // so this fallback never waits behind the overload that caused it.
      const sim::SimTime synth =
          config_.cost.cache_probes(deg->eval.breakdown.cache_probes) +
          config_.cost.merge(deg->eval.cells.size());
      const std::size_t bytes =
          deg->eval.cells.size() * kResponseCellBytes + kResponseHeaderBytes;
      loop_.schedule(synth, [this, node_id, bytes, a, deg, cause] {
        if (!fault_.alive(node_id)) return;  // died before it could answer
        send_message(node_id, sim::kFrontendNode, bytes,
                     [this, a, deg, cause] { deliver_degraded(a, deg, cause); });
      });
      return;
    }
  }
  // Nothing cached to degrade to: the rejection travels back to the
  // front-end as a cheap NACK and the normal retry machinery takes over.
  send_message(node_id, sim::kFrontendNode, kAckBytes, [this, a, cause] {
    handle_attempt_failure(a, cause, /*suspect_target=*/false);
  });
}

void StashCluster::deliver_degraded(
    SubqueryAttempt a, const std::shared_ptr<DegradedEvaluation>& deg,
    const char* cause) {
  const auto [pending, sq] = live_attempt(a);
  if (sq == nullptr) return;  // late duplicate: ignore
  // coarsening_steps == 0 means the node's cache held the *exact* level in
  // full — the shed job would have produced this very answer.
  const bool exact = deg->coarsening_steps == 0;
  settle_subquery(a.query_id, *pending, a.idx, exact ? "ok" : "degraded",
                  &deg->eval, deg->served_res);
  tracer_.tag(a.query_id, sq->attempt_span, "cause", cause);
  if (!exact) {
    tracer_.tag(a.query_id, sq->span, "served_res",
                deg->served_res.to_string());
    tracer_.tag(a.query_id, sq->span, "coarsening_steps",
                std::to_string(deg->coarsening_steps));
    ++pending->stats.degraded_subqueries;
    counters_.degraded_subqueries.inc();
  }
  absolve(sq->target);  // the node answered: alive, just busy
  complete_subquery(a.query_id);
}

void StashCluster::settle_subquery(std::uint64_t query_id, Pending& pending,
                                   std::size_t idx, const char* outcome,
                                   Evaluation* answer,
                                   const Resolution& served_res) {
  Subquery& sq = pending.subqueries[idx];
  sq.done = true;
  if (sq.timeout != 0) {
    loop_.cancel(sq.timeout);
    sq.timeout = 0;
  }
  tracer_.tag(query_id, sq.attempt_span, "outcome", outcome);
  tracer_.end_span(query_id, sq.attempt_span, loop_.now());
  PartitionCoverage& cov = pending.stats.coverage[idx];
  cov.attempts = sq.attempts;
  if (answer == nullptr) {  // kind stays kMissing
    tracer_.tag(query_id, sq.span, "outcome", outcome);
  } else {
    tracer_.tag(query_id, sq.span, "cells",
                std::to_string(answer->cells.size()));
    cov.kind = served_res == pending.query.res
                   ? PartitionCoverage::Kind::kExact
                   : PartitionCoverage::Kind::kDegraded;
    cov.served_res = served_res;
  }
  tracer_.tag(query_id, sq.span, "attempts", std::to_string(sq.attempts));
  tracer_.end_span(query_id, sq.span, loop_.now());
  if (answer == nullptr) return;
  pending.stats.breakdown += answer->breakdown;
  pending.stats.result_cells += answer->cells.size();
  if (!pending.done_rich) return;
  for (auto& [key, summary] : answer->cells) {
    auto [cell_it, inserted] =
        pending.cells.try_emplace(key, std::move(summary));
    if (!inserted) cell_it->second.merge(summary);
  }
}

void StashCluster::open_merge(std::uint64_t query_id, Pending& pending) {
  tracer_.end_span(query_id, pending.scatter_span, loop_.now());
  pending.merge_span =
      tracer_.start_span(query_id, pending.root_span, "merge", loop_.now());
  tracer_.tag(query_id, pending.merge_span, "cells",
              std::to_string(pending.stats.result_cells));
}

void StashCluster::on_query_deadline(std::uint64_t query_id) {
  const auto it = pending_.find(query_id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  pending.deadline_timer = 0;
  // Gather already complete: the merge event is scheduled at or before the
  // deadline (complete_subquery clamps it), so it lands at this same
  // instant — nothing to cut.
  if (pending.remaining == 0) return;
  counters_.deadline_cut_queries.inc();
  for (std::size_t i = 0; i < pending.subqueries.size(); ++i) {
    if (pending.subqueries[i].done) continue;
    settle_subquery(query_id, pending, i, "deadline");
    ++pending.stats.deadline_subqueries;
    counters_.deadline_cut_subqueries.inc();
  }
  // Whatever has arrived is the answer: close the scatter, open a
  // zero-width merge (the budget is spent), and hand the result back *at*
  // the deadline, never after it.
  open_merge(query_id, pending);
  tracer_.tag(query_id, pending.root_span, "deadline_cut", "true");
  pending.remaining = 0;
  finalize_query(query_id);
}

void StashCluster::fail_subquery(std::uint64_t query_id, std::size_t idx) {
  const auto it = pending_.find(query_id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  Subquery& sq = pending.subqueries[idx];
  if (sq.done) return;
  // handle_attempt_failure already closed the attempt with its reason.
  sq.attempt_span = obs::kNoSpan;
  settle_subquery(query_id, pending, idx, "failed");
  ++pending.stats.failed_subqueries;
  counters_.failed_subqueries.inc();
  complete_subquery(query_id);
}

void StashCluster::route_subquery(SubqueryAttempt a, NodeId target,
                                  bool allow_reroute) {
  const auto [pending, sq] = live_attempt(a);
  if (sq == nullptr) return;
  Node& node = *nodes_[target];

  if (config_.mode == SystemMode::Stash && allow_reroute &&
      !node.routing.empty()) {
    const auto chunks = subquery_chunks(pending->query, sq->partition);
    const auto helper = node.routing.lookup(pending->query.res, chunks,
                                            loop_.now(), config_.stash.routing_ttl);
    // Dispatch-time staleness check: a routing entry pointing at a host
    // the owner's own gossip view no longer considers alive is skipped
    // (and the state handler has usually dropped it already).
    if (helper.has_value() && !suspected(*helper) &&
        membership_->usable(target, *helper) &&
        node.rng.bernoulli(config_.stash.reroute_probability)) {
      counters_.reroutes.inc();
      ++pending->stats.rerouted_subqueries;
      tracer_.tag(a.query_id, sq->attempt_span, "reroute",
                  std::to_string(*helper));
      sq->forwarded_to = *helper;
      send_message(target, *helper, kRequestBytes,
                   [this, helper = *helper, owner = target, a] {
                     enqueue_guest(helper, owner, a);
                   });
      return;
    }
  }
  enqueue_local(target, a);
}

void StashCluster::enqueue_local(NodeId node_id, SubqueryAttempt a) {
  Node& node = *nodes_[node_id];
  const EvalMode mode = config_.mode == SystemMode::Basic ? EvalMode::Basic
                                                          : EvalMode::Cached;
  const auto pit = pending_.find(a.query_id);
  const sim::SimTime deadline =
      pit != pending_.end() ? pit->second.deadline : 0;
  auto slot = std::make_shared<Evaluation>();
  auto exec_partial = std::make_shared<bool>(false);
  node.server.submit(
      [this, &node, a, mode, slot, exec_partial]() -> sim::SimTime {
        const auto [pending, sq] = live_attempt(a);
        if (sq == nullptr) return 0;  // superseded
        // On the wall-clock datapath an expired or fault-hit batch comes
        // back partial; the completion below reroutes it through the
        // pushback taxonomy instead of delivering a half answer.
        *slot = node.evaluate(sq->partition, pending->query, mode,
                              config_.exec_deadline_ms, exec_partial.get());
        return service_time(slot->breakdown);
      },
      [this, &node, a, slot, exec_partial](sim::Outcome outcome) {
        // The wall-clock engine gave up on its deadline (or quarantined a
        // faulted chunk): same taxonomy as a queue-expired job — degraded
        // cached ancestor if resident, else the retry path.
        if (outcome == sim::Outcome::kOk && *exec_partial)
          outcome = sim::Outcome::kDeadlineExceeded;
        const auto [pending, sq] =
            finish_serve(node.id, a, outcome, slot->breakdown, /*guest=*/false);
        if (sq == nullptr) return;
        // Background maintenance: populate the graph off the response path.
        if (config_.mode != SystemMode::Basic &&
            (!slot->fetched.empty() || !slot->touched_chunks.empty())) {
          const Resolution res = pending->query.res;
          auto maintenance_slot = slot;
          node.maintenance.submit([this, &node, res,
                                   maintenance_slot]() -> sim::SimTime {
            const MaintenanceStats stats =
                node.absorb(*maintenance_slot, res, loop_.now());
            const sim::SimTime t = maintenance_time(stats);
            counters_.maintenance_tasks.inc();
            counters_.maintenance_time_us.inc(static_cast<std::uint64_t>(t));
            maintenance_service_us_.observe(static_cast<double>(t));
            return t;
          });
        }
        send_response(node.id, a, slot);
        // Re-check as the queue drains: a *cold* hotspot has nothing to
        // replicate at arrival time, but once maintenance populates the
        // graph a handoff becomes possible.
        maybe_start_handoff(node.id);
      },
      deadline);
  maybe_start_handoff(node_id);
}

void StashCluster::enqueue_guest(NodeId helper_id, NodeId owner_id,
                                 SubqueryAttempt a) {
  Node& helper = *nodes_[helper_id];
  const auto pit = pending_.find(a.query_id);
  const sim::SimTime deadline =
      pit != pending_.end() ? pit->second.deadline : 0;
  auto slot = std::make_shared<Evaluation>();
  helper.server.submit(
      [this, &helper, a, slot]() -> sim::SimTime {
        const auto [pending, sq] = live_attempt(a);
        if (sq == nullptr) return 0;
        // Lazily purge idle guest Cliques before serving (§VII-D).
        helper.guest_graph.purge_older_than(loop_.now(), config_.stash.guest_ttl);
        *slot = helper.guest_engine.evaluate_partition(
            sq->partition, pending->query, EvalMode::CacheOnly);
        return service_time(slot->breakdown);
      },
      [this, &helper, owner_id, a, slot](sim::Outcome outcome) {
        const auto [pending, sq] =
            finish_serve(helper.id, a, outcome, slot->breakdown, /*guest=*/true);
        if (sq == nullptr) return;
        if (slot->breakdown.chunks_missing > 0) {
          // Replica purged or incomplete: fall back to the owning node
          // (no further rerouting to avoid a loop).  The helper answered,
          // so it is no longer the one a timeout should blame.
          counters_.guest_fallbacks.inc();
          tracer_.tag(a.query_id, sq->attempt_span, "guest_fallback",
                      std::to_string(owner_id));
          sq->forwarded_to.reset();
          send_message(helper.id, owner_id, kRequestBytes,
                       [this, owner_id, a] { enqueue_local(owner_id, a); });
          return;
        }
        // Keep served guest regions fresh so the TTL purge spares them.
        helper.guest_engine.absorb(*slot, pending->query.res, loop_.now());
        send_response(helper.id, a, slot);
      },
      deadline);
}

std::pair<StashCluster::Pending*, StashCluster::Subquery*>
StashCluster::finish_serve(NodeId node_id, SubqueryAttempt a,
                           sim::Outcome outcome, const EvalBreakdown& b,
                           bool guest) {
  if (outcome != sim::Outcome::kOk) {
    handle_server_pushback(node_id, a, outcome, guest);
    return {};
  }
  counters_.subqueries_processed.inc();
  const auto live = live_attempt(a);
  if (live.second == nullptr) return live;
  subquery_service_us_.observe(static_cast<double>(service_time(b)));
  record_serve_spans(a.query_id, live.second->attempt_span, node_id, b, guest);
  return live;
}

void StashCluster::send_response(NodeId node_id, SubqueryAttempt a,
                                 std::shared_ptr<Evaluation> eval) {
  const std::size_t bytes =
      eval->cells.size() * kResponseCellBytes + kResponseHeaderBytes;
  send_message(node_id, sim::kFrontendNode, bytes,
               [this, a, eval = std::move(eval)] {
                 deliver_response(a, std::move(*eval));
               });
}

void StashCluster::deliver_response(SubqueryAttempt a, Evaluation&& eval) {
  const auto [pending, sq] = live_attempt(a);
  if (sq == nullptr) return;  // late duplicate: ignore
  settle_subquery(a.query_id, *pending, a.idx, "ok", &eval,
                  pending->query.res);
  if (!eval.corrupt_blocks.empty()) {
    // A scanned block failed its checksum: the day's records were withheld
    // (never merged, never absorbed), so the answer has an honest hole.
    pending->stats.corrupt_blocks += eval.corrupt_blocks.size();
    tracer_.tag(a.query_id, sq->span, "corrupt_blocks",
                std::to_string(eval.corrupt_blocks.size()));
  }
  // Evidence of life closes the circuit breaker.
  absolve(sq->target);
  if (sq->forwarded_to.has_value()) absolve(*sq->forwarded_to);
  // An exact success refills the retry token bucket (capped at the initial
  // budget): a mostly-healthy query keeps its ability to retry stragglers.
  if (config_.retry_budget > 0)
    pending->retry_tokens =
        std::min(config_.retry_budget,
                 pending->retry_tokens + kRetryRefillPerSuccess);
  complete_subquery(a.query_id);
}

void StashCluster::complete_subquery(std::uint64_t query_id) {
  const auto it = pending_.find(query_id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  if (--pending.remaining > 0) return;
  // Gather complete: charge the front-end merge + render overhead.  Under
  // a deadline the charge is clamped to the remaining budget — the result
  // is handed back at the deadline at the latest, never after it.
  sim::SimTime finish =
      kFrontendOverhead + config_.cost.merge(pending.stats.result_cells);
  if (pending.deadline != 0)
    finish = std::min(
        finish, std::max<sim::SimTime>(0, pending.deadline - loop_.now()));
  // Scatter is over the instant the last subquery drains; the merge span
  // covers the front-end merge + render and ends with the root, so
  // scatter.duration + merge.duration == QueryStats::latency().
  open_merge(query_id, pending);
  loop_.schedule(finish, [this, query_id] { finalize_query(query_id); });
}

void StashCluster::finalize_query(std::uint64_t query_id) {
  const auto done_it = pending_.find(query_id);
  if (done_it == pending_.end()) return;
  Pending finished = std::move(done_it->second);
  pending_.erase(done_it);
  if (finished.deadline_timer != 0) loop_.cancel(finished.deadline_timer);
  finished.stats.completed_at = loop_.now();
  if (finished.stats.corrupt_blocks > 0) {
    // Corrupt days were withheld, never served wrong: the answer has holes
    // and must say so.
    finished.stats.partial = true;
    counters_.corrupt_queries.inc();
  }
  if (finished.stats.failed_subqueries > 0 ||
      finished.stats.deadline_subqueries > 0)
    finished.stats.partial = true;
  if (finished.stats.partial) counters_.partial_queries.inc();
  if (finished.stats.degraded_subqueries > 0) {
    finished.stats.degraded = true;
    counters_.degraded_queries.inc();
  }
  counters_.queries_completed.inc();
  query_latency_us_.observe(static_cast<double>(finished.stats.latency()));
  tracer_.end_span(query_id, finished.merge_span, loop_.now());
  tracer_.tag(query_id, finished.root_span, "result_cells",
              std::to_string(finished.stats.result_cells));
  tracer_.tag(query_id, finished.root_span, "subqueries",
              std::to_string(finished.stats.subqueries));
  if (finished.stats.partial)
    tracer_.tag(query_id, finished.root_span, "partial", "true");
  if (finished.stats.degraded)
    tracer_.tag(query_id, finished.root_span, "degraded", "true");
  if (finished.stats.corrupt_blocks > 0)
    tracer_.tag(query_id, finished.root_span, "corrupt_blocks",
                std::to_string(finished.stats.corrupt_blocks));
  tracer_.end_span(query_id, finished.root_span, loop_.now());
  if (finished.done) finished.done(finished.stats);
  if (finished.done_rich)
    finished.done_rich(finished.stats, std::move(finished.cells));
}

void StashCluster::check_quiescence() const {
#ifdef STASH_AUDIT
  // Satellite guard: every message offered to the network must have rolled
  // the fault injector's drop dice exactly once — a skipped or double
  // should_drop() desynchronizes the deterministic fault stream.
  if (fault_.stats().drop_checks != messages_sent_)
    throw std::logic_error(
        "StashCluster: fault drop_checks (" +
        std::to_string(fault_.stats().drop_checks) + ") != messages sent (" +
        std::to_string(messages_sent_) + ")");
#endif
  if (pending_.empty()) return;
  throw std::runtime_error(
      "StashCluster: " + std::to_string(pending_.size()) +
      " quer(y/ies) survived quiescence — a subquery was lost and never "
      "timed out; enable subquery_timeout or fix the scatter/gather path");
}

QueryStats StashCluster::run_query(const AggregationQuery& query,
                                   CellSummaryMap* cells_out) {
  QueryStats out;
  if (cells_out != nullptr)
    submit(query, [&out, cells_out](const QueryStats& stats,
                                    CellSummaryMap&& cells) {
      out = stats;
      *cells_out = std::move(cells);
    });
  else
    submit(query, [&out](const QueryStats& stats) { out = stats; });
  loop_.run();
  check_quiescence();
  return out;
}

std::vector<QueryStats> StashCluster::run_burst(
    const std::vector<AggregationQuery>& queries) {
  std::vector<QueryStats> out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i)
    submit(queries[i], [&out, i](const QueryStats& stats) { out[i] = stats; });
  loop_.run();
  check_quiescence();
  return out;
}

std::vector<QueryStats> StashCluster::run_open_loop(
    const std::vector<AggregationQuery>& queries, sim::SimTime interarrival) {
  std::vector<QueryStats> out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    loop_.schedule(static_cast<sim::SimTime>(i) * interarrival,
                   [this, &out, i, query = queries[i]] {
                     submit(query, [&out, i](const QueryStats& stats) {
                       out[i] = stats;
                     });
                   });
  }
  loop_.run();
  check_quiescence();
  return out;
}

std::vector<QueryStats> StashCluster::run_sequence(
    const std::vector<AggregationQuery>& queries) {
  std::vector<QueryStats> out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    submit(queries[i], [&out, i](const QueryStats& stats) { out[i] = stats; });
    loop_.run();
    check_quiescence();
  }
  return out;
}

}  // namespace stash::cluster
