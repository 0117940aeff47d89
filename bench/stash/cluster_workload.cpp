// The cluster workload of bench_stash: a 16-node StashCluster with four
// standby slots, run on the sim thread alone (exec_threads = 0).
//
// One round is a fresh cluster plus a warm query (set-up), then five
// timed phases: a Fig-6d burst of county queries around one hot point
// (open loop, 10 µs sim spacing), joining the four standbys until the
// ring is stable, crashing and restarting the hot partition's owner
// (queries fail over meanwhile; anti-entropy re-warms it on restart), a
// second burst, and a closed-loop session of 50 pans through run_query.
// Rounds cycle over eight hot points drawn from the seed, each in its
// own DHT partition with everything it asks for inside that partition,
// so every seed hits one owner per burst.
//
// The outage and session answers of a round must equal the sequential
// QueryEngine oracle over the same queries; a query fails when it comes
// back partial, degraded or with a failed subquery.
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "harness.hpp"
#include "workload/workload.hpp"

namespace stash::bench {
namespace {

constexpr std::uint32_t kNodes = 16;
constexpr std::uint32_t kSlots = 20;
constexpr std::size_t kHotPoints = 8;
constexpr sim::SimTime kBurstSpacing = 10 * sim::kMicrosecond;
/// Long enough for every gossip view to declare a crashed node dead, or
/// to accept its restart.
constexpr sim::SimTime kGossipSettle = 6 * sim::kSecond;
constexpr int kPartitionPrefix = 2;  // ClusterConfig::partition_prefix_length

struct RoundInputs {
  AggregationQuery warm;
  std::vector<AggregationQuery> burst1, outage, burst2, session;
  std::string hot_partition;
};

/// `n` queries panned up to 10% of their extent around `base` (Fig 6d).
std::vector<AggregationQuery> pans_around(const AggregationQuery& base,
                                          std::size_t n, Rng& rng) {
  std::vector<AggregationQuery> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    AggregationQuery q = base;
    q.area = base.area.translated(0.1 * base.area.height() * rng.uniform(-1.0, 1.0),
                                  0.1 * base.area.width() * rng.uniform(-1.0, 1.0));
    out.push_back(q);
  }
  return out;
}

/// Inputs of every hot point: distinct partitions wholly inside the
/// workload domain, each hot point placed so the warm box (four times
/// the county extent, holding every pan) stays inside its partition.
std::vector<RoundInputs> make_inputs(std::uint64_t seed, std::size_t hot_points,
                                     bool smoke) {
  const workload::WorkloadGenerator gen;
  const BoundingBox domain = gen.config().domain;
  std::vector<std::string> inside;
  for (const std::string& p : geohash::covering(domain, kPartitionPrefix)) {
    const BoundingBox box = geohash::decode(p);
    if (box.lat_min >= domain.lat_min && box.lat_max <= domain.lat_max &&
        box.lng_min >= domain.lng_min && box.lng_max <= domain.lng_max)
      inside.push_back(p);
  }
  Rng rng(stream_seed(seed, "cluster"));
  std::vector<RoundInputs> out;
  for (const std::size_t pick : pick_distinct(hot_points, inside.size(), rng)) {
    const BoundingBox partition = geohash::decode(inside[pick]);
    const workload::Extent county = workload::extent_of(workload::QueryGroup::County);
    // How far the warm box (4x the county extent per axis) may move off
    // the partition's centre and stay inside.
    const double slack_lat = (partition.height() - 4.0 * county.dlat) / 2.0;
    const double slack_lng = (partition.width() - 4.0 * county.dlng) / 2.0;
    const LatLng centre = partition.center();
    const AggregationQuery base = gen.query_at(
        workload::QueryGroup::County,
        {centre.lat + 0.9 * slack_lat * rng.uniform(-1.0, 1.0),
         centre.lng + 0.9 * slack_lng * rng.uniform(-1.0, 1.0)});
    RoundInputs in;
    in.warm = base;
    in.warm.area = base.area.scaled(16.0);
    const std::size_t burst = smoke ? 100 : 1000;
    in.burst1 = pans_around(base, burst, rng);
    in.outage = pans_around(base, 8, rng);
    in.burst2 = pans_around(base, burst, rng);
    in.session = pans_around(base, smoke ? 5 : 50, rng);
    in.hot_partition = inside[pick];
    out.push_back(std::move(in));
  }
  return out;
}

cluster::ClusterConfig cluster_config() {
  cluster::ClusterConfig config;
  config.num_nodes = kNodes;
  config.max_nodes = kSlots;
  config.exec_threads = 0;
  config.stash.hotspot_queue_threshold = 100;  // §VIII-E
  return config;
}

struct RoundResult {
  double setup_s = 0.0;
  std::uint64_t burst_ns = 0, rebalance_ns = 0, recovery_ns = 0, session_ns = 0;
  std::size_t burst_queries = 0;
  std::size_t queries = 0;
  std::size_t failed = 0;
  bool stable = true;
  std::uint64_t events = 0;  // sim events run inside the timed phases
  std::uint64_t digest = kChecksumSeed;  // outage + session answers
  std::vector<double> session_ms;
  std::vector<double> sim_latency_ms;
  // Deterministic per-round counts.
  EvalBreakdown breakdown;
  std::uint64_t subqueries = 0, reroutes = 0;
  cluster::ClusterMetrics metrics;
  StashGraph::Stats graphs;

  [[nodiscard]] std::uint64_t timed_ns() const {
    return burst_ns + rebalance_ns + recovery_ns + session_ns;
  }
};

void add_graph_stats(StashGraph::Stats& sum, const StashGraph::Stats& s) {
  sum.cells_absorbed += s.cells_absorbed;
  sum.freshness_touches += s.freshness_touches;
  sum.cells_evicted += s.cells_evicted;
  sum.chunks_invalidated += s.chunks_invalidated;
}

RoundResult run_round(const RoundInputs& in,
                      const std::shared_ptr<const NamGenerator>& generator,
                      SpanLog* trace) {
  RoundResult out;
  const auto span = [&](const char* name, std::uint64_t t0, std::uint64_t t1,
                        std::initializer_list<SpanCount> counts) {
    if (trace != nullptr) (void)trace->add(0, 0, name, t0, t1, counts);
  };
  const auto check = [&](const cluster::QueryStats& s) {
    ++out.queries;
    if (s.partial || s.degraded || s.failed_subqueries > 0) ++out.failed;
    out.sim_latency_ms.push_back(sim::to_millis(s.latency()));
    out.breakdown += s.breakdown;
    out.subqueries += s.subqueries;
    out.reroutes += s.rerouted_subqueries;
  };
  std::uint64_t t0 = now_ns();
  cluster::StashCluster c(cluster_config(), generator);
  (void)c.run_query(in.warm);
  std::uint64_t t1 = now_ns();
  out.setup_s = seconds_between(t0, t1);
  span("cluster.setup", t0, t1, {});
  sim::EventLoop& loop = c.loop();

  const auto burst = [&](const std::vector<AggregationQuery>& queries) {
    const std::uint64_t events0 = loop.executed();
    const std::uint64_t b0 = now_ns();
    const std::vector<cluster::QueryStats> stats =
        c.run_open_loop(queries, kBurstSpacing);
    const std::uint64_t b1 = now_ns();
    const std::uint64_t events = loop.executed() - events0;
    out.burst_ns += b1 - b0;
    out.burst_queries += queries.size();
    out.events += events;
    span("cluster.burst", b0, b1, {{"queries", queries.size()}, {"events", events}});
    for (const auto& s : stats) check(s);
  };

  burst(in.burst1);

  std::uint64_t events0 = loop.executed();
  t0 = now_ns();
  for (NodeId id = kNodes; id < kSlots; ++id) c.join_node(id);
  out.stable = c.run_until_stable();
  t1 = now_ns();
  out.rebalance_ns = t1 - t0;
  out.events += loop.executed() - events0;
  span("cluster.rebalance", t0, t1, {{"events", loop.executed() - events0}});

  // Outage answers are digested after the phase's timing ends.
  events0 = loop.executed();
  t0 = now_ns();
  const NodeId owner = c.serving_owner(in.hot_partition);
  c.crash_node(owner);
  (void)loop.run_for(kGossipSettle);
  std::vector<std::pair<cluster::QueryStats, CellSummaryMap>> outage;
  for (const AggregationQuery& q : in.outage) {
    CellSummaryMap cells;
    cluster::QueryStats s = c.run_query(q, &cells);
    outage.emplace_back(std::move(s), std::move(cells));
  }
  c.restart_node(owner);
  (void)loop.run();
  (void)loop.run_for(kGossipSettle);
  t1 = now_ns();
  out.recovery_ns = t1 - t0;
  out.events += loop.executed() - events0;
  span("cluster.recovery", t0, t1,
       {{"queries", in.outage.size()}, {"events", loop.executed() - events0}});
  for (auto& [s, cells] : outage) {
    check(s);
    out.digest = answer_digest(cells, out.digest);
  }

  burst(in.burst2);

  for (std::size_t i = 0; i < in.session.size(); ++i) {
    CellSummaryMap cells;
    events0 = loop.executed();
    t0 = now_ns();
    const cluster::QueryStats s = c.run_query(in.session[i], &cells);
    t1 = now_ns();
    out.session_ns += t1 - t0;
    out.events += loop.executed() - events0;
    out.session_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    if (trace != nullptr)
      (void)trace->add(i + 1, 0, "cluster.session_query", t0, t1,
                       {{"events", loop.executed() - events0},
                        {"cells", cells.size()}});
    check(s);
    out.digest = answer_digest(cells, out.digest);
  }

  out.metrics = c.metrics();
  for (NodeId id = 0; id < c.total_slots(); ++id) {
    add_graph_stats(out.graphs, c.node_graph(id).stats());
    add_graph_stats(out.graphs, c.node_guest_graph(id).stats());
  }
  return out;
}

/// Sequential QueryEngine answers to the round's outage and session
/// queries, in order, over one fresh graph.
std::uint64_t oracle_digest(const RoundInputs& in,
                            const std::shared_ptr<const NamGenerator>& generator) {
  GalileoStore store(generator);
  StashGraph graph;
  QueryEngine engine(graph, store);
  std::uint64_t digest = kChecksumSeed;
  std::size_t i = 0;
  for (const auto* queries : {&in.outage, &in.session})
    for (const AggregationQuery& q : *queries) {
      const Evaluation eval = engine.evaluate(q);
      (void)engine.absorb(eval, q.res, static_cast<sim::SimTime>(++i) * sim::kMillisecond);
      digest = answer_digest(eval.cells, digest);
    }
  return digest;
}

/// Totals over every traced round.
struct ClusterTotals {
  std::size_t rounds = 0;
  RoundResult sum;
  std::vector<double> sim_latency_ms;

  void add(const RoundResult& r) {
    ++rounds;
    sum.burst_ns += r.burst_ns;
    sum.rebalance_ns += r.rebalance_ns;
    sum.recovery_ns += r.recovery_ns;
    sum.session_ns += r.session_ns;
    sum.burst_queries += r.burst_queries;
    sum.queries += r.queries;
    sum.events += r.events;
    sum.session_ms.insert(sum.session_ms.end(), r.session_ms.begin(), r.session_ms.end());
    sim_latency_ms.insert(sim_latency_ms.end(), r.sim_latency_ms.begin(),
                          r.sim_latency_ms.end());
    sum.breakdown += r.breakdown;
    sum.subqueries += r.subqueries;
    sum.reroutes += r.reroutes;
    sum.metrics.handoffs_initiated += r.metrics.handoffs_initiated;
    sum.metrics.cells_replicated += r.metrics.cells_replicated;
    sum.metrics.rebalance_partitions_moved += r.metrics.rebalance_partitions_moved;
    sum.metrics.chunks_rewarmed += r.metrics.chunks_rewarmed;
    add_graph_stats(sum.graphs, r.graphs);
  }

  [[nodiscard]] LayerValues values(double overhead_frac) const {
    const auto d = [](auto v) { return static_cast<double>(v); };
    const double n = d(rounds);
    const EvalBreakdown& b = sum.breakdown;
    return {
        {"exec.chunks_per_query", ratio(d(b.chunks_total), d(sum.queries))},
        {"core.cache_hit_ratio", ratio(d(b.chunks_from_cache), d(b.chunks_total))},
        {"core.synth_ratio", ratio(d(b.chunks_synthesized), d(b.chunks_total))},
        {"core.scan_ratio", ratio(d(b.chunks_scanned), d(b.chunks_total))},
        {"core.cells_absorbed", ratio(d(sum.graphs.cells_absorbed), n)},
        {"core.freshness_touches", ratio(d(sum.graphs.freshness_touches), n)},
        {"core.cells_evicted", ratio(d(sum.graphs.cells_evicted), n)},
        {"core.chunks_invalidated", ratio(d(sum.graphs.chunks_invalidated), n)},
        {"storage.records_scanned", ratio(d(b.scan.records_scanned), n)},
        {"storage.blocks_touched", ratio(d(b.scan.blocks_touched), n)},
        {"cluster.burst_us_per_query", ratio(d(sum.burst_ns), d(sum.burst_queries)) / 1e3},
        {"cluster.rebalance_ms", ratio(d(sum.rebalance_ns), n) / 1e6},
        {"cluster.recovery_ms", ratio(d(sum.recovery_ns), n) / 1e6},
        {"cluster.session_us", ratio(d(sum.session_ns), d(sum.session_ms.size())) / 1e3},
        {"sim.events", ratio(d(sum.events), n)},
        {"sim.host_ns_per_event", ratio(d(sum.timed_ns()), d(sum.events))},
        {"cluster.subqueries", ratio(d(sum.subqueries), n)},
        {"cluster.reroutes", ratio(d(sum.reroutes), n)},
        {"cluster.handoffs", ratio(d(sum.metrics.handoffs_initiated), n)},
        {"cluster.cells_replicated", ratio(d(sum.metrics.cells_replicated), n)},
        {"cluster.partitions_moved", ratio(d(sum.metrics.rebalance_partitions_moved), n)},
        {"cluster.chunks_rewarmed", ratio(d(sum.metrics.chunks_rewarmed), n)},
        {"cluster.sim_p50_ms", quantile(sim_latency_ms, 0.50)},
        {"cluster.sim_p99_ms", quantile(sim_latency_ms, 0.99)},
        {"trace.overhead_frac", overhead_frac},
    };
  }
};

}  // namespace

Result run_cluster_workload(const Options& options) {
  const auto generator = std::make_shared<const NamGenerator>();
  const std::vector<RoundInputs> inputs =
      make_inputs(options.seed, options.smoke ? 1 : kHotPoints, options.smoke);

  // What the oracle check needs of each round.
  struct RoundCheck {
    std::size_t hot_point = 0;
    std::uint64_t digest = 0;
    std::size_t queries = 0, failed = 0;
    bool stable = true;
  };
  std::vector<RoundCheck> checks;
  const auto keep = [&](std::size_t k, const RoundResult& r) {
    checks.push_back({k, r.digest, r.queries, r.failed, r.stable});
  };

  Result result;
  Budget budget(options);

  // Whole cycles over the hot points, so per-round averages of the
  // deterministic counts repeat exactly from run to run.
  if (!options.traced()) {
    std::vector<double> latencies_ms, round_qps, setups_s;
    do {
      for (std::size_t k = 0; k < inputs.size(); ++k) {
        const RoundResult r = run_round(inputs[k], generator, nullptr);
        round_qps.push_back(static_cast<double>(r.queries) /
                            (static_cast<double>(r.timed_ns()) / 1e9));
        setups_s.push_back(r.setup_s);
        latencies_ms.insert(latencies_ms.end(), r.session_ms.begin(), r.session_ms.end());
        keep(k, r);
      }
    } while (budget.another() || (options.smoke ? checks.size() < 2
                                                : latencies_ms.size() < kMinSamples));
    add_end_to_end(result, round_qps, latencies_ms, setups_s);
  } else {
    // Untraced and traced rounds pair up, in alternating order.
    SpanLog log;
    ClusterTotals totals;
    std::uint64_t untraced_ns = 0, traced_ns = 0;
    do {
      const bool traced_first = totals.rounds % (2 * inputs.size()) != 0;
      for (std::size_t k = 0; k < inputs.size(); ++k) {
        RoundResult traced;
        if (traced_first) traced = run_round(inputs[k], generator, &log);
        const RoundResult plain = run_round(inputs[k], generator, nullptr);
        if (!traced_first) traced = run_round(inputs[k], generator, &log);
        untraced_ns += plain.timed_ns();
        traced_ns += traced.timed_ns();
        result.trace_digest_ok = result.trace_digest_ok && plain.digest == traced.digest;
        totals.add(traced);
        keep(k, plain);
        keep(k, traced);
      }
      if (totals.rounds == inputs.size() &&
          !log.write_json(options.trace_path, UINT64_MAX))
        throw std::runtime_error("bench_stash: cannot write " + options.trace_path);
      log.clear();
    } while (budget.another());
    add_per_layer(result, totals.values(ratio(static_cast<double>(traced_ns),
                                              static_cast<double>(untraced_ns)) -
                                        1.0));
  }

  // Oracle per hot point; the workload digest chains them.
  std::vector<std::uint64_t> oracle;
  Checksum64 chain;
  for (const RoundInputs& in : inputs) {
    oracle.push_back(oracle_digest(in, generator));
    chain.mix(oracle.back());
  }
  result.digest = chain.digest();
  result.oracle_ok = true;
  for (const RoundCheck& r : checks) {
    const bool match = r.digest == oracle[r.hot_point];
    result.oracle_ok = result.oracle_ok && match;
    ++result.passes;
    result.attempted += r.queries + 1;  // + the round's rebalance
    result.failed += (match ? r.failed : r.queries) + (r.stable ? 0 : 1);
  }
  return result;
}

}  // namespace stash::bench
