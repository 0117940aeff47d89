// Failure and adversity injection for the distributed paths: purged
// replicas, rejected helpers, starved caches, and mid-burst ingest must
// degrade gracefully and never corrupt results.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/civil_time.hpp"
#include "geo/geohash.hpp"
#include "workload/workload.hpp"

namespace stash::cluster {
namespace {

std::shared_ptr<const NamGenerator> shared_generator() {
  static auto gen = std::make_shared<const NamGenerator>();
  return gen;
}

AggregationQuery county_query() {
  return {{38.0, 38.6, -99.0, -97.8},
          {unix_seconds({2015, 2, 2}), unix_seconds({2015, 2, 3})},
          {6, TemporalRes::Day}};
}

std::vector<AggregationQuery> burst_around(const AggregationQuery& base,
                                           std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<AggregationQuery> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    AggregationQuery q = base;
    q.area = base.area.translated(0.1 * base.area.height() * rng.uniform(-1, 1),
                                  0.1 * base.area.width() * rng.uniform(-1, 1));
    out.push_back(q);
  }
  return out;
}

ClusterConfig hot_config() {
  ClusterConfig config;
  config.num_nodes = 16;
  config.stash.hotspot_queue_threshold = 20;
  config.stash.reroute_probability = 0.7;
  return config;
}

/// Reference results for a set of queries from a plain basic-mode cluster.
std::vector<std::size_t> reference_cell_counts(
    const std::vector<AggregationQuery>& queries) {
  ClusterConfig config;
  config.num_nodes = 16;
  config.mode = SystemMode::Basic;
  StashCluster cluster(config, shared_generator());
  std::vector<std::size_t> out;
  out.reserve(queries.size());
  for (const auto& q : queries) out.push_back(cluster.run_query(q).result_cells);
  return out;
}

TEST(FailureInjectionTest, GuestPurgeTriggersFallbackNotCorruption) {
  // Replicas expire at the helper while routing entries survive: redirected
  // queries must fall back to the owner and still answer correctly.
  ClusterConfig config = hot_config();
  config.stash.guest_ttl = 1;           // guests purge almost immediately
  config.stash.routing_ttl = 3600 * sim::kSecond;  // routing stays "fresh"
  StashCluster cluster(config, shared_generator());

  AggregationQuery warm = county_query();
  warm.area = warm.area.scaled(16.0);
  cluster.run_query(warm);
  const auto burst = burst_around(county_query(), 300, 11);
  const auto stats = cluster.run_open_loop(burst, 20);

  const auto& m = cluster.metrics();
  ASSERT_GT(m.reroutes, 0u) << "scenario did not exercise rerouting";
  EXPECT_GT(m.guest_fallbacks, 0u) << "purged guests should force fallbacks";
  const auto expected = reference_cell_counts(burst);
  for (std::size_t i = 0; i < burst.size(); ++i)
    EXPECT_EQ(stats[i].result_cells, expected[i]) << "query " << i;
}

TEST(FailureInjectionTest, AllHelpersRefuseWhenGuestCapacityZero) {
  ClusterConfig config = hot_config();
  config.stash.guest_capacity_cells = 0;  // nobody can host replicas
  StashCluster cluster(config, shared_generator());
  AggregationQuery warm = county_query();
  warm.area = warm.area.scaled(16.0);
  cluster.run_query(warm);
  const auto burst = burst_around(county_query(), 300, 13);
  const auto stats = cluster.run_open_loop(burst, 20);

  const auto& m = cluster.metrics();
  EXPECT_GT(m.handoffs_initiated, 0u);
  EXPECT_EQ(m.cliques_replicated, 0u);
  EXPECT_GT(m.distress_rejections, 0u);
  EXPECT_EQ(m.reroutes, 0u);
  // The hotspot is slower but every answer is still produced and correct.
  const auto expected = reference_cell_counts(burst);
  for (std::size_t i = 0; i < burst.size(); ++i)
    EXPECT_EQ(stats[i].result_cells, expected[i]) << "query " << i;
}

TEST(FailureInjectionTest, StarvedCacheStillAnswersCorrectly) {
  // A pathologically small cache (smaller than a single query) must not
  // break correctness — only performance.
  ClusterConfig config;
  config.num_nodes = 16;
  config.stash.max_cells = 4;
  config.stash.safe_limit_fraction = 0.5;
  StashCluster cluster(config, shared_generator());
  const auto queries = burst_around(county_query(), 10, 17);
  const auto expected = reference_cell_counts(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto stats = cluster.run_query(queries[i]);
    EXPECT_EQ(stats.result_cells, expected[i]) << "query " << i;
  }
  EXPECT_LE(cluster.total_cached_cells(), 4u);
}

TEST(FailureInjectionTest, IngestDuringHotspotKeepsResultsFresh) {
  ClusterConfig config = hot_config();
  StashCluster cluster(config, shared_generator());
  AggregationQuery warm = county_query();
  warm.area = warm.area.scaled(16.0);
  cluster.run_query(warm);

  // Hotspot, then an ingest, then more traffic: post-ingest queries must
  // see version-1 data even where replicas/caches held version-0 cells.
  cluster.run_open_loop(burst_around(county_query(), 200, 19), 20);
  const std::string partition = geohash::encode({38.3, -98.4}, 2);
  cluster.ingest_update(partition, days_from_civil({2015, 2, 2}));

  CellSummaryMap after;
  cluster.run_query(county_query(), &after);

  ClusterConfig fresh_config;
  fresh_config.num_nodes = 16;
  fresh_config.mode = SystemMode::Basic;
  StashCluster fresh(fresh_config, shared_generator());
  fresh.ingest_update(partition, days_from_civil({2015, 2, 2}));
  CellSummaryMap expected;
  fresh.run_query(county_query(), &expected);

  ASSERT_EQ(after.size(), expected.size());
  for (const auto& [key, summary] : expected) {
    const auto it = after.find(key);
    ASSERT_NE(it, after.end()) << key.label();
    EXPECT_TRUE(summary.approx_equals(it->second)) << key.label();
  }
}

TEST(FailureInjectionTest, StatsOnlyCallersCountCellsExactly) {
  // The same burst on two clusters: stats-only callbacks (Cells counted,
  // never kept) and RichCallbacks (Cells merged).  Counts and latencies
  // must not tell the two apart.
  const auto queries = burst_around(county_query(), 20, 23);
  ClusterConfig config;
  config.num_nodes = 16;
  StashCluster stats_only(config, shared_generator());
  StashCluster rich(config, shared_generator());
  const auto counted = stats_only.run_burst(queries);
  std::vector<QueryStats> merged(queries.size());
  std::vector<CellSummaryMap> cells(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i)
    rich.submit(queries[i],
                [&merged, &cells, i](const QueryStats& s, CellSummaryMap&& c) {
                  merged[i] = s;
                  cells[i] = std::move(c);
                });
  rich.loop().run();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_GT(counted[i].result_cells, 0u) << i;
    EXPECT_EQ(counted[i].result_cells, merged[i].result_cells) << i;
    EXPECT_EQ(merged[i].result_cells, cells[i].size()) << i;
    EXPECT_EQ(counted[i].latency(), merged[i].latency()) << i;
  }
}

TEST(FailureInjectionTest, ZeroDataRegionsUnderAllModes) {
  // Mid-ocean queries: no records anywhere; every mode must agree on the
  // empty answer and never touch data it does not have.
  AggregationQuery ocean = county_query();
  ocean.area = {-10.0, -9.4, -30.0, -28.8};
  for (SystemMode mode : {SystemMode::Basic, SystemMode::Stash,
                          SystemMode::StashNoReplication}) {
    ClusterConfig config;
    config.num_nodes = 16;
    config.mode = mode;
    StashCluster cluster(config, shared_generator());
    const auto first = cluster.run_query(ocean);
    const auto second = cluster.run_query(ocean);
    EXPECT_EQ(first.result_cells, 0u);
    EXPECT_EQ(second.result_cells, 0u);
    if (mode != SystemMode::Basic) {
      EXPECT_EQ(second.breakdown.chunks_scanned, 0u)
          << "known-empty chunks should be cached";
    }
  }
}

// ---------------------------------------------------------------------------
// Node-crash fault injection: the scatter/gather must degrade, never hang.
// ---------------------------------------------------------------------------

/// Fault-test defaults: tight timeouts so scripted crashes resolve fast.
ClusterConfig fault_config() {
  ClusterConfig config;
  config.num_nodes = 16;
  config.subquery_timeout = 50 * sim::kMillisecond;
  config.retry_backoff = 5 * sim::kMillisecond;
  return config;
}

AggregationQuery wide_query() {
  AggregationQuery q = county_query();
  q.area = q.area.scaled(16.0);
  return q;
}

void expect_cells_equal(const CellSummaryMap& got, const CellSummaryMap& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, summary] : want) {
    const auto it = got.find(key);
    ASSERT_NE(it, got.end()) << key.label();
    EXPECT_TRUE(summary.approx_equals(it->second)) << key.label();
  }
}

/// Full-query reference cells from a healthy Basic-mode cluster.
CellSummaryMap reference_cells(const AggregationQuery& query) {
  ClusterConfig config;
  config.num_nodes = 16;
  config.mode = SystemMode::Basic;
  StashCluster cluster(config, shared_generator());
  CellSummaryMap cells;
  cluster.run_query(query, &cells);
  return cells;
}

TEST(FaultToleranceTest, CrashDuringScatterYieldsExactLivePartitionSubset) {
  // One owner is dead and stays dead; failover is off, so its partitions
  // exhaust their attempts.  The query must still complete, flagged
  // partial, and every returned Cell must match the Basic-mode reference
  // for the partitions that were alive — degraded, never corrupted.
  const AggregationQuery query = wide_query();
  const auto partitions = geohash::covering(query.area, 2);
  ASSERT_GT(partitions.size(), 1u) << "scenario needs a multi-partition scatter";

  ClusterConfig config = fault_config();
  config.failover_to_successor = false;
  config.subquery_max_attempts = 2;
  const ZeroHopDht dht(config.num_nodes, config.partition_prefix_length);
  const NodeId victim = dht.node_for_partition(partitions.front());
  config.fault_plan.crashes.push_back({.node = victim, .at = 0});
  StashCluster cluster(config, shared_generator());

  CellSummaryMap got;
  const QueryStats stats = cluster.run_query(query, &got);

  std::size_t dead_partitions = 0;
  for (const auto& p : partitions)
    if (dht.node_for_partition(p) == victim) ++dead_partitions;
  ASSERT_GT(dead_partitions, 0u);

  EXPECT_TRUE(stats.partial);
  EXPECT_EQ(stats.failed_subqueries, dead_partitions);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(cluster.metrics().node_crashes, 1u);
  EXPECT_EQ(cluster.metrics().partial_queries, 1u);
  EXPECT_GT(cluster.metrics().timeouts_fired, 0u);

  // Live-partition subset of the full Basic-mode reference, exactly.
  CellSummaryMap expected;
  for (auto& [key, summary] : reference_cells(query)) {
    const std::string partition = key.geohash_str().substr(0, 2);
    if (dht.node_for_partition(partition) != victim)
      expected.emplace(key, summary);
  }
  ASSERT_LT(expected.size(), reference_cells(query).size())
      << "victim owned no data: scenario is vacuous";
  expect_cells_equal(got, expected);
}

TEST(FaultToleranceTest, FailoverServesDeadOwnersPartitionsFromStorage) {
  // With successor failover on (the default), a crashed owner degrades
  // latency only: the next live ring node re-scans the partition from the
  // durable store and the results stay complete and exact.
  const AggregationQuery query = wide_query();
  ClusterConfig config = fault_config();
  const ZeroHopDht dht(config.num_nodes, config.partition_prefix_length);
  const NodeId victim =
      dht.node_for_partition(geohash::covering(query.area, 2).front());
  config.fault_plan.crashes.push_back({.node = victim, .at = 0});
  StashCluster cluster(config, shared_generator());

  CellSummaryMap got;
  const QueryStats stats = cluster.run_query(query, &got);
  EXPECT_FALSE(stats.partial);
  EXPECT_EQ(stats.failed_subqueries, 0u);
  EXPECT_GT(stats.failovers, 0u);
  expect_cells_equal(got, reference_cells(query));

  // The circuit breaker remembers: a second query fails over on its first
  // attempt instead of paying the timeout again.
  EXPECT_TRUE(cluster.node_suspected(victim));
  CellSummaryMap again;
  const QueryStats repeat = cluster.run_query(query, &again);
  EXPECT_FALSE(repeat.partial);
  EXPECT_EQ(repeat.retries, 0u);
  EXPECT_GT(repeat.failovers, 0u);
  expect_cells_equal(again, reference_cells(query));
}

TEST(FailureInjectionTest, LateResponseFromTimedOutAttemptIsIgnored) {
  // The owner serves attempt 1, but its answer crawls back slower than the
  // subquery timeout.  The timeout suspects the owner and attempt 2 fails
  // over to the successor.  The owner's late answer must not count, both
  // when it lands after attempt 2 settled the subquery and when it lands
  // while attempt 2 is still in flight: one callback, the healthy answer,
  // two attempts, and the same stats as when the late answer is lost —
  // only the owner's extra server-side work shows.
  const AggregationQuery query = county_query();
  const auto partitions = geohash::covering(query.area, 2);
  ASSERT_EQ(partitions.size(), 1u);
  ClusterConfig config = fault_config();  // 50 ms subquery timeout
  config.failover_to_successor = true;
  const ZeroHopDht dht(config.num_nodes, config.partition_prefix_length);
  const NodeId owner = dht.node_for_partition(partitions.front());
  const NodeId successor = dht.successor_for_partition(partitions.front(), 1);
  ASSERT_NE(owner, successor);

  StashCluster healthy(config, shared_generator());
  CellSummaryMap want;
  const QueryStats control = healthy.run_query(query, &want);
  ASSERT_FALSE(control.partial);
  ASSERT_GT(control.result_cells, 0u);
  const std::uint64_t control_processed =
      healthy.metrics().subqueries_processed;

  struct Run {
    int callbacks = 0;
    QueryStats stats;
    CellSummaryMap cells;
    std::uint64_t processed = 0;
    std::uint64_t timeouts = 0;
  };
  const auto run = [&](std::vector<sim::LinkRule> links) {
    ClusterConfig faulty = config;
    faulty.fault_plan.links = std::move(links);
    StashCluster cluster(faulty, shared_generator());
    Run r;
    cluster.submit(query, [&r](const QueryStats& s, CellSummaryMap&& cells) {
      ++r.callbacks;
      r.stats = s;
      r.cells = std::move(cells);
    });
    cluster.loop().run();
    r.processed = cluster.metrics().subqueries_processed;
    r.timeouts = cluster.metrics().timeouts_fired;
    return r;
  };
  const auto slow = [](NodeId from, sim::SimTime latency) {
    return sim::LinkRule{.from = from,
                         .to = sim::kFrontendNode,
                         .extra_latency = latency};
  };
  const auto lost = [](NodeId from) {
    return sim::LinkRule{
        .from = from, .to = sim::kFrontendNode, .drop_probability = 1.0};
  };

  // Attempt 1 times out at 50 ms and attempt 2 goes out ~5 ms later.
  // Case 0: the successor answers at ~60 ms, the owner's answer lands at
  // ~85 ms.  Case 1: the successor's answer takes ~95 ms, so the owner's,
  // at ~75 ms, lands in the middle of attempt 2.
  const std::vector<std::vector<sim::LinkRule>> late_cases = {
      {slow(owner, 80 * sim::kMillisecond)},
      {slow(owner, 70 * sim::kMillisecond),
       slow(successor, 35 * sim::kMillisecond)}};
  const std::vector<std::vector<sim::LinkRule>> lost_cases = {
      {lost(owner)},
      {lost(owner), slow(successor, 35 * sim::kMillisecond)}};
  for (std::size_t c = 0; c < late_cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const Run late = run(late_cases[c]);
    EXPECT_EQ(late.callbacks, 1);
    EXPECT_EQ(late.stats.result_cells, control.result_cells);
    expect_cells_equal(late.cells, want);
    EXPECT_EQ(late.stats.retries, 1u);
    EXPECT_EQ(late.stats.failovers, 1u);
    EXPECT_FALSE(late.stats.partial);
    ASSERT_EQ(late.stats.coverage.size(), 1u);
    EXPECT_EQ(late.stats.coverage[0].attempts, 2);
    EXPECT_EQ(late.stats.coverage[0].kind, PartitionCoverage::Kind::kExact);
    EXPECT_EQ(late.timeouts, 1u);
    // The owner served attempt 1 and the successor attempt 2.
    EXPECT_EQ(late.processed, control_processed + 1);

    // The same run with the owner's answer lost: it must look the same.
    const Run gone = run(lost_cases[c]);
    EXPECT_EQ(gone.callbacks, 1);
    EXPECT_EQ(late.stats.latency(), gone.stats.latency());
    EXPECT_EQ(late.stats.result_cells, gone.stats.result_cells);
    EXPECT_EQ(late.stats.retries, gone.stats.retries);
    EXPECT_EQ(late.stats.failovers, gone.stats.failovers);
    EXPECT_EQ(late.processed, gone.processed);
  }
}

TEST(FaultToleranceTest, CrashThenRestartConvergesToFullResults) {
  // Failover off: retries keep knocking on the owner until it restarts
  // cold, then the partition is re-scanned from storage — full results.
  const AggregationQuery query = wide_query();
  ClusterConfig config = fault_config();
  config.failover_to_successor = false;
  config.subquery_max_attempts = 8;
  config.retry_backoff = 500 * sim::kMillisecond;
  const ZeroHopDht dht(config.num_nodes, config.partition_prefix_length);
  const NodeId victim =
      dht.node_for_partition(geohash::covering(query.area, 2).front());
  config.fault_plan.crashes.push_back(
      {.node = victim, .at = 0, .restart_at = 5 * sim::kSecond});
  StashCluster cluster(config, shared_generator());

  CellSummaryMap got;
  const QueryStats stats = cluster.run_query(query, &got);
  EXPECT_FALSE(stats.partial);
  EXPECT_EQ(stats.failed_subqueries, 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(cluster.metrics().node_restarts, 1u);
  EXPECT_TRUE(cluster.node_alive(victim));
  expect_cells_equal(got, reference_cells(query));
}

TEST(FaultToleranceTest, TimersDisabledCrashFailsLoudlyNotSilently) {
  // Legacy behavior (no timeouts) + a dead owner used to hang run_query
  // forever; the quiescence guard now turns that into a loud error.
  ClusterConfig config = fault_config();
  config.subquery_timeout = 0;
  const ZeroHopDht dht(config.num_nodes, config.partition_prefix_length);
  const NodeId victim =
      dht.node_for_partition(geohash::covering(wide_query().area, 2).front());
  config.fault_plan.crashes.push_back({.node = victim, .at = 0});
  StashCluster cluster(config, shared_generator());
  EXPECT_THROW(cluster.run_query(wide_query()), std::runtime_error);
}

TEST(FaultToleranceTest, MessageLossIsAbsorbedByRetries) {
  // 2% loss on every link: retries make every query complete and correct;
  // the drops and retries are visible in the metrics.
  ClusterConfig config = fault_config();
  config.subquery_timeout = 500 * sim::kMillisecond;
  config.fault_plan.links.push_back({.drop_probability = 0.02});
  StashCluster cluster(config, shared_generator());

  const auto burst = burst_around(county_query(), 150, 29);
  const auto stats = cluster.run_open_loop(burst, 20);
  const auto expected = reference_cell_counts(burst);
  for (std::size_t i = 0; i < burst.size(); ++i) {
    EXPECT_FALSE(stats[i].partial) << "query " << i;
    EXPECT_EQ(stats[i].result_cells, expected[i]) << "query " << i;
  }
  EXPECT_GT(cluster.metrics().messages_dropped, 0u);
  EXPECT_GT(cluster.metrics().subquery_retries, 0u);
  EXPECT_EQ(cluster.metrics().node_crashes, 0u);
}

TEST(FaultToleranceTest, HelperCrashDuringHandoffRetriesViaNackPath) {
  // Phase 1 (healthy): find which nodes end up hosting guest replicas.
  ClusterConfig config = hot_config();
  config.subquery_timeout = 2 * sim::kSecond;
  config.handoff_timeout = 100 * sim::kMillisecond;
  const auto warm = wide_query();
  const auto burst = burst_around(county_query(), 300, 11);

  std::vector<NodeId> helpers;
  {
    StashCluster healthy(config, shared_generator());
    healthy.run_query(warm);
    healthy.run_open_loop(burst, 20);
    ASSERT_GT(healthy.metrics().cliques_replicated, 0u)
        << "scenario never handed off: nothing to crash";
    for (NodeId id = 0; id < config.num_nodes; ++id)
      if (healthy.node_guest_graph(id).total_cells() > 0) helpers.push_back(id);
    ASSERT_FALSE(helpers.empty());
  }

  // Phase 2: the same traffic, but every would-be helper is dead.  The
  // Distress/Ack protocol must time out, treat the silence as a NACK, and
  // wander on — no stuck clique, no hung query, no wrong answer.
  for (const NodeId helper : helpers)
    config.fault_plan.crashes.push_back({.node = helper, .at = 0});
  StashCluster cluster(config, shared_generator());
  cluster.run_query(warm);
  const auto stats = cluster.run_open_loop(burst, 20);

  const auto& m = cluster.metrics();
  EXPECT_GT(m.handoffs_initiated, 0u);
  EXPECT_GT(m.handoff_timeouts, 0u) << "no distress ever hit a dead helper";
  EXPECT_GT(m.cliques_replicated, 0u) << "antipode retry never recovered";
  for (const NodeId helper : helpers)
    EXPECT_EQ(cluster.node_guest_graph(helper).total_cells(), 0u);

  const auto expected = reference_cell_counts(burst);
  for (std::size_t i = 0; i < burst.size(); ++i)
    EXPECT_EQ(stats[i].result_cells, expected[i]) << "query " << i;
}

TEST(FaultToleranceTest, SameSeedSamePlanIsBitIdentical) {
  // Chaos is replayable: identical seed + FaultPlan => identical QueryStats
  // and identical metrics, twice in a row.
  struct Fingerprint {
    std::vector<sim::SimTime> latencies;
    std::vector<std::size_t> cells;
    std::vector<std::size_t> retries, failovers, failed;
    std::vector<bool> partial;
    std::uint64_t queries_completed, subqueries_processed, reroutes,
        node_crashes, node_restarts, messages_dropped, timeouts_fired,
        subquery_retries, total_failovers, failed_subqueries, partial_queries,
        handoff_timeouts, events;
    bool operator==(const Fingerprint&) const = default;
  };

  const auto run_chaos = [](std::uint64_t fault_seed) {
    ClusterConfig config = hot_config();
    config.subquery_timeout = 100 * sim::kMillisecond;
    config.retry_backoff = 5 * sim::kMillisecond;
    const ZeroHopDht dht(config.num_nodes, config.partition_prefix_length);
    const NodeId victim =
        dht.node_for_partition(geohash::covering(county_query().area, 2).front());
    config.fault_plan.seed = fault_seed;
    config.fault_plan.crashes.push_back(
        {.node = victim, .at = 2 * sim::kMillisecond,
         .restart_at = 50 * sim::kMillisecond});
    config.fault_plan.links.push_back({.drop_probability = 0.02});
    StashCluster cluster(config, shared_generator());

    Fingerprint fp;
    cluster.run_query(wide_query());
    for (const auto& s :
         cluster.run_open_loop(burst_around(county_query(), 200, 31), 20)) {
      fp.latencies.push_back(s.latency());
      fp.cells.push_back(s.result_cells);
      fp.retries.push_back(s.retries);
      fp.failovers.push_back(s.failovers);
      fp.failed.push_back(s.failed_subqueries);
      fp.partial.push_back(s.partial);
    }
    const auto& m = cluster.metrics();
    fp.queries_completed = m.queries_completed;
    fp.subqueries_processed = m.subqueries_processed;
    fp.reroutes = m.reroutes;
    fp.node_crashes = m.node_crashes;
    fp.node_restarts = m.node_restarts;
    fp.messages_dropped = m.messages_dropped;
    fp.timeouts_fired = m.timeouts_fired;
    fp.subquery_retries = m.subquery_retries;
    fp.total_failovers = m.failovers;
    fp.failed_subqueries = m.failed_subqueries;
    fp.partial_queries = m.partial_queries;
    fp.handoff_timeouts = m.handoff_timeouts;
    fp.events = cluster.loop().executed();
    return fp;
  };

  const Fingerprint a = run_chaos(1234);
  const Fingerprint b = run_chaos(1234);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.node_crashes, 1u);
  EXPECT_EQ(a.node_restarts, 1u);
  EXPECT_GT(a.messages_dropped, 0u);
  // A different fault seed reshuffles which messages die.
  const Fingerprint c = run_chaos(4321);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace stash::cluster
