#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include "common/civil_time.hpp"

namespace stash::cluster {
namespace {

using Callback = StashCluster::Callback;

AggregationQuery county_query() {
  return {{38.0, 38.6, -99.0, -97.8},
          TemporalBin(TemporalRes::Day, 2015, 2, 2).range(),
          {6, TemporalRes::Day}};
}

AggregationQuery state_query() {
  return {{36.0, 40.0, -102.0, -94.0},
          TemporalBin(TemporalRes::Day, 2015, 2, 2).range(),
          {6, TemporalRes::Day}};
}

ClusterConfig small_config(SystemMode mode = SystemMode::Stash) {
  ClusterConfig config;
  config.num_nodes = 16;  // keep tests fast; benches use 120
  config.mode = mode;
  return config;
}

std::shared_ptr<const NamGenerator> shared_generator() {
  static auto gen = std::make_shared<const NamGenerator>();
  return gen;
}

TEST(StashClusterTest, RejectsInvalidQuery) {
  StashCluster cluster(small_config(), shared_generator());
  AggregationQuery bad = county_query();
  bad.time = {10, 5};
  EXPECT_THROW(cluster.submit(bad, Callback{}), std::invalid_argument);
}

TEST(StashClusterTest, SingleQueryCompletes) {
  StashCluster cluster(small_config(), shared_generator());
  const QueryStats stats = cluster.run_query(county_query());
  EXPECT_GT(stats.result_cells, 0u);
  EXPECT_GT(stats.latency(), 0);
  EXPECT_GE(stats.subqueries, 1u);
  EXPECT_EQ(cluster.metrics().queries_completed, 1u);
}

TEST(StashClusterTest, ResultsMatchDirectEngineEvaluation) {
  StashCluster cluster(small_config(), shared_generator());
  const auto query = state_query();
  CellSummaryMap from_cluster;
  cluster.submit(query, Callback{});
  // Recompute expected cells via a standalone engine.
  GalileoStore store(shared_generator());
  StashGraph graph;
  QueryEngine engine(graph, store);
  const Evaluation expected = engine.evaluate(query, EvalMode::Basic);

  const QueryStats stats = cluster.run_query(query);
  EXPECT_EQ(stats.result_cells, expected.cells.size());
}

TEST(StashClusterTest, RepeatQueryIsFasterAndSkipsDisk) {
  // The Fig 6a story: best-case STASH (everything resident) vs cold.
  StashCluster cluster(small_config(), shared_generator());
  const auto query = state_query();
  const QueryStats cold = cluster.run_query(query);
  const QueryStats warm = cluster.run_query(query);
  EXPECT_EQ(warm.breakdown.scan.records_scanned, 0u);
  EXPECT_EQ(warm.breakdown.chunks_scanned, 0u);
  EXPECT_LT(warm.latency(), cold.latency());
  EXPECT_EQ(warm.result_cells, cold.result_cells);
}

TEST(StashClusterTest, BasicModeNeverCaches) {
  StashCluster cluster(small_config(SystemMode::Basic), shared_generator());
  const auto query = county_query();
  const QueryStats first = cluster.run_query(query);
  const QueryStats second = cluster.run_query(query);
  EXPECT_GT(second.breakdown.scan.records_scanned, 0u);
  EXPECT_EQ(cluster.total_cached_cells(), 0u);
  EXPECT_EQ(first.result_cells, second.result_cells);
}

TEST(StashClusterTest, WorstCaseStashSlightlySlowerThanBasic) {
  // §VIII-C.2: an empty STASH graph adds lookup overhead on top of the
  // basic system's disk path.
  const auto query = state_query();
  StashCluster basic(small_config(SystemMode::Basic), shared_generator());
  const QueryStats basic_stats = basic.run_query(query);
  StashCluster stash(small_config(), shared_generator());
  const QueryStats cold_stats = stash.run_query(query);
  EXPECT_GE(cold_stats.latency(), basic_stats.latency());
  EXPECT_LT(static_cast<double>(cold_stats.latency()),
            static_cast<double>(basic_stats.latency()) * 1.25);
}

TEST(StashClusterTest, PreloadMakesFirstQueryWarm) {
  StashCluster cluster(small_config(), shared_generator());
  const auto query = county_query();
  EXPECT_GT(cluster.preload(query), 0u);
  const QueryStats stats = cluster.run_query(query);
  EXPECT_EQ(stats.breakdown.scan.records_scanned, 0u);
}

TEST(StashClusterTest, ClearCachesResets) {
  StashCluster cluster(small_config(), shared_generator());
  const auto query = county_query();
  cluster.run_query(query);
  EXPECT_GT(cluster.total_cached_cells(), 0u);
  cluster.clear_caches();
  EXPECT_EQ(cluster.total_cached_cells(), 0u);
  const QueryStats after = cluster.run_query(query);
  EXPECT_GT(after.breakdown.scan.records_scanned, 0u);
}

TEST(StashClusterTest, MaintenanceRunsOffTheResponsePath) {
  StashCluster cluster(small_config(), shared_generator());
  cluster.run_query(county_query());
  EXPECT_GT(cluster.metrics().maintenance_tasks, 0u);
  EXPECT_GT(cluster.metrics().maintenance_time_us, 0u);
  // Cells were populated by maintenance even though responses went out.
  EXPECT_GT(cluster.total_cached_cells(), 0u);
}

TEST(StashClusterTest, DeterministicAcrossRuns) {
  const auto query = state_query();
  StashCluster a(small_config(), shared_generator());
  StashCluster b(small_config(), shared_generator());
  const QueryStats sa = a.run_query(query);
  const QueryStats sb = b.run_query(query);
  EXPECT_EQ(sa.latency(), sb.latency());
  EXPECT_EQ(sa.result_cells, sb.result_cells);
  EXPECT_EQ(a.loop().executed(), b.loop().executed());
}

TEST(StashClusterTest, BurstSharesTheCacheAcrossUsers) {
  // Collective caching (§V-B): many users querying the same region — later
  // responses benefit from cells cached by earlier ones.  With 8 workers
  // per node at most 8 identical queries can race the first cache fill.
  StashCluster cluster(small_config(), shared_generator());
  std::vector<AggregationQuery> burst(24, county_query());
  const auto stats = cluster.run_burst(burst);
  std::size_t total_scanned = 0;
  std::size_t pure_hits = 0;
  for (const auto& s : stats) {
    total_scanned += s.breakdown.scan.records_scanned;
    if (s.breakdown.scan.records_scanned == 0) ++pure_hits;
  }
  StashCluster solo(small_config(), shared_generator());
  const auto one = solo.run_query(county_query());
  EXPECT_LE(total_scanned, one.breakdown.scan.records_scanned * 8);
  EXPECT_GE(pure_hits, 16u);
}

TEST(StashClusterTest, InvalidateBlockForcesRescan) {
  StashCluster cluster(small_config(), shared_generator());
  const auto query = county_query();
  cluster.run_query(query);
  const QueryStats warm = cluster.run_query(query);
  ASSERT_EQ(warm.breakdown.scan.records_scanned, 0u);
  const std::string partition = geohash::encode({38.3, -98.4}, 2);
  cluster.invalidate_block(partition, days_from_civil({2015, 2, 2}));
  const QueryStats after = cluster.run_query(query);
  EXPECT_GT(after.breakdown.scan.records_scanned, 0u);
  const AuditReport audit = cluster.audit_all();
  EXPECT_TRUE(audit.ok()) << audit.to_string();
}

class HotspotTest : public ::testing::Test {
 protected:
  static ClusterConfig hotspot_config(SystemMode mode) {
    ClusterConfig config = small_config(mode);
    config.stash.hotspot_queue_threshold = 20;
    config.stash.clique_depth = 2;
    config.stash.reroute_probability = 0.7;
    return config;
  }

  static std::vector<AggregationQuery> hotspot_burst(std::size_t n) {
    // Paper §VIII-E: county-level requests randomly panning around one
    // starting point — sudden interest in a single region.
    std::vector<AggregationQuery> out;
    Rng rng(77);
    const AggregationQuery base = county_query();
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      AggregationQuery q = base;
      const double dlat = base.area.height() * 0.1 * rng.uniform(-1.0, 1.0);
      const double dlng = base.area.width() * 0.1 * rng.uniform(-1.0, 1.0);
      q.area = base.area.translated(dlat, dlng);
      out.push_back(q);
    }
    return out;
  }
};

TEST_F(HotspotTest, BurstTriggersHandoffAndReroutes) {
  StashCluster cluster(hotspot_config(SystemMode::Stash), shared_generator());
  // Warm the hot region first so cliques have content to replicate.
  cluster.run_query(state_query());
  const auto stats =
      cluster.run_open_loop(hotspot_burst(300), 20 /* 20us apart */);
  EXPECT_EQ(stats.size(), 300u);
  const auto& m = cluster.metrics();
  EXPECT_GT(m.handoffs_initiated, 0u);
  EXPECT_GT(m.cliques_replicated, 0u);
  EXPECT_GT(m.cells_replicated, 0u);
  EXPECT_GT(m.reroutes, 0u);
  EXPECT_GT(cluster.total_guest_cells(), 0u);
  // Handoffs replicated cliques into guest graphs and populated routing
  // tables; every node must still pass a full structural audit.
  const AuditReport audit = cluster.audit_all();
  EXPECT_TRUE(audit.ok()) << audit.to_string();
}

TEST_F(HotspotTest, NoReplicationModeNeverHandsOff) {
  StashCluster cluster(hotspot_config(SystemMode::StashNoReplication),
                       shared_generator());
  cluster.run_query(state_query());
  cluster.run_open_loop(hotspot_burst(300), 20);
  EXPECT_EQ(cluster.metrics().handoffs_initiated, 0u);
  EXPECT_EQ(cluster.metrics().reroutes, 0u);
  EXPECT_EQ(cluster.total_guest_cells(), 0u);
}

TEST_F(HotspotTest, ReplicationImprovesBurstCompletionTime) {
  // The Fig 6d claim: with dynamic replication the burst finishes earlier.
  const auto burst = hotspot_burst(300);
  StashCluster with(hotspot_config(SystemMode::Stash), shared_generator());
  with.run_query(state_query());
  const auto stats_with = with.run_open_loop(burst, 20);

  StashCluster without(hotspot_config(SystemMode::StashNoReplication),
                       shared_generator());
  without.run_query(state_query());
  const auto stats_without = without.run_open_loop(burst, 20);

  sim::SimTime finish_with = 0;
  for (const auto& s : stats_with) finish_with = std::max(finish_with, s.completed_at);
  sim::SimTime finish_without = 0;
  for (const auto& s : stats_without)
    finish_without = std::max(finish_without, s.completed_at);
  EXPECT_LT(finish_with, finish_without);
}

TEST_F(HotspotTest, RedirectedQueriesReturnIdenticalResults) {
  const auto burst = hotspot_burst(200);
  StashCluster with(hotspot_config(SystemMode::Stash), shared_generator());
  with.run_query(state_query());
  const auto stats_with = with.run_open_loop(burst, 20);

  StashCluster without(hotspot_config(SystemMode::StashNoReplication),
                       shared_generator());
  without.run_query(state_query());
  const auto stats_without = without.run_open_loop(burst, 20);

  ASSERT_GT(with.metrics().reroutes, 0u);
  for (std::size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(stats_with[i].result_cells, stats_without[i].result_cells)
        << "query " << i;
  }
}

TEST_F(HotspotTest, CooldownLimitsHandoffFrequency) {
  ClusterConfig config = hotspot_config(SystemMode::Stash);
  config.stash.hotspot_cooldown = 3600 * sim::kSecond;  // effectively once
  StashCluster cluster(config, shared_generator());
  cluster.run_query(state_query());
  cluster.run_open_loop(hotspot_burst(300), 20);
  // All subqueries target at most a few nodes; with a huge cooldown each
  // node hands off at most once.
  EXPECT_LE(cluster.metrics().handoffs_initiated, 4u);
}

}  // namespace
}  // namespace cluster::stash
