// Cross-commit golden for the front-end gather.  Every way a subquery can
// end — an exact answer, a degraded answer after a queue_limit shed, a
// failure after a crash exhausts the retry budget, and a cut by the query
// deadline — runs in one seeded scenario, half of it through the
// RichCallback (Cells kept and merged) and half through the stats-only
// Callback (Cells counted).  The run is pinned to constants, including a
// checksum over every retained trace's JSON: a refactor of the gather that
// reorders a single span tag, moves a span end or changes a merged Cell
// count fails here.  The constants must only change with a deliberate
// behaviour change, never with a refactor.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "cluster/cluster.hpp"
#include "common/checksum.hpp"
#include "common/civil_time.hpp"
#include "geo/geohash.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stash::cluster {
namespace {

using sim::kMillisecond;

std::shared_ptr<const NamGenerator> shared_generator() {
  static auto gen = std::make_shared<const NamGenerator>();
  return gen;
}

/// A city-sized box inside one partition: a burst of it lands on one owner.
AggregationQuery city_query() {
  return {{36.0, 36.2, -96.5, -96.0},
          {unix_seconds({2015, 2, 2}), unix_seconds({2015, 2, 3})},
          {6, TemporalRes::Day}};
}

/// The continental US: more partitions than nodes, so one node owns two.
AggregationQuery wide_query() {
  return {{25.0, 49.0, -124.0, -67.0},
          {unix_seconds({2015, 2, 2}), unix_seconds({2015, 2, 3})},
          {3, TemporalRes::Day}};
}

constexpr NodeId kNodes = 16;

/// A node owning at least two of the wide query's partitions: with it
/// down, one subquery spends the retry token and is cut by the deadline,
/// the other finds the bucket empty and fails.
NodeId doubly_owning_node() {
  const ZeroHopDht dht(kNodes, 2);
  std::map<NodeId, int> owned;
  for (const auto& partition : geohash::covering(wide_query().area, 2))
    if (++owned[dht.node_for_partition(partition)] == 2)
      return dht.node_for_partition(partition);
  ADD_FAILURE() << "no node owns two partitions of the wide query";
  return 0;
}

ClusterConfig golden_config() {
  ClusterConfig config;
  config.num_nodes = kNodes;
  config.seed = 0x6A7E;
  config.mode = SystemMode::StashNoReplication;  // keep the burst on one owner
  config.queue_limit = 4;
  config.query_deadline = 500 * kMillisecond;
  config.subquery_timeout = 300 * kMillisecond;
  config.retry_budget = 1.0;
  config.failover_to_successor = false;  // a crashed owner stays a hole
  config.trace_capacity = 4096;           // keep every trace
  return config;
}

struct Golden {
  std::uint64_t events = 0;
  std::uint64_t metrics_checksum = 0;
  std::uint64_t trace_checksum = 0;
  std::uint64_t result_cells = 0;
  std::size_t traces = 0;
  std::map<PartitionCoverage::Kind, std::size_t> coverage;
  ClusterMetrics metrics;
};

Golden run_golden() {
  StashCluster cluster(golden_config(), shared_generator());
  Golden g;
  const auto account = [&g](const QueryStats& stats) {
    g.result_cells += stats.result_cells;
    for (const auto& cov : stats.coverage) ++g.coverage[cov.kind];
  };
  // Half the queries keep their Cells: the merged map must match the count.
  const auto submit_rich = [&](const AggregationQuery& q) {
    cluster.submit(q, [account](const QueryStats& stats, CellSummaryMap&& cells) {
      EXPECT_EQ(stats.result_cells, cells.size());
      account(stats);
    });
  };
  const auto submit_plain = [&](const AggregationQuery& q) {
    cluster.submit(q, [account](const QueryStats& stats) { account(stats); });
  };

  // Exact answers: a cold wide query through each callback kind.
  CellSummaryMap wide_cells;
  account(cluster.run_query(wide_query(), &wide_cells));
  EXPECT_FALSE(wide_cells.empty());
  account(cluster.run_query(wide_query()));

  // Degraded answers: only the s5 ancestor of the city is resident, and a
  // 48-query burst overflows its owner's queue of 4.  Shed subqueries are
  // served from the ancestor (or, once maintenance completes the exact
  // level, from the exact level through the same degraded path).
  AggregationQuery ancestor = city_query();
  ancestor.area = city_query().area.scaled(4.0);
  ancestor.res = {5, TemporalRes::Day};
  cluster.preload(ancestor);
  for (int i = 0; i < 48; ++i) {
    if (i % 2 == 0)
      submit_rich(city_query());
    else
      submit_plain(city_query());
  }
  cluster.loop().run();

  // Failed and deadline-cut subqueries: the owner of two wide partitions
  // is down.  Both attempts time out at 300 ms; one retry spends the only
  // token and is cut at the 500 ms deadline, the other is suppressed.
  const NodeId victim = doubly_owning_node();
  cluster.crash_node(victim);
  submit_rich(wide_query());
  cluster.loop().run();
  submit_plain(wide_query());
  cluster.loop().run();
  cluster.restart_node(victim);
  cluster.loop().run();

  // Back to exact on a cold day, with a concurrent mix of both callback
  // kinds; one rotted block makes its partition's answers carry a
  // corrupt-block hole.
  AggregationQuery next_day = wide_query();
  next_day.time = {unix_seconds({2015, 2, 3}), unix_seconds({2015, 2, 4})};
  cluster.rot_block(geohash::covering(next_day.area, 2).front(),
                    next_day.time.begin / 86400);
  for (int i = 0; i < 4; ++i) {
    AggregationQuery q = next_day;
    q.area = q.area.translated(0.5 * i, -0.5 * i);
    if (i % 2 == 0)
      submit_rich(q);
    else
      submit_plain(q);
  }
  cluster.loop().run();

  g.events = cluster.loop().executed();
  g.metrics_checksum = checksum64(obs::to_json(
      cluster.metrics_registry().snapshot(), cluster.loop().now()));
  for (const std::uint64_t id : cluster.tracer().query_ids()) {
    const auto trace = cluster.trace(id);
    g.trace_checksum = checksum64(obs::to_json(*trace), g.trace_checksum);
    ++g.traces;
  }
  g.metrics = cluster.metrics();
  return g;
}

TEST(GatherGoldenClusterTest, ScenarioReachesEveryOutcome) {
  const Golden g = run_golden();
  const ClusterMetrics& m = g.metrics;
  EXPECT_GT(m.subqueries_shed, 0u);
  EXPECT_GT(m.degraded_subqueries, 0u);
  EXPECT_GT(m.failed_subqueries, 0u);
  EXPECT_GT(m.retries_suppressed, 0u);
  EXPECT_GT(m.deadline_cut_subqueries, 0u);
  EXPECT_GT(m.corrupt_queries, 0u);
  EXPECT_GT(g.coverage.at(PartitionCoverage::Kind::kExact), 0u);
  EXPECT_GT(g.coverage.at(PartitionCoverage::Kind::kDegraded), 0u);
  EXPECT_GT(g.coverage.at(PartitionCoverage::Kind::kMissing), 0u);
  EXPECT_EQ(g.traces, m.queries_completed);  // every trace retained
}

TEST(GatherGoldenClusterTest, MatchesPinnedConstants) {
  const Golden g = run_golden();
  EXPECT_EQ(g.events, 1459u);
  EXPECT_EQ(g.result_cells, 6347u);
  EXPECT_EQ(g.metrics_checksum, 7286833289373092062u);
  EXPECT_EQ(g.trace_checksum, 7718241664162111988u);
}

}  // namespace
}  // namespace stash::cluster
