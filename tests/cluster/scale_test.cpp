// Cluster-size sweep: results must be identical at any scale, and scale
// must buy throughput under a distributed workload.

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "common/civil_time.hpp"
#include "workload/workload.hpp"

namespace stash::cluster {
namespace {

std::shared_ptr<const NamGenerator> shared_generator() {
  static auto gen = std::make_shared<const NamGenerator>();
  return gen;
}

class ClusterScaleTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ClusterScaleTest, ResultsInvariantToClusterSize) {
  ClusterConfig config;
  config.num_nodes = GetParam();
  StashCluster cluster(config, shared_generator());
  const AggregationQuery state{{36.0, 40.0, -102.0, -94.0},
                               {unix_seconds({2015, 2, 2}),
                                unix_seconds({2015, 2, 3})},
                               {6, TemporalRes::Day}};
  CellSummaryMap cells;
  const auto stats = cluster.run_query(state, &cells);

  // Reference: single-node evaluation (scale 1 exercises no scatter).
  ClusterConfig solo_config;
  solo_config.num_nodes = 1;
  StashCluster solo(solo_config, shared_generator());
  CellSummaryMap expected;
  solo.run_query(state, &expected);

  ASSERT_EQ(cells.size(), expected.size());
  for (const auto& [key, summary] : expected) {
    const auto it = cells.find(key);
    ASSERT_NE(it, cells.end()) << key.label();
    EXPECT_TRUE(summary.approx_equals(it->second)) << key.label();
  }
  EXPECT_GT(stats.subqueries, 0u);
}

TEST_P(ClusterScaleTest, WarmQueriesScaleFreeOfDisk) {
  ClusterConfig config;
  config.num_nodes = GetParam();
  StashCluster cluster(config, shared_generator());
  const AggregationQuery county{{38.0, 38.6, -99.0, -97.8},
                                {unix_seconds({2015, 2, 2}),
                                 unix_seconds({2015, 2, 3})},
                                {6, TemporalRes::Day}};
  cluster.run_query(county);
  const auto warm = cluster.run_query(county);
  EXPECT_EQ(warm.breakdown.scan.records_scanned, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ClusterScaleTest,
                         ::testing::Values(1u, 4u, 16u, 64u, 120u));

TEST(ClusterScaleTest, MoreNodesMoreBurstThroughput) {
  // A burst of state queries spread over the continent: a 64-node cluster
  // must finish well before a 4-node cluster.
  workload::WorkloadGenerator wl;
  std::vector<AggregationQuery> burst;
  for (int i = 0; i < 40; ++i)
    burst.push_back(wl.random_query(workload::QueryGroup::State));

  const auto makespan = [&](std::uint32_t nodes) {
    ClusterConfig config;
    config.num_nodes = nodes;
    StashCluster cluster(config, shared_generator());
    sim::SimTime last = 0;
    for (const auto& s : cluster.run_burst(burst))
      last = std::max(last, s.completed_at);
    return last;
  };
  const sim::SimTime small = makespan(4);
  const sim::SimTime large = makespan(64);
  EXPECT_LT(large, small);
  EXPECT_LT(static_cast<double>(large), 0.6 * static_cast<double>(small));
}

}  // namespace
}  // namespace stash::cluster
