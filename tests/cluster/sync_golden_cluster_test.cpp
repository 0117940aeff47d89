// Cross-commit golden for the chunk-sync protocol.  Every path that ships
// whole chunks between nodes — anti-entropy recovery after a restart and
// after a partition heal, the scrubber's digest walk dropping a divergent
// replica, warm rebalance transfer under a corrupting link with a joiner
// crashing mid-transfer, and hotspot clique replication — runs in one
// seeded scenario, and the run is pinned to constants.
//
// DeterminismTest only compares two runs of the same build; this test
// compares against numbers recorded once, so a refactor of the transfer
// protocol that adds, drops or reorders a single message (fault dice are
// rolled per message) fails here.  The constants must only change with a
// deliberate behaviour change, never with a refactor.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/checksum.hpp"
#include "common/civil_time.hpp"
#include "geo/geohash.hpp"
#include "obs/metrics.hpp"
#include "workload/workload.hpp"

namespace stash {

// Same test-peer definition as integrity_test.cpp (identical, so the two
// translation units agree): mutable access to a graph's chunk cells, used
// to rot a cached replica in memory.
struct StashGraphTestPeer {
  static StashGraph::LevelMap& level(StashGraph& g, const Resolution& res) {
    return g.level_of(res);
  }
};

namespace cluster {
namespace {

using sim::kMillisecond;
using sim::kSecond;

std::shared_ptr<const NamGenerator> shared_generator() {
  static auto gen = std::make_shared<const NamGenerator>();
  return gen;
}

AggregationQuery county_query() {
  return {{38.0, 38.6, -99.0, -97.8},
          {unix_seconds({2015, 2, 2}), unix_seconds({2015, 2, 3})},
          {6, TemporalRes::Day}};
}

AggregationQuery wide_query() {
  AggregationQuery q = county_query();
  q.area = q.area.scaled(16.0);
  return q;
}

constexpr NodeId kNodes = 16;
constexpr NodeId kSlots = 20;
constexpr NodeId kJoiner = 16;        // joins and stays
constexpr NodeId kDoomedJoiner = 17;  // crashes mid-transfer

NodeId owner_of(const AggregationQuery& q, std::size_t i) {
  const ZeroHopDht dht(kNodes, 2);
  return dht.node_for_partition(geohash::covering(q.area, 2).at(i));
}

ClusterConfig golden_config() {
  ClusterConfig config;
  config.num_nodes = kNodes;
  config.max_nodes = kSlots;
  config.seed = 0x60DE;
  config.stash.hotspot_queue_threshold = 20;
  config.subquery_timeout = 50 * kMillisecond;
  config.retry_backoff = 5 * kMillisecond;
  config.recovery_cooldown = 20 * kMillisecond;
  config.suspect_ttl = 200 * kMillisecond;
  config.membership.probe_interval = 50 * kMillisecond;
  config.membership.probe_timeout = 5 * kMillisecond;
  config.membership.suspicion_timeout = 100 * kMillisecond;
  config.ring_check_interval = 50 * kMillisecond;
  config.ring_stabilize_delay = 150 * kMillisecond;
  config.rebalance_transfer_deadline = 400 * kMillisecond;
  config.fault_plan.seed = 0x5EED;
  // A partition cuts one owner off from the front-end, then heals.
  std::vector<std::uint32_t> rest = {sim::kFrontendNode};
  const NodeId cut = owner_of(wide_query(), 1);
  for (NodeId n = 0; n < kSlots; ++n)
    if (n != cut) rest.push_back(n);
  config.fault_plan.partitions.push_back(
      {.groups = {{cut}, rest},
       .at = 1 * kSecond,
       .heal_at = 1500 * kMillisecond});
  // Every link bit-flips 30% of frames (redelivered, or poison past the
  // budget); hops into the doomed joiner are also slowed so its transfers
  // are still in flight when it crashes.
  config.fault_plan.links.push_back({.to = kDoomedJoiner,
                                     .extra_latency = 300 * kMillisecond,
                                     .corrupt_probability = 0.3});
  config.fault_plan.links.push_back({.corrupt_probability = 0.3});
  return config;
}

/// Swaps two differing cell summaries inside one complete chunk of `graph`:
/// invariant-silent rot that only a content digest catches.
bool rot_cached_chunk(StashGraph& graph) {
  for (int lvl = 0; lvl < kNumLevels; ++lvl) {
    const Resolution res = resolution_of_level(lvl);
    for (auto& [chunk_key, data] : StashGraphTestPeer::level(graph, res)) {
      if (!graph.chunk_complete(res, chunk_key) || data.cells.size() < 2)
        continue;
      for (auto it = data.cells.begin(); it != data.cells.end(); ++it)
        for (auto jt = std::next(it); jt != data.cells.end(); ++jt)
          if (!(it->second == jt->second)) {
            std::swap(it->second, jt->second);
            return true;
          }
    }
  }
  return false;
}

struct Golden {
  std::uint64_t events = 0;
  std::uint64_t drop_checks = 0;
  std::uint64_t metrics_checksum = 0;
  std::uint64_t result_cells = 0;
  ClusterMetrics metrics;
};

Golden run_golden() {
  StashCluster cluster(golden_config(), shared_generator());
  std::uint64_t result_cells = 0;
  const auto run = [&](const AggregationQuery& q) {
    result_cells += cluster.run_query(q).result_cells;
  };

  // Warm, then crash and restart an owner: failover warms its successor,
  // and the restart's anti-entropy round pulls those chunks back.
  const NodeId victim = owner_of(wide_query(), 0);
  run(wide_query());
  run(county_query());
  cluster.crash_node(victim);
  run(wide_query());
  cluster.restart_node(victim);
  cluster.loop().run();

  // Partition + heal (scripted at 1 s .. 1.5 s): the cut-off owner's
  // partitions fail over, and the heal re-warms it from the successors.
  cluster.loop().run_until(1100 * kMillisecond);
  run(wide_query());
  cluster.loop().run_until(2 * kSecond);

  // Rot one cached replica in memory and one storage block, then scrub:
  // the divergent chunk is dropped and pulled again, the block repaired.
  auto& graph = const_cast<StashGraph&>(cluster.node_graph(victim));
  EXPECT_TRUE(rot_cached_chunk(graph));
  const auto partitions = geohash::covering(wide_query().area, 2);
  cluster.rot_block(partitions.back(), wide_query().time.begin / 86400);
  cluster.scrub_now();
  cluster.recover_node(victim);
  cluster.loop().run();
  run(wide_query());

  // Hotspot burst: clique replication onto antipode helpers.
  workload::WorkloadConfig wl_config;
  wl_config.seed = 7;
  workload::WorkloadGenerator wl(wl_config);
  const auto burst = wl.hotspot_burst(workload::QueryGroup::County, 300, 0.1);
  AggregationQuery warm = burst.front();
  warm.area = warm.area.scaled(16.0);
  run(warm);
  for (const auto& stats : cluster.run_open_loop(burst, 20))
    result_cells += stats.result_cells;

  // Scale out under the corrupting links; one joiner dies mid-transfer, so
  // its inbound moves revert to their old owners.  The continental query
  // first warms enough partitions that the moves carry warm chunks.
  AggregationQuery continent = county_query();
  continent.area = {25.0, 49.0, -124.0, -67.0};
  continent.res = {3, TemporalRes::Day};
  run(continent);
  cluster.join_node(kJoiner);
  cluster.join_node(kDoomedJoiner);
  // Crash the slowed joiner as soon as an epoch admits it: every hop into
  // it takes 300 ms, so its inbound transfers are still in flight.
  for (int step = 0; step < 400 && !cluster.ring().contains(kDoomedJoiner);
       ++step)
    cluster.loop().run_for(10 * kMillisecond);
  EXPECT_TRUE(cluster.ring().contains(kDoomedJoiner));
  cluster.crash_node(kDoomedJoiner);
  EXPECT_TRUE(cluster.run_until_stable(60 * kSecond));
  run(wide_query());
  run(county_query());

  Golden g;
  g.events = cluster.loop().executed();
  g.drop_checks = cluster.faults().stats().drop_checks;
  g.metrics_checksum = checksum64(obs::to_json(
      cluster.metrics_registry().snapshot(), cluster.loop().now()));
  g.result_cells = result_cells;
  g.metrics = cluster.metrics();
  return g;
}

TEST(SyncGoldenClusterTest, ScenarioCrossesEverySyncPath) {
  const Golden g = run_golden();
  const ClusterMetrics& m = g.metrics;
  EXPECT_GT(m.recoveries, 0u);
  EXPECT_GT(m.digests_exchanged, 0u);
  EXPECT_GT(m.chunks_rewarmed, 0u);
  EXPECT_GT(m.cells_rewarmed, 0u);
  EXPECT_GT(m.partitions_observed, 0u);
  EXPECT_GT(m.replica_divergences, 0u);
  EXPECT_GT(m.scrub_repairs, 0u);
  EXPECT_GT(m.messages_redelivered, 0u);
  EXPECT_GT(m.rebalance_partitions_moved, 0u);
  EXPECT_GT(m.rebalance_ownership_reverts, 0u);
  EXPECT_GT(m.cliques_replicated, 0u);
  EXPECT_GT(m.cells_replicated, 0u);
}

TEST(SyncGoldenClusterTest, MatchesPinnedConstants) {
  const Golden g = run_golden();
  EXPECT_EQ(g.events, 32748u);
  EXPECT_EQ(g.drop_checks, 22049u);
  EXPECT_EQ(g.metrics_checksum, 2311316914289772537u);
  EXPECT_EQ(g.result_cells, 21182u);
}

}  // namespace
}  // namespace cluster
}  // namespace stash
