// Cluster-level observability: the MetricsRegistry compat view, exporters,
// and the per-query span trees — including the invariants the trace model
// promises (obs/trace.hpp): scatter + merge partition the query's latency
// exactly, and a serve span's stage children partition its service time.

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/cluster.hpp"
#include "common/civil_time.hpp"
#include "geo/geohash.hpp"

namespace stash::cluster {
namespace {

AggregationQuery county_query() {
  return {{38.0, 38.6, -99.0, -97.8},
          TemporalBin(TemporalRes::Day, 2015, 2, 2).range(),
          {6, TemporalRes::Day}};
}

ClusterConfig small_config(SystemMode mode = SystemMode::Stash) {
  ClusterConfig config;
  config.num_nodes = 16;
  config.mode = mode;
  return config;
}

std::shared_ptr<const NamGenerator> shared_generator() {
  static auto gen = std::make_shared<const NamGenerator>();
  return gen;
}

const obs::TraceSpan* find_span(const obs::Trace& trace,
                                const std::string& name) {
  for (const auto& span : trace.spans)
    if (span.name == name) return &span;
  return nullptr;
}

std::vector<const obs::TraceSpan*> children_of(const obs::Trace& trace,
                                               obs::SpanId parent) {
  std::vector<const obs::TraceSpan*> out;
  for (const auto& span : trace.spans)
    if (span.parent == parent) out.push_back(&span);
  return out;
}

TEST(ClusterObservabilityTest, SpanTreeStagesSumToReportedLatency) {
  StashCluster cluster(small_config(), shared_generator());
  const QueryStats stats = cluster.run_query(county_query());
  const auto trace = cluster.trace(stats.query_id);
  ASSERT_TRUE(trace.has_value());
  ASSERT_FALSE(trace->spans.empty());

  // Root covers [submitted_at, completed_at].
  const obs::TraceSpan& root = trace->spans[0];
  EXPECT_EQ(root.name, "query");
  EXPECT_EQ(root.start, stats.submitted_at);
  EXPECT_EQ(root.end, stats.completed_at);

  // The scatter and merge stages tile the root exactly, so their durations
  // sum to the reported end-to-end latency.
  const obs::TraceSpan* scatter = find_span(*trace, "scatter");
  const obs::TraceSpan* merge = find_span(*trace, "merge");
  ASSERT_NE(scatter, nullptr);
  ASSERT_NE(merge, nullptr);
  EXPECT_EQ(scatter->start, root.start);
  EXPECT_EQ(scatter->end, merge->start);
  EXPECT_EQ(merge->end, root.end);
  EXPECT_EQ(scatter->duration() + merge->duration(), stats.latency());
}

TEST(ClusterObservabilityTest, ServeStagesPartitionServiceTime) {
  StashCluster cluster(small_config(), shared_generator());
  const QueryStats stats = cluster.run_query(county_query());
  const auto trace = cluster.trace(stats.query_id);
  ASSERT_TRUE(trace.has_value());

  std::size_t serves = 0;
  for (const auto& span : trace->spans) {
    if (span.name != "serve" && span.name != "serve guest") continue;
    ++serves;
    const auto stages = children_of(*trace, span.id);
    ASSERT_FALSE(stages.empty()) << "serve span without stage children";
    // Stages are contiguous and tile the serve span exactly.
    sim::SimTime cursor = span.start;
    sim::SimTime total = 0;
    for (const auto* stage : stages) {
      EXPECT_EQ(stage->start, cursor) << stage->name;
      cursor = stage->end;
      total += stage->duration();
    }
    EXPECT_EQ(cursor, span.end);
    EXPECT_EQ(total, span.duration());
  }
  EXPECT_EQ(serves, stats.subqueries);
}

TEST(ClusterObservabilityTest, SubquerySpansCoverEveryPartition) {
  StashCluster cluster(small_config(), shared_generator());
  const QueryStats stats = cluster.run_query(county_query());
  const auto trace = cluster.trace(stats.query_id);
  ASSERT_TRUE(trace.has_value());
  std::size_t subquery_spans = 0;
  for (const auto& span : trace->spans)
    if (span.name.rfind("subquery ", 0) == 0) ++subquery_spans;
  EXPECT_EQ(subquery_spans, stats.subqueries);
}

TEST(ClusterObservabilityTest, TracingDisabledRecordsNothing) {
  ClusterConfig config = small_config();
  config.tracing = false;
  StashCluster cluster(config, shared_generator());
  const QueryStats stats = cluster.run_query(county_query());
  EXPECT_GT(stats.result_cells, 0u);
  EXPECT_FALSE(cluster.trace(stats.query_id).has_value());
  EXPECT_EQ(cluster.tracer().size(), 0u);
}

TEST(ClusterObservabilityTest, CompatViewMatchesRegistryCounters) {
  // A faulted run that moves every snapshot-time counter: a corrupting
  // link, scripted bit-rot under the scrubber, a short partition around
  // the victim, then a crash, a failover query and a restart.
  ClusterConfig config = small_config();
  config.subquery_timeout = 50 * sim::kMillisecond;
  config.recovery_cooldown = 20 * sim::kMillisecond;
  config.suspect_ttl = 200 * sim::kMillisecond;
  config.membership.probe_interval = 50 * sim::kMillisecond;
  config.membership.probe_timeout = 5 * sim::kMillisecond;
  config.membership.suspicion_timeout = 100 * sim::kMillisecond;
  config.scrub_interval = 100 * sim::kMillisecond;
  AggregationQuery query = county_query();
  query.area = query.area.scaled(16.0);
  const auto partitions = geohash::covering(query.area, 2);
  const NodeId victim = ZeroHopDht(config.num_nodes, 2)
                            .node_for_partition(partitions.front());
  config.fault_plan.links.push_back(
      {.corrupt_probability = 0.3, .truncate_probability = 0.5});
  config.fault_plan.bitrot.push_back({.partition = partitions.back(),
                                      .day = query.time.begin / 86400,
                                      .at = 0});
  std::vector<std::uint32_t> rest{sim::kFrontendNode};
  for (NodeId id = 0; id < config.num_nodes; ++id)
    if (id != victim) rest.push_back(id);
  config.fault_plan.partitions.push_back(
      {.groups = {{victim}, rest},
       .at = 300 * sim::kMillisecond,
       .heal_at = 600 * sim::kMillisecond});
  StashCluster cluster(config, shared_generator());
  cluster.run_query(query);
  cluster.loop().run_until(400 * sim::kMillisecond);
  cluster.run_query(query);
  cluster.loop().run_until(sim::kSecond);
  cluster.crash_node(victim);
  cluster.run_query(query);  // fails over to the victim's successors
  cluster.restart_node(victim);
  cluster.loop().run_until(2 * sim::kSecond);
  cluster.run_query(query);

  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.queries_completed, 4u);
  EXPECT_EQ(m.node_crashes, 1u);
  EXPECT_EQ(m.node_restarts, 1u);
  const obs::MetricsSnapshot snap = cluster.metrics_registry().snapshot();
  const auto scalar = [&](const std::string& name) -> double {
    for (const auto& s : snap.scalars)
      if (s.name == name) return s.value;
    ADD_FAILURE() << "missing metric " << name;
    return -1.0;
  };
  // Every table row: the exported name follows the field (timeouts_fired
  // is the one historical exception), and the compat field equals the
  // registry value under that name.
  const auto check = [&](const std::string& field, const std::string& name,
                         std::uint64_t value) {
    EXPECT_EQ(name, field == "timeouts_fired" ? "stash_timeouts_total"
                                              : "stash_" + field + "_total");
    EXPECT_EQ(scalar(name), static_cast<double>(value)) << field;
  };
#define STASH_X(field, name, ...) check(#field, name, m.field);
  STASH_CLUSTER_COUNTERS(STASH_X)
#undef STASH_X
#define STASH_X(field, name, ...) \
  check(#field, name, m.field);   \
  EXPECT_GT(m.field, 0u) << #field;
  STASH_CLUSTER_READ_COUNTERS(STASH_X)
#undef STASH_X
  // Callback gauges see live cluster state.
  EXPECT_EQ(scalar("stash_cached_cells"),
            static_cast<double>(cluster.total_cached_cells()));
  EXPECT_EQ(scalar("stash_pending_queries"), 0.0);
  EXPECT_GT(scalar("stash_graph_cells_absorbed_total"), 0.0);
}

TEST(ClusterObservabilityTest, LatencyHistogramSeesEveryQuery) {
  StashCluster cluster(small_config(), shared_generator());
  cluster.run_query(county_query());
  cluster.run_query(county_query());
  const obs::MetricsSnapshot snap = cluster.metrics_registry().snapshot();
  const auto it =
      std::find_if(snap.histograms.begin(), snap.histograms.end(),
                   [](const obs::HistogramSnapshot& h) {
                     return h.name == "stash_query_latency_us";
                   });
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->count, 2u);
  EXPECT_GT(it->sum, 0.0);
}

TEST(ClusterObservabilityTest, ExportersProduceWellFormedOutput) {
  StashCluster cluster(small_config(), shared_generator());
  cluster.run_query(county_query());
  const obs::MetricsSnapshot snap = cluster.metrics_registry().snapshot();
  const std::string prom = obs::to_prometheus(snap);
  EXPECT_NE(prom.find("# TYPE stash_queries_completed_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("stash_queries_completed_total 1"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE stash_query_latency_us histogram"),
            std::string::npos);
  const std::string json = obs::to_json(snap, cluster.loop().now());
  EXPECT_EQ(json.find("{\"schema\":\"stash-metrics-v1\""), 0u);
  EXPECT_NE(json.find("\"stash_queries_completed_total\":1"),
            std::string::npos);
}

TEST(ClusterObservabilityTest, TraceRingRetainsTheMostRecentQueries) {
  ClusterConfig config = small_config();
  config.trace_capacity = 4;
  StashCluster cluster(config, shared_generator());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i)
    ids.push_back(cluster.run_query(county_query()).query_id);
  EXPECT_EQ(cluster.tracer().size(), 4u);
  EXPECT_FALSE(cluster.trace(ids[0]).has_value());
  EXPECT_FALSE(cluster.trace(ids[1]).has_value());
  for (int i = 2; i < 6; ++i)
    EXPECT_TRUE(cluster.trace(ids[static_cast<std::size_t>(i)]).has_value());
}

TEST(ClusterObservabilityTest, FailedSubqueriesLeaveFailureSpans) {
  ClusterConfig config = small_config();
  config.subquery_timeout = 50 * sim::kMillisecond;
  config.subquery_max_attempts = 2;
  config.failover_to_successor = false;
  StashCluster cluster(config, shared_generator());
  // Crash every node except one so the query's partitions are unreachable.
  const AggregationQuery query = county_query();
  for (NodeId id = 0; id < config.num_nodes; ++id) cluster.crash_node(id);
  const QueryStats stats = cluster.run_query(query);
  EXPECT_TRUE(stats.partial);
  const auto trace = cluster.trace(stats.query_id);
  ASSERT_TRUE(trace.has_value());
  bool saw_failed = false;
  bool saw_timeout = false;
  for (const auto& span : trace->spans) {
    for (const auto& [key, value] : span.tags) {
      if (key == "outcome" && value == "failed") saw_failed = true;
      if (key == "outcome" && value == "timeout") saw_timeout = true;
    }
  }
  EXPECT_TRUE(saw_failed);
  EXPECT_TRUE(saw_timeout);
  // Even a fully failed query keeps the scatter+merge==latency invariant.
  const obs::TraceSpan* scatter = find_span(*trace, "scatter");
  const obs::TraceSpan* merge = find_span(*trace, "merge");
  ASSERT_NE(scatter, nullptr);
  ASSERT_NE(merge, nullptr);
  EXPECT_EQ(scatter->duration() + merge->duration(), stats.latency());
}

}  // namespace
}  // namespace stash::cluster
