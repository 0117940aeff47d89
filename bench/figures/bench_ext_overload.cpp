// Extension — goodput under overload, with and without overload controls.
//
// Not a paper figure: the paper's hotspot experiment (Fig 6d) absorbs a
// skewed burst with dynamic replication; this bench asks what happens when
// no helper is available (replication off) and offered load sweeps through
// and past one node's capacity.  For each load factor 0.5x..3x we drive an
// open-loop Zipf city burst at the hot partition twice:
//
//   controls  — bounded queue + per-query deadline + retry budget +
//               degraded (ancestor-level) answers;
//   legacy    — unbounded queue, no deadline, unlimited timeout retries.
//
// The series to look at is goodput (full-coverage completions within the
// deadline used as an SLO for both configs): with controls it tracks
// offered load below capacity and stays pinned near capacity above it —
// the excess surfaces as shed/degraded fractions — while the legacy
// config's queueing delay and retry storm push it off a cliff.

#include <algorithm>
#include <cmath>

#include "bench_common.hpp"
#include "common/zipf.hpp"
#include "geo/geohash.hpp"

using namespace stash;
using namespace stash::bench;

namespace {

constexpr std::uint32_t kNodes = 16;
constexpr std::size_t kRegions = 8;
constexpr std::size_t kWarmRegions = 4;
constexpr double kSkew = 1.2;
constexpr std::size_t kQueries = 4000;
constexpr sim::SimTime kDeadline = 50 * sim::kMillisecond;

struct Scenario {
  std::vector<AggregationQuery> burst;
  std::vector<AggregationQuery> regions;
};

Scenario make_scenario() {
  Scenario s;
  const BoundingBox cell = geohash::decode("9y");
  const auto extent = workload::extent_of(workload::QueryGroup::City);
  workload::WorkloadConfig wl_config;
  wl_config.domain = cell;
  const workload::WorkloadGenerator wl(wl_config);
  Rng rng(0x4f564c44ULL);
  for (std::size_t i = 0; i < kRegions; ++i) {
    const LatLng center{
        rng.uniform(cell.lat_min + extent.dlat, cell.lat_max - extent.dlat),
        rng.uniform(cell.lng_min + extent.dlng, cell.lng_max - extent.dlng)};
    s.regions.push_back(wl.query_at(workload::QueryGroup::City, center));
  }
  const ZipfDistribution zipf(kRegions, kSkew);
  for (std::size_t i = 0; i < kQueries; ++i)
    s.burst.push_back(s.regions[zipf.sample(rng)]);
  return s;
}

cluster::ClusterConfig base_config(bool controls) {
  cluster::ClusterConfig config;
  config.num_nodes = kNodes;
  config.mode = cluster::SystemMode::StashNoReplication;
  config.tracing = false;
  config.subquery_timeout = 25 * sim::kMillisecond;
  if (controls) {
    config.queue_limit = 32;
    config.query_deadline = kDeadline;
    config.retry_budget = 2.0;
  } else {
    config.queue_limit = 0;
    config.query_deadline = 0;
    config.retry_budget = 0.0;
    config.degraded_answers = false;
  }
  return config;
}

void warm(cluster::StashCluster& cluster, const Scenario& s) {
  AggregationQuery ancestor = s.burst.front();
  ancestor.area = geohash::decode("9y");
  ancestor.res = {5, TemporalRes::Day};
  cluster.preload(ancestor);
  for (std::size_t i = 0; i < kWarmRegions; ++i) cluster.preload(s.regions[i]);
}

double calibrate_service_us(const Scenario& s) {
  cluster::StashCluster cluster(base_config(true), shared_generator());
  warm(cluster, s);
  std::vector<AggregationQuery> probe;
  for (int i = 0; i < 40; ++i)
    probe.push_back(s.regions[static_cast<std::size_t>(i) % kWarmRegions]);
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const auto& h : cluster.metrics_registry().snapshot().histograms)
    if (h.name == "stash_subquery_service_us") {
      sum = h.sum;
      count = h.count;
    }
  cluster.run_sequence(probe);
  for (const auto& h : cluster.metrics_registry().snapshot().histograms)
    if (h.name == "stash_subquery_service_us") {
      sum = h.sum - sum;
      count = h.count - count;
    }
  return count > 0 ? sum / static_cast<double>(count) : 1.0;
}

struct Point {
  double goodput_pct = 0.0;  // full coverage within the SLO, % of offered
  double shed_pct = 0.0;     // subqueries shed or expired, % of offered
  double degraded_pct = 0.0; // queries with >= 1 coarsened partition
  double p99_ms = 0.0;
  std::uint64_t retries = 0;
};

Point run_point(const Scenario& s, bool controls, sim::SimTime interarrival,
                const char* dump_name = nullptr) {
  cluster::StashCluster cluster(base_config(controls), shared_generator());
  warm(cluster, s);
  const auto stats = cluster.run_open_loop(s.burst, interarrival);

  Point p;
  std::vector<sim::SimTime> lat;
  lat.reserve(stats.size());
  std::size_t good = 0, degraded = 0;
  for (const auto& st : stats) {
    lat.push_back(st.latency());
    if (!st.partial && st.latency() <= kDeadline) ++good;
    if (st.degraded) ++degraded;
  }
  std::sort(lat.begin(), lat.end());
  const auto n = static_cast<double>(stats.size());
  p.goodput_pct = 100.0 * static_cast<double>(good) / n;
  p.degraded_pct = 100.0 * static_cast<double>(degraded) / n;
  const auto m = cluster.metrics();
  p.shed_pct =
      100.0 * static_cast<double>(m.subqueries_shed + m.subqueries_expired) / n;
  p.p99_ms = sim::to_millis(lat[lat.size() * 99 / 100]);
  p.retries = m.subquery_retries;
  if (dump_name != nullptr) dump_metrics_json(cluster, dump_name);
  return p;
}

}  // namespace

int main() {
  print_header("Ext", "goodput vs offered load, overload controls on/off");
  const Scenario scenario = make_scenario();
  const double service_us = calibrate_service_us(scenario);
  const cluster::ClusterConfig probe = base_config(true);
  const double capacity =
      static_cast<double>(probe.workers_per_node) / service_us;  // queries/us

  std::printf("hot node: %d workers, warm mean service %.0f us -> capacity "
              "%.1f q/ms; %zu-query zipf burst per point, %.0f ms SLO\n\n",
              probe.workers_per_node, service_us, capacity * 1000.0, kQueries,
              sim::to_millis(kDeadline));
  std::printf("%6s | %27s | %27s\n", "", "controls on", "legacy");
  std::printf("%6s | %8s %6s %6s %5s | %8s %6s %6s %5s\n", "load",
              "goodput", "shed", "degr", "p99", "goodput", "shed", "degr",
              "p99");
  print_rule();

  for (const double load : {0.5, 1.0, 1.5, 2.0, 2.5, 3.0}) {
    const auto interarrival = std::max<sim::SimTime>(
        1, static_cast<sim::SimTime>(std::llround(1.0 / (capacity * load))));
    // Archive the 2x point's metrics: the headline overload regime.
    const Point on = run_point(scenario, true, interarrival,
                               load == 2.0 ? "ext_overload" : nullptr);
    const Point off = run_point(scenario, false, interarrival);
    std::printf("%5.1fx | %7.1f%% %5.1f%% %5.1f%% %5.1f | "
                "%7.1f%% %5.1f%% %5.1f%% %5.1f\n",
                load, on.goodput_pct, on.shed_pct, on.degraded_pct, on.p99_ms,
                off.goodput_pct, off.shed_pct, off.degraded_pct, off.p99_ms);
  }
  print_rule();
  std::printf("(goodput = full-coverage completions within the SLO; shed = "
              "subqueries refused or expired at a node queue; degr = queries "
              "with >= 1 partition served from a coarser ancestor)\n");
  return 0;
}
