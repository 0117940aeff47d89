// Seeded chaos driver: every fault family through one harness (DESIGN.md
// §5, §8, §9, §11, §14, §15).
//
// A scenario row is a ClusterConfig built from the seed, a timed query
// schedule, a settle step, and checks proving its faults actually bit.  The
// harness judges every answer against a fault-free Basic-mode control of the
// same size: cells of an exactly served partition are byte-equal to the
// control's, a degraded partition's cells are skipped (the answer says so),
// a missing partition returns none, an unflagged answer is the whole map.
// It checks the invariants all rows share (every query answered, completed_at
// <= deadline, audit_all() clean, every partition served from the ring with
// no handoff in flight once settled), prints a line per row and a failed
// row's replay command, and writes <row>.metrics.json under --metrics-dir.
// NAME may be a family prefix (`elastic`).  Exit: 0 pass, 1 failed, 2 usage.
//
//   ./build/examples/chaos [--scenario NAME|all] [--seed N] [--metrics-dir DIR]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/civil_time.hpp"
#include "common/zipf.hpp"
#include "dht/partitioner.hpp"
#include "geo/geohash.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/workload.hpp"

using namespace stash;
using cluster::ClusterConfig;
using cluster::QueryStats;
using cluster::StashCluster;
using sim::kMillisecond;
using sim::kSecond;

namespace {

struct Answer {
  AggregationQuery query;
  QueryStats stats;
  CellSummaryMap cells;
  bool done = false;
};

bool flagged(const QueryStats& st) { return st.partial || st.degraded; }

/// One cluster driven through a row's script: what its checks read.
struct Run {
  std::unique_ptr<StashCluster> cluster;
  std::vector<Answer> answers;  // schedule order
  std::vector<Answer> probes;   // run by the row's `after` step, in order
  std::size_t partial = 0, flagged = 0;  // over `answers`
  cluster::ClusterMetrics m;             // sampled with the metrics JSON
  std::string metrics_json;
  bool settled = true;

  /// Runs one query to quiescence on the settled cluster (judged too).
  void probe(const AggregationQuery& query) {
    Answer& a = probes.emplace_back();
    a.query = query;
    a.stats = cluster->run_query(query, &a.cells);
    a.done = true;
  }
};

/// A row's check results; failures print under its report line.
struct Checks {
  std::size_t total = 0;
  std::vector<std::string> failures;
  void operator()(bool ok, const char* what) {
    ++total;
    if (!ok) failures.emplace_back(what);
  }
};

enum class Settle { kRun, kRunUntil, kRunUntilStable };

struct Script {
  ClusterConfig config;
  /// Query arrivals, as offsets from the end of `setup`.
  std::vector<std::pair<sim::SimTime, AggregationQuery>> schedule;
  Settle settle = Settle::kRun;
  sim::SimTime settle_at = 0;  // kRunUntil: absolute virtual time
  /// Warm-up and scripted events, before any arrival is scheduled.
  std::function<void(StashCluster&)> setup;
  /// Probes, once settled and the shared invariants checked.
  std::function<void(Run&)> after;
  /// The row's own checks; `baseline` is non-null iff one is configured.
  std::function<void(const Run&, const Run* baseline, Checks&)> checks;
  /// A second run of the same script under this config, for comparisons.
  std::optional<ClusterConfig> baseline;
};

/// Fault-free Basic-mode answers (every query scans durable storage).
class Control {
 public:
  explicit Control(std::uint32_t nodes) {
    config_.num_nodes = nodes;
    config_.mode = cluster::SystemMode::Basic;
  }
  const CellSummaryMap& answer(const AggregationQuery& q) {
    for (const auto& [query, cells] : memo_)
      if (query.area == q.area && query.time == q.time && query.res == q.res)
        return cells;
    if (!cluster_)
      cluster_ = std::make_unique<StashCluster>(
          config_, std::make_shared<const NamGenerator>());
    CellSummaryMap cells;
    cluster_->run_query(q, &cells);
    return memo_.emplace_back(q, std::move(cells)).second;
  }

 private:
  ClusterConfig config_;
  std::unique_ptr<StashCluster> cluster_;
  std::vector<std::pair<AggregationQuery, CellSummaryMap>> memo_;
};

struct Verdict {
  std::size_t exact = 0, degraded = 0, partial = 0;
  std::size_t cells = 0, skipped = 0, bad = 0;
};

/// Exact or honestly flagged, cell by cell (see the header comment).
void judge(const Answer& a, const CellSummaryMap& want, std::size_t prefix,
           Verdict& v) {
  using Kind = cluster::PartitionCoverage::Kind;
  const QueryStats& st = a.stats;
  ++(st.partial ? v.partial : st.degraded ? v.degraded : v.exact);
  for (const auto& [key, summary] : a.cells) {
    const std::string partition = key.geohash_str().substr(0, prefix);
    const auto cov =
        std::find_if(st.coverage.begin(), st.coverage.end(),
                     [&](const auto& c) { return c.partition == partition; });
    const bool known = cov != st.coverage.end();
    if (known && cov->kind == Kind::kDegraded) {
      ++v.skipped;
      continue;
    }
    ++v.cells;
    const auto it = want.find(key);
    if (!known || cov->kind != Kind::kExact || it == want.end() ||
        !(summary == it->second))
      ++v.bad;
  }
  // Unflagged: every returned cell matched, so equal sizes = equal maps.
  if (!flagged(st) && a.cells.size() != want.size()) ++v.bad;
}

Run drive(const Script& s, const ClusterConfig& config, Control& control,
          Verdict& v, Checks& check) {
  Run r;
  r.cluster = std::make_unique<StashCluster>(
      config, std::make_shared<const NamGenerator>());
  StashCluster& c = *r.cluster;
  if (s.setup) s.setup(c);
  r.answers.resize(s.schedule.size());
  for (std::size_t i = 0; i < s.schedule.size(); ++i) {
    Answer& a = r.answers[i];
    a.query = s.schedule[i].second;
    c.loop().schedule(s.schedule[i].first, [&r, &c, &a] {
      c.submit(a.query, [&r, &a](const QueryStats& st, CellSummaryMap&& cells) {
        r.partial += st.partial;
        r.flagged += flagged(st);
        a.stats = st;
        a.cells = std::move(cells);
        a.done = true;
      });
    });
  }
  c.loop().run();
  if (s.settle == Settle::kRunUntil) c.loop().run_until(s.settle_at);
  if (s.settle == Settle::kRunUntilStable) r.settled = c.run_until_stable();

  const auto prefix = static_cast<std::size_t>(config.partition_prefix_length);
  bool on_ring = true;
  for (const auto& p : ZeroHopDht(1, static_cast<int>(prefix)).all_partitions())
    on_ring &= c.ring().contains(c.serving_owner(p));
  check(r.settled && !c.rebalance_in_progress(),
        "settled: no handoff or ring change left in flight");
  check(on_ring, "every partition's serving owner is on the installed ring");
  check(c.audit_all().ok(), "hierarchy/routing/ring audit passes everywhere");

  if (s.after) s.after(r);
  r.m = c.metrics();
  r.metrics_json =
      obs::to_json(c.metrics_registry().snapshot(), c.loop().now());

  bool answered = true, in_time = true;
  for (const auto* list : {&r.answers, &r.probes})
    for (const Answer& a : *list) {
      answered &= a.done;
      in_time &= a.stats.deadline == 0 ||
                 a.stats.completed_at <= a.stats.deadline;
      if (a.done) judge(a, control.answer(a.query), prefix, v);
    }
  check(answered, "every query answered");
  check(in_time, "completed_at <= deadline wherever a deadline is set");
  return r;
}

/// Span tree of the query that suffered the most retries + failovers.
std::string worst_trace(const Run& r) {
  const auto hits = [](const Answer& a) {
    return a.stats.retries + a.stats.failovers;
  };
  const auto worst = std::max_element(
      r.answers.begin(), r.answers.end(),
      [&](const Answer& x, const Answer& y) { return hits(x) < hits(y); });
  if (worst == r.answers.end() || hits(*worst) == 0) return {};
  const auto trace = r.cluster->trace(worst->stats.query_id);
  return trace ? obs::render_tree(*trace) : std::string{};
}

struct Row {
  const char* name;
  std::uint64_t default_seed;
  Script (*script)(std::uint64_t seed, int variant);
  int variant;
};

bool run_row(const Row& row, std::uint64_t seed, const std::string& dir) {
  const Script s = row.script(seed, row.variant);
  Control control(s.config.num_nodes);
  Verdict v;
  Checks check;
  const Run run = drive(s, s.config, control, v, check);
  std::optional<Run> base;
  if (s.baseline) base = drive(s, *s.baseline, control, v, check);
  check(v.bad == 0, "every answer byte-equal to control or honestly flagged");
  s.checks(run, base ? &*base : nullptr, check);

  const bool ok = check.failures.empty();
  std::printf(
      "%-17s seed=%-10llu %zu exact / %zu degraded / %zu partial; cells "
      "%zu checked, %zu skipped, %zu bad; retries=%llu failovers=%llu; "
      "%zu checks %s\n",
      row.name, static_cast<unsigned long long>(seed), v.exact, v.degraded,
      v.partial, v.cells, v.skipped, v.bad,
      static_cast<unsigned long long>(run.m.subquery_retries),
      static_cast<unsigned long long>(run.m.failovers),
      check.total, ok ? "PASS" : "FAIL");
  for (const auto& what : check.failures)
    std::printf("  [FAIL] %s\n", what.c_str());
  if (!ok)
    std::printf("  replay: chaos --scenario %s --seed %llu\n", row.name,
                static_cast<unsigned long long>(seed));
  if (const std::string tree = worst_trace(run); !tree.empty())
    std::printf("  most-retried query's span tree:\n%s", tree.c_str());

  if (dir.empty()) return ok;
  std::ofstream out(dir + "/" + row.name + ".metrics.json");
  out << run.metrics_json << '\n';
  if (!out) std::fprintf(stderr, "chaos: cannot write to %s\n", dir.c_str());
  return ok && out.good();
}

/// The gh2 DHT owner of `query`'s first partition on an n-node ring.
NodeId owner_of(const AggregationQuery& query, std::uint32_t nodes) {
  const int len = ClusterConfig{}.partition_prefix_length;
  return ZeroHopDht(nodes, len)
      .node_for_partition(geohash::covering(query.area, len).front());
}

/// Fast timeouts, and gossip that detects a failure within ~100 ms.
ClusterConfig fast_config(std::uint32_t nodes) {
  ClusterConfig c;
  c.num_nodes = nodes;
  c.subquery_timeout = 50 * kMillisecond;
  c.retry_backoff = 5 * kMillisecond;
  c.membership.probe_interval = 50 * kMillisecond;
  c.membership.probe_timeout = 5 * kMillisecond;
  c.membership.suspicion_timeout = 100 * kMillisecond;
  return c;
}

// failover / failover-off: the owner of a hotspot's partition crashes 5 ms
// into a 600-query burst and restarts cold at 150 ms.  With successor
// failover the answers stay complete; without it they turn honestly partial.

Script failover(std::uint64_t seed, int on) {
  workload::WorkloadConfig wc;
  wc.seed = seed;
  workload::WorkloadGenerator wl(wc);
  const auto burst = wl.hotspot_burst(workload::QueryGroup::County, 600, 0.1);
  AggregationQuery warm = burst.front();
  warm.area = warm.area.scaled(16.0);

  Script s;
  ClusterConfig& c = s.config;
  c.num_nodes = 32;
  c.stash.hotspot_queue_threshold = 40;
  c.stash.reroute_probability = 0.6;
  c.subquery_timeout = 20 * kMillisecond;
  c.retry_backoff = 2 * kMillisecond;
  c.suspect_ttl = 100 * kMillisecond;
  c.failover_to_successor = on != 0;
  if (!on) c.subquery_max_attempts = 2;
  c.trace_capacity = 1024;  // keep the early-burst traces renderable
  for (std::size_t i = 0; i < burst.size(); ++i)
    s.schedule.emplace_back(static_cast<sim::SimTime>(i) * 12, burst[i]);
  s.setup = [warm, victim = owner_of(burst.front(), 32)](StashCluster& cl) {
    cl.run_query(warm);  // warm the region before the chaos starts
    cl.loop().schedule(5 * kMillisecond,
                       [&cl, victim] { cl.crash_node(victim); });
    cl.loop().schedule(150 * kMillisecond,
                       [&cl, victim] { cl.restart_node(victim); });
  };
  // Restart and suspicion TTL have lapsed: re-warm on the recovered owner.
  s.after = [warm](Run& r) { r.probe(warm); };
  s.checks = [on](const Run& r, const Run*, Checks& check) {
    if (on) {
      check(r.m.failovers > 0, "the crash forced successor failovers");
      check(r.partial == 0, "failover kept every answer complete");
    } else {
      check(r.partial > 0, "the crash surfaced as honest partials");
      check(r.m.failovers == 0, "no failover with failover disabled");
    }
  };
  return s;
}

// overload: a Zipf city burst on one partition ("9y") at 2x the owner's
// calibrated capacity, replication off, with a bounded queue, a deadline
// and a retry budget.  Shed subqueries answer from cached s5 ancestors.

constexpr std::size_t kBurst = 8000;
constexpr sim::SimTime kSlo = 50 * kMillisecond;
constexpr std::size_t kQueueLimit = 32;

Script overload(std::uint64_t seed, int) {
  constexpr std::size_t kRegions = 8, kWarmRegions = 4;
  const BoundingBox gh = geohash::decode("9y");
  const auto extent = workload::extent_of(workload::QueryGroup::City);
  workload::WorkloadConfig wc;
  wc.domain = gh;
  const workload::WorkloadGenerator wl(wc);
  Rng rng(seed);  // placement + popularity sampling
  std::vector<AggregationQuery> regions;  // rank order, most popular first
  for (std::size_t i = 0; i < kRegions; ++i)
    regions.push_back(wl.query_at(
        workload::QueryGroup::City,
        {rng.uniform(gh.lat_min + extent.dlat, gh.lat_max - extent.dlat),
         rng.uniform(gh.lng_min + extent.dlng, gh.lng_max - extent.dlng)}));
  const ZipfDistribution zipf(kRegions, 1.2);
  std::vector<AggregationQuery> burst;
  for (std::size_t i = 0; i < kBurst; ++i)
    burst.push_back(regions[zipf.sample(rng)]);

  Script s;
  ClusterConfig& c = s.config;
  c.num_nodes = 16;
  c.mode = cluster::SystemMode::StashNoReplication;  // no helpers
  c.tracing = false;  // 8000 queries: shave wall-clock
  // Warm s5 over the whole partition (the degraded answer source) and s6
  // over the popular head only: the Zipf tail stays cold.
  const auto warm = [regions](StashCluster& cl) {
    AggregationQuery ancestor = regions.front();
    ancestor.area = geohash::decode("9y");
    ancestor.res = {5, TemporalRes::Day};
    cl.preload(ancestor);
    for (std::size_t i = 0; i < kWarmRegions; ++i) cl.preload(regions[i]);
  };

  // Mean warm busy time per subquery, from the service histogram; arrivals
  // come at twice what the node's workers can serve.
  StashCluster calibration(c, std::make_shared<const NamGenerator>());
  warm(calibration);
  const auto busy = [&calibration] {  // (sum us, count)
    for (const auto& h : calibration.metrics_registry().snapshot().histograms)
      if (h.name == "stash_subquery_service_us")
        return std::pair{h.sum, static_cast<double>(h.count)};
    return std::pair{0.0, 0.0};
  };
  const auto before = busy();
  std::vector<AggregationQuery> probe;
  for (std::size_t i = 0; i < 40; ++i)
    probe.push_back(regions[i % kWarmRegions]);
  calibration.run_sequence(probe);
  const auto after = busy();
  const double service_us = (after.first - before.first) /
                            std::max(1.0, after.second - before.second);
  const auto gap = std::max<sim::SimTime>(
      1, static_cast<sim::SimTime>(service_us / (2.0 * c.workers_per_node)));

  c.queue_limit = kQueueLimit;
  c.admission_policy = sim::AdmissionPolicy::kRejectNew;
  c.query_deadline = kSlo;
  c.retry_budget = 2.0;
  c.subquery_timeout = 25 * kMillisecond;
  for (std::size_t i = 0; i < burst.size(); ++i)
    s.schedule.emplace_back(static_cast<sim::SimTime>(i) * gap, burst[i]);
  // Sample the hot node's queue on the arrival clock: the bound is checked
  // on observed depth, not on a counter the server keeps itself.
  auto peak = std::make_shared<std::size_t>(0);
  s.setup = [warm, peak, gap, hot = owner_of(regions.front(), 16)](
                StashCluster& cl) {
    warm(cl);
    for (sim::SimTime t = 0; t <= static_cast<sim::SimTime>(kBurst) * gap;
         t += gap)
      cl.loop().schedule(t, [&cl, peak, hot] {
        *peak = std::max(*peak, cl.node_queue_length(hot));
      });
  };
  s.checks = [peak](const Run& r, const Run*, Checks& check) {
    const auto good = std::count_if(
        r.answers.begin(), r.answers.end(), [](const Answer& a) {
          return !a.stats.partial && a.stats.latency() <= kSlo;
        });
    check(static_cast<std::size_t>(good) * 100 >= r.answers.size() * 95,
          "goodput >= 95% of offered load at 2x capacity");
    check(*peak <= kQueueLimit, "hot-node queue stays within the limit");
    check(r.m.subqueries_shed > 0 && r.m.degraded_subqueries > 0,
          "shedding and ancestor-level coarsening both engaged");
  };
  return s;
}

// partition: a 2-way split cuts three nodes (one a partition owner that also
// crashes and restarts cold mid-split) from the front-end for 2 s.  After
// the heal, anti-entropy re-warms the cut side; the baseline is the same
// run with recovery off.

const AggregationQuery kCounty = {
    {38.0, 38.6, -99.0, -97.8},
    {unix_seconds({2015, 2, 2}), unix_seconds({2015, 2, 3})},
    {6, TemporalRes::Day}};

AggregationQuery scaled(AggregationQuery q, double factor) {
  q.area = q.area.scaled(factor);
  return q;
}

Script partition(std::uint64_t seed, int) {
  constexpr std::uint32_t kNodes = 16;
  const AggregationQuery query = scaled(kCounty, 16.0);
  const std::size_t partitions = geohash::covering(query.area, 2).size();
  const NodeId victim = owner_of(query, kNodes);
  const std::vector<std::uint32_t> minority = {victim, (victim + 1) % kNodes,
                                               (victim + 5) % kNodes};
  std::vector<std::uint32_t> majority = {sim::kFrontendNode};
  for (std::uint32_t id = 0; id < kNodes; ++id)
    if (std::find(minority.begin(), minority.end(), id) == minority.end())
      majority.push_back(id);

  Script s;
  ClusterConfig& c = s.config = fast_config(kNodes);
  c.suspect_ttl = 200 * kMillisecond;
  c.query_deadline = 1 * kSecond;
  c.fault_plan.seed = seed;
  c.fault_plan.partitions.push_back({.groups = {majority, minority},
                                     .at = 10 * kSecond,
                                     .heal_at = 12 * kSecond});
  c.fault_plan.crashes.push_back({.node = victim, .at = 10200 * kMillisecond,
                                  .restart_at = 11 * kSecond});
  s.baseline = c;
  s.baseline->recovery = false;

  s.schedule.emplace_back(0, query);  // warm-up
  for (sim::SimTime i = 0; i < 20; ++i)
    s.schedule.emplace_back((10050 + i * 20) * kMillisecond, query);
  s.settle = Settle::kRunUntil;
  s.settle_at = 16 * kSecond;  // gossip + breaker quiescence
  s.after = [query](Run& r) { r.probe(query); };
  s.checks = [partitions](const Run& r, const Run* off, Checks& check) {
    bool covered = true;
    for (const Answer& a : r.answers)
      covered &= a.stats.coverage.size() == partitions;
    check(covered, "every mid-split query reports full coverage");
    check(r.m.partitions_observed == 1 && (r.m.failovers > 0 || r.flagged),
          "the split activated and actually bit (failover or coarsen)");
    bool converged = true;  // nobody, front-end included, believed dead
    for (std::uint32_t member = 0; member < kNodes; ++member)
      for (std::uint32_t observer = 0; observer <= kNodes; ++observer)
        converged &= r.cluster->membership().state(
                         observer == kNodes ? sim::kFrontendNode : observer,
                         member) != cluster::MemberState::kDead;
    check(converged, "views converge after the heal");
    check(r.m.recoveries > 0 && r.m.digests_exchanged > 0 &&
              r.m.chunks_rewarmed > 0,
          "anti-entropy exchanged digests and pulled chunks back");
    const auto scanned = [](const Run& run) {
      return run.probes.front().stats.breakdown.chunks_scanned;
    };
    check(off->m.chunks_rewarmed == 0 && scanned(*off) > 0,
          "cold baseline re-scans storage after the heal");
    check(scanned(r) < scanned(*off),
          "re-warmed probe fetches below the cold-restart baseline");
  };
  return s;
}

// corruption: links flip bits (35%) and tear frames (15%), every gh2
// partition the queries touch bit-rots before the first scan, an owner
// crashes and restarts cold, and the scrubber races to repair.

Script corruption(std::uint64_t seed, int) {
  constexpr std::uint32_t kNodes = 16;
  const AggregationQuery wide = scaled(kCounty, 16.0);
  AggregationQuery east = kCounty, south = kCounty;
  east.area = kCounty.area.translated(0.0, 1.1);
  south.area = kCounty.area.translated(-0.9, 0.0);

  Script s;
  ClusterConfig& c = s.config = fast_config(kNodes);
  c.suspect_ttl = 200 * kMillisecond;
  c.scrub_interval = 300 * kMillisecond;
  c.fault_plan.seed = seed;
  c.fault_plan.links.push_back(
      {.corrupt_probability = 0.35, .truncate_probability = 0.15});
  // Rot lands before the first scan: STASH caches aggressively, so later
  // rot would only ever be seen by the scrubber, never by a query.
  for (const auto& p : geohash::covering(wide.area, 2))
    c.fault_plan.bitrot.push_back(
        {.partition = p, .day = kCounty.time.begin / 86400, .at = 0});
  c.fault_plan.crashes.push_back({.node = owner_of(wide, kNodes),
                                  .at = 300 * kMillisecond,
                                  .restart_at = 600 * kMillisecond});

  const AggregationQuery views[] = {kCounty, wide, east, south};
  for (sim::SimTime i = 0; i < 24; ++i)
    s.schedule.emplace_back(i * 40 * kMillisecond, views[i % 4]);
  s.settle = Settle::kRunUntil;
  s.settle_at = 6 * kSecond;  // scrub + anti-entropy convergence
  auto fresh_failures = std::make_shared<std::uint64_t>(0);
  s.after = [fresh_failures](Run& r) {
    const GalileoStore& store = r.cluster->store();
    const std::uint64_t before = store.integrity().checksum_failures;
    r.probe(kCounty);
    *fresh_failures = store.integrity().checksum_failures - before;
  };
  s.checks = [fresh_failures](const Run& r, const Run*, Checks& check) {
    const auto& m = r.m;
    check(r.flagged > 0, "the rot actually bit (some answers flagged)");
    check(m.integrity_checksum_failures > 0 && m.blocks_quarantined > 0,
          "storage rot was detected and quarantined");
    check(m.messages_corrupted + m.messages_truncated > 0,
          "wire tampering was injected");
    check(m.frame_integrity_failures > 0,
          "corrupt frames were rejected by checksum");
    check(m.scrub_repairs > 0 && r.cluster->store().quarantine_list().empty(),
          "the scrubber repaired every quarantined block");
    check(*fresh_failures == 0 && !flagged(r.probes.front().stats),
          "post-convergence probe: 0 checksum failures, exact answer");
  };
  return s;
}

// elastic-*: a 4-node cluster doubles to 8 under a Zipf county load.  The
// epoch admitting the joiners advances at exactly 1.35 s (joins on the 1.2 s
// ring tick + the 150 ms stabilize window) and its transfers run for
// milliseconds after, so faults at 1.351 s land mid-transfer.

enum Adversity { kNone, kJoinerCrash, kJoinerCut };

constexpr sim::SimTime kMidTransfer = 1351 * kMillisecond;

/// `slots - members` standbys join at 1.2 s; the script gets a warm-up at
/// 0, `n` seeded Zipf county queries every 25 ms from 1 s, a settle that
/// waits for the ring, and a probe of the first query.
std::vector<AggregationQuery> elastic_script(Script& s, std::uint32_t members,
                                             std::uint32_t slots,
                                             std::uint64_t seed,
                                             std::size_t n) {
  ClusterConfig& c = s.config = fast_config(members);
  c.max_nodes = slots;
  c.query_deadline = 1 * kSecond;
  c.ring_check_interval = 50 * kMillisecond;
  c.ring_stabilize_delay = 150 * kMillisecond;
  c.rebalance_transfer_deadline = 400 * kMillisecond;
  c.fault_plan.seed = seed;
  for (std::uint32_t id = members; id < slots; ++id)
    c.fault_plan.joins.push_back({.node = id, .at = 1200 * kMillisecond});

  workload::WorkloadConfig wc;
  wc.seed = seed;
  workload::WorkloadGenerator wl(wc);
  const auto load =
      wl.zipf_workload(workload::QueryGroup::County, 16, n, 0.9);
  s.schedule.emplace_back(0, scaled(load.front(), 16.0));
  for (std::size_t i = 0; i < load.size(); ++i)
    s.schedule.emplace_back(
        (1000 + static_cast<sim::SimTime>(i) * 25) * kMillisecond, load[i]);
  s.settle = Settle::kRunUntilStable;
  s.after = [probe = load.front()](Run& r) { r.probe(probe); };
  return load;
}

Script elastic(std::uint64_t seed, int adversity) {
  Script s;
  elastic_script(s, 4, 8, seed, 80);
  sim::FaultPlan& plan = s.config.fault_plan;
  if (adversity == kJoinerCrash)
    plan.crashes.push_back({.node = 4, .at = kMidTransfer});
  if (adversity == kJoinerCut)
    plan.partitions.push_back(
        {.groups = {{5}, {sim::kFrontendNode, 0, 1, 2, 3, 4, 6, 7}},
         .at = kMidTransfer, .heal_at = 2500 * kMillisecond});
  s.checks = [adversity](const Run& r, const Run*, Checks& check) {
    const auto& m = r.m;
    const RingView& ring = r.cluster->ring();
    const QueryStats& probe = r.probes.front().stats;
    check(m.rebalance_epoch_advances >= 1 && m.rebalance_partitions_moved > 0,
          "the rebalance engaged (epochs advanced, partitions moved)");
    check(m.rebalance_epoch_advances == ring.epoch,
          "epoch counter agrees with the installed ring");
    check(!flagged(probe), "post-rebalance probe is exact (goodput back)");
    if (adversity == kNone) {
      check(ring.members.size() == 8, "all four standbys admitted");
      check(r.flagged == 0, "no adversity: every racing answer is exact");
      check(m.rebalance_transfers_aborted == 0 &&
                m.rebalance_ownership_reverts == 0,
            "no aborts or reverts without adversity");
      check(probe.breakdown.chunks_from_cache > 0,
            "post-rebalance probe answered warm (state was shipped)");
    } else if (adversity == kJoinerCrash) {
      check(!ring.contains(4), "the next epoch dropped the crashed joiner");
      check(m.rebalance_ownership_reverts > 0,
            "in-flight moves onto the corpse were reverted");
    } else {
      check(ring.members.size() == 8,
            "the cut joiner is admitted once the partition heals");
      check(m.rebalance_transfers_aborted > 0,
            "stalled transfers hit the deadline/retry budget");
    }
  };
  return s;
}

// composed: every family at once on 12 members + 4 standbys — an owner
// crash and restart, standby joins with a joiner crash 1 ms after the epoch
// advance, a 2-way partition and heal, corrupting/truncating links, bit-rot
// on every queried partition with the scrubber on, overload controls, and
// exec FaultHooks on 2 wall-clock threads per node under a 20 ms deadline.
// Its own checks only confirm each scripted event fired; the harness judges.

Script composed(std::uint64_t seed, int) {
  constexpr std::uint32_t kMembers = 12, kSlots = 16;
  Script s;
  const auto load = elastic_script(s, kMembers, kSlots, seed, 120);
  ClusterConfig& c = s.config;
  c.suspect_ttl = 200 * kMillisecond;
  c.queue_limit = 32;
  c.retry_budget = 2.0;
  c.scrub_interval = 300 * kMillisecond;
  c.exec_threads = 2;
  c.exec_deadline_ms = 20;
  c.exec_faults = {.seed = seed, .task_delay_rate = 0.2,
                   .task_exception_rate = 0.05, .worker_stall_rate = 0.05,
                   .worker_stall_spins = 200'000};

  sim::FaultPlan& plan = c.fault_plan;
  const NodeId owner = owner_of(load.front(), kMembers);
  plan.crashes.push_back({.node = owner, .at = 1100 * kMillisecond,
                          .restart_at = 1500 * kMillisecond});
  plan.crashes.push_back({.node = kMembers, .at = kMidTransfer});
  const std::vector<std::uint32_t> cut = {(owner + 3) % kMembers,
                                          (owner + 7) % kMembers};
  std::vector<std::uint32_t> rest = {sim::kFrontendNode};
  for (std::uint32_t id = 0; id < kSlots; ++id)
    if (std::find(cut.begin(), cut.end(), id) == cut.end()) rest.push_back(id);
  plan.partitions.push_back({.groups = {rest, cut}, .at = 2 * kSecond,
                             .heal_at = 2600 * kMillisecond});
  plan.links.push_back(
      {.corrupt_probability = 0.35, .truncate_probability = 0.15});
  for (const auto& q : load)
    for (const auto& p : geohash::covering(q.area, 2))
      if (std::none_of(plan.bitrot.begin(), plan.bitrot.end(),
                       [&](const auto& rot) { return rot.partition == p; }))
        plan.bitrot.push_back(
            {.partition = p, .day = q.time.begin / 86400, .at = 0});

  s.checks = [rots = plan.bitrot.size()](const Run& r, const Run*,
                                         Checks& check) {
    const sim::FaultStats& f = r.cluster->faults().stats();
    double exceptions = 0;
    for (const auto& x : r.cluster->metrics_registry().snapshot().scalars)
      if (x.name == "stash_exec_task_exceptions_total") exceptions = x.value;
    check(f.crashes == 2 && f.restarts == 1,
          "both crashes fired (owner restarted, joiner stayed down)");
    check(r.m.rebalance_epoch_advances >= 1, "an epoch advanced");
    check(r.m.partitions_observed == 1, "the 2-way partition activated");
    check(f.bitrot_injected == rots, "bit-rot hit every queried partition");
    check(f.messages_corrupted + f.messages_truncated > 0,
          "link tampering was injected");
    check(exceptions > 0, "exec fault hooks fired (exceptions quarantined)");
  };
  return s;
}

const Row kRows[] = {
    {"failover", workload::WorkloadConfig{}.seed, failover, 1},
    {"failover-off", workload::WorkloadConfig{}.seed, failover, 0},
    {"overload", 0x4f564c44ULL, overload, 0},
    {"partition", 1, partition, 0},
    {"corruption", 42, corruption, 0},
    {"elastic-steady", 1, elastic, kNone},
    {"elastic-crash", 1, elastic, kJoinerCrash},
    {"elastic-partition", 1, elastic, kJoinerCut},
    {"composed", 1, composed, 0},
};

int usage() {
  std::fprintf(stderr, "usage: chaos [--scenario NAME|all] [--seed N] "
                       "[--metrics-dir DIR]\nscenarios:");
  for (const Row& row : kRows) std::fprintf(stderr, " %s", row.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario = "all", dir;
  std::optional<std::uint64_t> seed;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    if (flag == "--scenario")
      scenario = argv[i + 1];
    else if (flag == "--seed")
      seed = std::strtoull(argv[i + 1], nullptr, 0);
    else if (flag == "--metrics-dir")
      dir = argv[i + 1];
    else
      return usage();
  }
  const auto is = [&](const Row& row) { return scenario == row.name; };
  const bool exact = std::any_of(std::begin(kRows), std::end(kRows), is);
  const auto picked = [&](const Row& row) {
    return scenario == "all" || is(row) ||
           (!exact && std::string(row.name).rfind(scenario + "-", 0) == 0);
  };
  if (std::none_of(std::begin(kRows), std::end(kRows), picked)) return usage();
  if (!dir.empty()) std::filesystem::create_directories(dir);
  bool ok = true;
  for (const Row& row : kRows)
    if (picked(row)) ok &= run_row(row, seed.value_or(row.default_seed), dir);
  return ok ? 0 : 1;
}
