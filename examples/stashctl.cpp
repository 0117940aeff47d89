// stashctl — ad-hoc aggregation queries against a simulated STASH cluster.
//
// Usage:
//   stashctl [options] <lat_min> <lat_max> <lng_min> <lng_max>
//     --date YYYY-MM-DD     query day            (default 2015-02-02)
//     --sres N              spatial resolution   (default 6)
//     --tres hour|day|month temporal resolution  (default day)
//     --nodes N             cluster size         (default 32)
//     --mode stash|basic    system mode          (default stash)
//     --repeat N            issue the query N times (default 2: cold+warm)
//     --json                print the JSON payload of the last run
//     --crash N@MS[:MS]     crash node N at MS ms (optionally restart at :MS);
//                           repeatable
//     --drop P              drop each message with probability P
//     --bitflip-rate P      flip one random bit in each wire frame with
//                           probability P (receivers detect by checksum,
//                           redeliver, and poison after the budget)
//     --bitrot GH2[@MS]     rot the storage block (partition GH2, query day)
//                           at MS ms (default 0); repeatable.  Scans detect
//                           and quarantine it; the scrubber repairs it
//     --scrub-ms MS         background scrubber period (0 = off, default);
//                           each tick verifies blocks, repairs quarantine,
//                           and walks one node's replica digests
//     --partition A|B       split the network into groups from time 0; each
//                           group is a comma list of node ids, "fe" = the
//                           scatter/gather front-end (e.g. fe,0,1|2,3)
//     --heal-ms MS          heal the partition at MS ms (default: never)
//     --recovery            run anti-entropy re-warming after restarts and
//     --no-recovery         heals (default on); off leaves rejoiners cold
//     --no-failover         disable successor failover (degrade to partial)
//     --queue-limit N       bound each node's pending queue (0 = unbounded);
//                           a full queue sheds work with explicit pushback
//     --threads N           answer queries on N wall-clock worker threads
//                           per node (0 = sim-only, the default); answers
//                           are byte-identical to the sim path
//     --deadline-ms MS      per-query deadline; at MS ms the query completes
//                           with whatever has arrived (missing partitions
//                           reported honestly)
//     --exec-deadline-ms MS wall-clock budget per subquery on the worker
//                           pool (needs --threads); an expired subquery is
//                           cancelled cooperatively and rerouted through
//                           the degraded/retry path
//     --chaos-exec SPEC     seeded thread-level fault injection on the
//                           worker pool: delay=P,exc=P,stall=P[,seed=N]
//                           (probabilities per chunk task; needs --threads)
//     --retry-budget N      retry token bucket per query (0 = unlimited);
//                           exact responses refill half a token
//     --scale-out N         after the runs, live-join N standby nodes, wait
//                           for the ring rebalance to settle, and re-run
//                           the query on the grown cluster
//     --scale-in N          after the runs, gracefully decommission the N
//                           highest members (each drains its partitions to
//                           the new owners before leaving)
//     --autoscale           enable the load-driven autoscaler (queue depth
//                           and shed rate with hysteresis); standby slots
//                           default to one per initial node
//     --help                print this usage and exit
//     --audit               after the runs, audit every node's graph, guest
//                           graph and routing table; exit 1 on violations
//     --metrics             print the cluster's metrics in Prometheus text
//                           exposition format after the runs
//     --metrics-json FILE   write the stash-metrics-v1 JSON export to FILE
//                           ("-" for stdout)
//     --trace ID|last       print the span tree of query ID (or of the last
//                           run's query) recorded against the sim clock; a
//                           non-numeric ID is a usage error (exit 2), an ID
//                           past the last query issued exits 1
//
// Example:
//   ./build/examples/stashctl 36 40 -102 -94 --repeat 3 --json
//   ./build/examples/stashctl 36 40 -102 -94 --crash 7@0:50 --drop 0.01
//   ./build/examples/stashctl 36 40 -102 -94 --repeat 3 --deadline-ms 1000
//       --partition fe,0,1,2,3,4,5,6,7|8,9,10,11,12,13,14,15
//       --heal-ms 40 --recovery
//   ./build/examples/stashctl 36 40 -102 -94 --metrics --trace last

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "client/visual_client.hpp"
#include "common/civil_time.hpp"
#include "exec/fault_hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace stash;

namespace {

[[noreturn]] void usage(const char* argv0, bool requested = false) {
  std::fprintf(requested ? stdout : stderr,
               "usage: %s [--date YYYY-MM-DD] [--sres N] "
               "[--tres hour|day|month] [--nodes N] [--mode stash|basic] "
               "[--repeat N] [--json] [--crash N@MS[:MS]] [--drop P] "
               "[--bitflip-rate P] [--bitrot GH2[@MS]] [--scrub-ms MS] "
               "[--partition A|B] [--heal-ms MS] [--recovery|--no-recovery] "
               "[--no-failover] [--queue-limit N] [--threads N] "
               "[--deadline-ms MS] [--exec-deadline-ms MS] "
               "[--chaos-exec delay=P,exc=P,stall=P[,seed=N]] "
               "[--retry-budget N] [--scale-out N] [--scale-in N] "
               "[--autoscale] [--audit] [--metrics] "
               "[--metrics-json FILE] [--trace ID|last] [--help] "
               "<lat_min> <lat_max> <lng_min> <lng_max>\n",
               argv0);
  std::exit(requested ? 0 : 2);
}

/// A query id for --trace: decimal digits only; nullopt on anything else,
/// including a sign or an id that overflows 64 bits.
std::optional<std::uint64_t> parse_query_id(const std::string& spec) {
  std::uint64_t id = 0;
  const char* end = spec.data() + spec.size();
  const auto [ptr, ec] = std::from_chars(spec.data(), end, id);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return id;
}

/// "fe,0,1|2,3" -> {{kFrontendNode, 0, 1}, {2, 3}}; empty on malformed.
std::vector<std::vector<std::uint32_t>> parse_partition(
    const std::string& spec) {
  std::vector<std::vector<std::uint32_t>> groups(1);
  std::string token;
  const auto flush = [&]() {
    if (token.empty()) return false;
    if (token == "fe" || token == "f") {
      groups.back().push_back(sim::kFrontendNode);
    } else {
      for (const char c : token)
        if (!std::isdigit(static_cast<unsigned char>(c))) return false;
      groups.back().push_back(
          static_cast<std::uint32_t>(std::atol(token.c_str())));
    }
    token.clear();
    return true;
  };
  for (const char c : spec) {
    if (c == ',') {
      if (!flush()) return {};
    } else if (c == '|') {
      if (!flush()) return {};
      groups.emplace_back();
    } else {
      token.push_back(c);
    }
  }
  if (!flush() || groups.size() < 2) return {};
  return groups;
}

/// "delay=0.2,exc=0.05,stall=0.01[,seed=N]" -> FaultHooks; false when
/// malformed or when no fault rate is set.
bool parse_chaos_exec(const std::string& spec, exec::FaultHooks* out) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (value.empty()) return false;
    if (key == "seed") {
      out->seed = static_cast<std::uint64_t>(std::atoll(value.c_str()));
    } else {
      const double p = std::atof(value.c_str());
      if (p < 0.0 || p > 1.0) return false;
      if (key == "delay") out->task_delay_rate = p;
      else if (key == "exc") out->task_exception_rate = p;
      else if (key == "stall") out->worker_stall_rate = p;
      else return false;
    }
    pos = end + 1;
  }
  return out->enabled();
}

bool parse_date(const std::string& text, CivilDate* out) {
  if (text.size() != 10 || text[4] != '-' || text[7] != '-') return false;
  out->year = std::atoi(text.substr(0, 4).c_str());
  out->month = std::atoi(text.substr(5, 2).c_str());
  out->day = std::atoi(text.substr(8, 2).c_str());
  return out->month >= 1 && out->month <= 12 && out->day >= 1 &&
         out->day <= days_in_month(out->year, out->month);
}

}  // namespace

int main(int argc, char** argv) {
  CivilDate date{2015, 2, 2};
  int sres = 6;
  TemporalRes tres = TemporalRes::Day;
  std::uint32_t nodes = 32;
  cluster::SystemMode mode = cluster::SystemMode::Stash;
  int repeat = 2;
  bool json = false;
  bool audit = false;
  bool metrics = false;
  std::string metrics_json_path;
  std::string trace_spec;
  bool failover = true;
  long queue_limit = 0;
  long threads = 0;
  double deadline_ms = 0.0;
  double exec_deadline_ms = 0.0;
  exec::FaultHooks chaos_exec;
  double retry_budget = 0.0;
  long scale_out = 0;
  long scale_in = 0;
  bool autoscale = false;
  sim::FaultPlan plan;
  double drop_rate = 0.0;
  double bitflip_rate = 0.0;
  double scrub_ms = 0.0;
  std::vector<std::pair<std::string, double>> bitrot;  // partition, at-ms
  std::vector<std::vector<std::uint32_t>> partition_groups;
  double heal_ms = -1.0;
  std::optional<bool> recovery;
  std::vector<double> coords;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--date") {
      if (!parse_date(next(), &date)) usage(argv[0]);
    } else if (arg == "--sres") {
      sres = std::atoi(next().c_str());
    } else if (arg == "--tres") {
      const std::string t = next();
      if (t == "hour") tres = TemporalRes::Hour;
      else if (t == "day") tres = TemporalRes::Day;
      else if (t == "month") tres = TemporalRes::Month;
      else usage(argv[0]);
    } else if (arg == "--nodes") {
      nodes = static_cast<std::uint32_t>(std::atoi(next().c_str()));
    } else if (arg == "--mode") {
      const std::string m = next();
      if (m == "stash") mode = cluster::SystemMode::Stash;
      else if (m == "basic") mode = cluster::SystemMode::Basic;
      else usage(argv[0]);
    } else if (arg == "--repeat") {
      repeat = std::atoi(next().c_str());
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--crash") {
      unsigned node = 0;
      double at_ms = 0.0, restart_ms = 0.0;
      const std::string spec = next();
      const int matched = std::sscanf(spec.c_str(), "%u@%lf:%lf",
                                      &node, &at_ms, &restart_ms);
      if (matched < 2) usage(argv[0]);
      sim::CrashEvent crash;
      crash.node = node;
      crash.at = std::llround(at_ms * 1000.0);
      if (matched == 3) crash.restart_at = std::llround(restart_ms * 1000.0);
      plan.crashes.push_back(crash);
    } else if (arg == "--drop") {
      drop_rate = std::atof(next().c_str());
    } else if (arg == "--bitflip-rate") {
      bitflip_rate = std::atof(next().c_str());
      if (bitflip_rate < 0.0 || bitflip_rate > 1.0) usage(argv[0]);
    } else if (arg == "--bitrot") {
      const std::string spec = next();
      const std::size_t at = spec.find('@');
      const std::string partition = spec.substr(0, at);
      double at_ms = 0.0;
      if (at != std::string::npos) {
        at_ms = std::atof(spec.substr(at + 1).c_str());
        if (at_ms < 0.0) usage(argv[0]);
      }
      if (partition.empty()) usage(argv[0]);
      bitrot.emplace_back(partition, at_ms);
    } else if (arg == "--scrub-ms") {
      scrub_ms = std::atof(next().c_str());
      if (scrub_ms < 0.0) usage(argv[0]);
    } else if (arg == "--partition") {
      partition_groups = parse_partition(next());
      if (partition_groups.empty()) usage(argv[0]);
    } else if (arg == "--heal-ms") {
      heal_ms = std::atof(next().c_str());
      if (heal_ms < 0.0) usage(argv[0]);
    } else if (arg == "--recovery") {
      recovery = true;
    } else if (arg == "--no-recovery") {
      recovery = false;
    } else if (arg == "--no-failover") {
      failover = false;
    } else if (arg == "--queue-limit") {
      queue_limit = std::atol(next().c_str());
      if (queue_limit < 0) usage(argv[0]);
    } else if (arg == "--threads") {
      threads = std::atol(next().c_str());
      if (threads < 0) usage(argv[0]);
    } else if (arg == "--deadline-ms") {
      deadline_ms = std::atof(next().c_str());
      if (deadline_ms < 0.0) usage(argv[0]);
    } else if (arg == "--exec-deadline-ms") {
      exec_deadline_ms = std::atof(next().c_str());
      if (exec_deadline_ms < 0.0) usage(argv[0]);
    } else if (arg == "--chaos-exec") {
      if (!parse_chaos_exec(next(), &chaos_exec)) usage(argv[0]);
    } else if (arg == "--retry-budget") {
      retry_budget = std::atof(next().c_str());
      if (retry_budget < 0.0) usage(argv[0]);
    } else if (arg == "--scale-out") {
      scale_out = std::atol(next().c_str());
      if (scale_out < 1) usage(argv[0]);
    } else if (arg == "--scale-in") {
      scale_in = std::atol(next().c_str());
      if (scale_in < 1) usage(argv[0]);
    } else if (arg == "--autoscale") {
      autoscale = true;
    } else if (arg == "--help") {
      usage(argv[0], /*requested=*/true);
    } else if (arg == "--audit") {
      audit = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--metrics-json") {
      metrics_json_path = next();
      if (metrics_json_path.empty()) usage(argv[0]);
    } else if (arg == "--trace") {
      trace_spec = next();
      if (trace_spec != "last" && !parse_query_id(trace_spec)) {
        std::fprintf(stderr, "%s: --trace wants a query id or 'last', got '%s'\n",
                     argv[0], trace_spec.c_str());
        usage(argv[0]);
      }
    } else if (!arg.empty() &&
               (std::isdigit(static_cast<unsigned char>(arg[0])) ||
                arg[0] == '-')) {
      coords.push_back(std::atof(arg.c_str()));
    } else {
      usage(argv[0]);
    }
  }
  if (coords.size() != 4 || sres < 2 || sres > 12 || repeat < 1 || nodes < 1)
    usage(argv[0]);
  if ((exec_deadline_ms > 0.0 || chaos_exec.enabled()) && threads == 0)
    usage(argv[0]);  // wall-clock controls need a worker pool
  if (drop_rate > 0.0 || bitflip_rate > 0.0) {
    // One combined wildcard rule: the injector's first-match semantics mean
    // separate --drop and --bitflip-rate rules would shadow each other.
    sim::LinkRule rule;
    rule.drop_probability = drop_rate;
    rule.corrupt_probability = bitflip_rate;
    plan.links.push_back(rule);
  }
  for (const auto& [partition, at_ms] : bitrot)
    plan.bitrot.push_back({.partition = partition,
                           .day = unix_seconds(date) / 86400,
                           .at = std::llround(at_ms * 1000.0)});
  if (!partition_groups.empty()) {
    for (const auto& group : partition_groups)
      for (const std::uint32_t id : group)
        if (id != sim::kFrontendNode && id >= nodes) usage(argv[0]);
    sim::PartitionEvent split;
    split.groups = partition_groups;
    split.at = 0;
    if (heal_ms >= 0.0) split.heal_at = std::llround(heal_ms * 1000.0);
    plan.partitions.push_back(split);
  } else if (heal_ms >= 0.0) {
    usage(argv[0]);  // --heal-ms without --partition
  }

  const AggregationQuery query{
      {coords[0], coords[1], coords[2], coords[3]},
      {unix_seconds(date), unix_seconds(date) + 86400},
      {sres, tres}};
  if (!query.valid()) usage(argv[0]);

  cluster::ClusterConfig config;
  config.num_nodes = nodes;
  config.mode = mode;
  config.fault_plan = plan;
  config.failover_to_successor = failover;
  config.queue_limit = static_cast<std::size_t>(queue_limit);
  config.exec_threads = static_cast<std::size_t>(threads);
  config.exec_deadline_ms =
      static_cast<std::uint64_t>(std::llround(exec_deadline_ms));
  config.exec_faults = chaos_exec;
  config.query_deadline =
      static_cast<sim::SimTime>(std::llround(deadline_ms * 1000.0));
  config.retry_budget = retry_budget;
  config.scrub_interval =
      static_cast<sim::SimTime>(std::llround(scrub_ms * 1000.0));
  if (recovery.has_value()) config.recovery = *recovery;
  const bool elastic = scale_out > 0 || scale_in > 0 || autoscale;
  if (elastic) {
    // Standby slots for every planned (or autoscaled) join, plus elastic
    // timers scaled to the CLI's millisecond-scale runs.
    config.max_nodes =
        nodes + static_cast<std::uint32_t>(
                    scale_out > 0 ? scale_out : (autoscale ? nodes : 0));
    config.ring_check_interval = 10 * sim::kMillisecond;
    config.ring_stabilize_delay = 30 * sim::kMillisecond;
    config.rebalance_transfer_deadline = 200 * sim::kMillisecond;
    config.membership.probe_interval = 10 * sim::kMillisecond;
    config.membership.probe_timeout = 2 * sim::kMillisecond;
    config.membership.suspicion_timeout = 20 * sim::kMillisecond;
    if (autoscale) {
      config.autoscale.enabled = true;
      config.autoscale.eval_interval = 10 * sim::kMillisecond;
      config.autoscale.cooldown = 100 * sim::kMillisecond;
    }
  }
  if (!plan.empty()) config.subquery_timeout = 20 * sim::kMillisecond;
  if (!plan.partitions.empty()) {
    // Gossip timers scaled to the CLI's millisecond-scale runs, so the
    // split is detected (and refuted after the heal) within a few runs.
    config.membership.probe_interval = 10 * sim::kMillisecond;
    config.membership.probe_timeout = 2 * sim::kMillisecond;
    config.membership.suspicion_timeout = 20 * sim::kMillisecond;
  }
  std::optional<cluster::StashCluster> maybe_cluster;
  try {
    maybe_cluster.emplace(config, std::make_shared<const NamGenerator>());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  cluster::StashCluster& cluster = *maybe_cluster;
  client::VisualClient client(cluster);
  client.set_view(query);

  std::printf("query %s on %s at %s over %u nodes (%s)\n",
              query.area.to_string().c_str(),
              TemporalBin(TemporalRes::Day, date.year, date.month, date.day)
                  .label()
                  .c_str(),
              query.res.to_string().c_str(), nodes,
              mode == cluster::SystemMode::Stash ? "STASH" : "basic");

  client::ViewResult last;
  for (int r = 0; r < repeat; ++r) {
    last = client.refresh();
    std::printf("  run %d: %5zu cells in %8.2f ms  (cache=%zu synth=%zu "
                "disk=%zu chunks)%s\n",
                r + 1, last.cells.size(),
                sim::to_millis(last.stats.latency()),
                last.stats.breakdown.chunks_from_cache,
                last.stats.breakdown.chunks_synthesized,
                last.stats.breakdown.chunks_scanned,
                last.stats.partial     ? "  [PARTIAL]"
                : last.stats.degraded ? "  [DEGRADED]"
                                      : "");
  }
  if (elastic) {
    for (long k = 0; k < scale_out; ++k)
      cluster.join_node(nodes + static_cast<std::uint32_t>(k));
    const std::vector<NodeId> members = cluster.ring().members;  // snapshot
    for (long k = 0; k < scale_in && k < static_cast<long>(members.size());
         ++k)
      cluster.decommission_node(
          members[members.size() - 1 - static_cast<std::size_t>(k)]);
    const bool stable = cluster.run_until_stable(60 * sim::kSecond);
    const auto& m = cluster.metrics();
    std::printf("elastic activity: epoch=%llu members=%zu moved=%llu "
                "aborted=%llu reverts=%llu%s\n",
                static_cast<unsigned long long>(cluster.ring().epoch),
                cluster.ring().members.size(),
                static_cast<unsigned long long>(m.rebalance_partitions_moved),
                static_cast<unsigned long long>(m.rebalance_transfers_aborted),
                static_cast<unsigned long long>(m.rebalance_ownership_reverts),
                stable ? "" : "  [REBALANCE STILL IN FLIGHT]");
    // One more run on the resized ring: warm handoffs mean the answer
    // stays fast and byte-identical.
    last = client.refresh();
    std::printf("  post-resize: %5zu cells in %8.2f ms  (cache=%zu synth=%zu "
                "disk=%zu chunks)%s\n",
                last.cells.size(), sim::to_millis(last.stats.latency()),
                last.stats.breakdown.chunks_from_cache,
                last.stats.breakdown.chunks_synthesized,
                last.stats.breakdown.chunks_scanned,
                last.stats.partial     ? "  [PARTIAL]"
                : last.stats.degraded ? "  [DEGRADED]"
                                      : "");
  }
  if (scrub_ms > 0.0) {
    // The query runs quiesce without draining background events; give the
    // scrubber a few periods so quarantined blocks actually get repaired.
    cluster.loop().run_until(cluster.loop().now() + 4 * config.scrub_interval);
  }
  if (queue_limit > 0 || deadline_ms > 0.0 || retry_budget > 0.0) {
    const auto& m = cluster.metrics();
    std::printf("overload control: shed=%llu expired=%llu degraded=%llu "
                "deadline-cut=%llu suppressed-retries=%llu\n",
                static_cast<unsigned long long>(m.subqueries_shed),
                static_cast<unsigned long long>(m.subqueries_expired),
                static_cast<unsigned long long>(m.degraded_subqueries),
                static_cast<unsigned long long>(m.deadline_cut_subqueries),
                static_cast<unsigned long long>(m.retries_suppressed));
  }
  if (threads > 0 && (exec_deadline_ms > 0.0 || chaos_exec.enabled())) {
    double deadline_cut = 0.0, cancelled = 0.0, exceptions = 0.0;
    double stalls = 0.0, shed = 0.0;
    for (const auto& s : cluster.metrics_registry().snapshot().scalars) {
      if (s.name == "stash_exec_deadline_exceeded_total") deadline_cut = s.value;
      else if (s.name == "stash_exec_cancelled_chunks_total") cancelled = s.value;
      else if (s.name == "stash_exec_task_exceptions_total") exceptions = s.value;
      else if (s.name == "stash_exec_watchdog_stalls_total") stalls = s.value;
      else if (s.name == "stash_exec_submit_shed_total") shed = s.value;
    }
    std::printf("exec robustness: deadline-exceeded=%.0f cancelled-chunks=%.0f "
                "task-exceptions=%.0f watchdog-stalls=%.0f submit-shed=%.0f\n",
                deadline_cut, cancelled, exceptions, stalls, shed);
  }
  if (!plan.empty()) {
    const auto& m = cluster.metrics();
    std::printf("fault activity: crashes=%llu restarts=%llu dropped=%llu "
                "timeouts=%llu retries=%llu failovers=%llu partial=%llu\n",
                static_cast<unsigned long long>(m.node_crashes),
                static_cast<unsigned long long>(m.node_restarts),
                static_cast<unsigned long long>(m.messages_dropped),
                static_cast<unsigned long long>(m.timeouts_fired),
                static_cast<unsigned long long>(m.subquery_retries),
                static_cast<unsigned long long>(m.failovers),
                static_cast<unsigned long long>(m.partial_queries));
  }
  if (!plan.empty()) {
    const auto& m = cluster.metrics();
    std::printf("partition activity: observed=%llu probes=%llu "
                "false-suspicions=%llu recoveries=%llu digests=%llu "
                "rewarmed=%llu chunks / %llu cells\n",
                static_cast<unsigned long long>(m.partitions_observed),
                static_cast<unsigned long long>(m.gossip_probes),
                static_cast<unsigned long long>(m.false_suspicions),
                static_cast<unsigned long long>(m.recoveries),
                static_cast<unsigned long long>(m.digests_exchanged),
                static_cast<unsigned long long>(m.chunks_rewarmed),
                static_cast<unsigned long long>(m.cells_rewarmed));
  }
  if (bitflip_rate > 0.0 || !bitrot.empty() || scrub_ms > 0.0) {
    const auto& m = cluster.metrics();
    std::printf("integrity activity: checksum-failures=%llu quarantined=%llu "
                "repaired=%llu frames corrupted=%llu rejected=%llu "
                "redelivered=%llu poison=%llu corrupt-queries=%llu "
                "scrub=%llu cycles / %llu repairs\n",
                static_cast<unsigned long long>(m.integrity_checksum_failures),
                static_cast<unsigned long long>(m.blocks_quarantined),
                static_cast<unsigned long long>(m.blocks_repaired),
                static_cast<unsigned long long>(m.messages_corrupted +
                                                m.messages_truncated),
                static_cast<unsigned long long>(m.frame_integrity_failures),
                static_cast<unsigned long long>(m.messages_redelivered),
                static_cast<unsigned long long>(m.poison_messages),
                static_cast<unsigned long long>(m.corrupt_queries),
                static_cast<unsigned long long>(m.scrub_cycles),
                static_cast<unsigned long long>(m.scrub_repairs));
  }
  if (json)
    std::printf("%s\n", client::VisualClient::to_json(last, 10).c_str());
  if (metrics)
    std::fputs(obs::to_prometheus(cluster.metrics_registry().snapshot()).c_str(),
               stdout);
  if (!metrics_json_path.empty()) {
    const std::string payload =
        obs::to_json(cluster.metrics_registry().snapshot(),
                     cluster.loop().now());
    if (metrics_json_path == "-") {
      std::printf("%s\n", payload.c_str());
    } else {
      std::FILE* out = std::fopen(metrics_json_path.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "%s: cannot write %s\n", argv[0],
                     metrics_json_path.c_str());
        return 2;
      }
      std::fprintf(out, "%s\n", payload.c_str());
      std::fclose(out);
    }
  }
  if (!trace_spec.empty()) {
    const std::uint64_t trace_id = trace_spec == "last"
                                       ? last.stats.query_id
                                       : *parse_query_id(trace_spec);
    if (trace_id > last.stats.query_id) {
      std::fprintf(stderr,
                   "%s: query %llu was never issued (the last was query %llu)\n",
                   argv[0], static_cast<unsigned long long>(trace_id),
                   static_cast<unsigned long long>(last.stats.query_id));
      return 1;
    }
    const auto trace = cluster.trace(trace_id);
    if (!trace.has_value()) {
      std::fprintf(stderr,
                   "%s: no trace for query %llu (ring keeps the last %zu)\n",
                   argv[0], static_cast<unsigned long long>(trace_id),
                   config.trace_capacity);
      return 1;
    }
    std::fputs(obs::render_tree(*trace).c_str(), stdout);
  }
  if (audit) {
    const AuditReport report = cluster.audit_all();
    std::printf("%s\n", report.to_string().c_str());
    if (!report.ok()) return 1;
  }
  return 0;
}
