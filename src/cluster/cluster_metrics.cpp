// StashCluster's metrics: the counter table (STASH_CLUSTER_COUNTERS and
// STASH_CLUSTER_READ_COUNTERS in cluster.hpp) expanded into registry
// bindings, snapshot-time callbacks and the ClusterMetrics view, plus the
// callback gauges and counters computed over live node state.
#include <algorithm>
#include <string>
#include <tuple>

#include "cluster/cluster.hpp"

namespace stash::cluster {

StashCluster::Counters StashCluster::bind_counters(obs::MetricsRegistry& reg) {
#define STASH_X(field, name, help) reg.counter(name, help),
  return {STASH_CLUSTER_COUNTERS(STASH_X)};
#undef STASH_X
}

ClusterMetrics StashCluster::metrics() const {
  ClusterMetrics m;
#define STASH_X(field, name, help) m.field = counters_.field.value();
  STASH_CLUSTER_COUNTERS(STASH_X)
#undef STASH_X
#define STASH_X(field, name, help, source) m.field = source;
  STASH_CLUSTER_READ_COUNTERS(STASH_X)
#undef STASH_X
  return m;
}

void StashCluster::register_callback_metrics() {
  using obs::MetricKind;
  using concurrency::WorkerStats;
#define STASH_X(field, name, help, source)            \
  registry_.callback(name, help, MetricKind::Counter, \
                     [this] { return static_cast<double>(source); });
  STASH_CLUSTER_READ_COUNTERS(STASH_X)
#undef STASH_X
  // Snapshot-time sum of f(node) over every node slot: the one shape of
  // the server, graph and exec aggregates below.
  const auto sum_nodes = [this](auto f) {
    return [this, f] {
      std::uint64_t total = 0;
      for (const auto& node : nodes_)
        total += static_cast<std::uint64_t>(f(*node));
      return static_cast<double>(total);
    };
  };
  registry_.callback("stash_cached_cells",
                     "Cells resident in local graphs across all nodes",
                     MetricKind::Gauge, [this] {
                       return static_cast<double>(total_cached_cells());
                     });
  registry_.callback("stash_guest_cells",
                     "Cells resident in guest graphs across all nodes",
                     MetricKind::Gauge, [this] {
                       return static_cast<double>(total_guest_cells());
                     });
  registry_.callback("stash_pending_queries",
                     "Queries in flight at the front-end", MetricKind::Gauge,
                     [this] { return static_cast<double>(pending_.size()); });
  registry_.callback(
      "stash_server_queue_length", "Requests queued across all node servers",
      MetricKind::Gauge,
      sum_nodes([](const Node& n) { return n.server.queue_length(); }));
  registry_.callback(
      "stash_server_busy_workers", "Busy workers across all node servers",
      MetricKind::Gauge,
      sum_nodes([](const Node& n) { return n.server.busy_workers(); }));
  registry_.callback(
      "stash_server_completed_jobs_total",
      "Jobs completed across all node servers", MetricKind::Counter,
      sum_nodes([](const Node& n) { return n.server.completed_jobs(); }));
  registry_.callback(
      "stash_server_queue_wait_us_total",
      "Virtual time jobs spent queued before dispatch", MetricKind::Counter,
      sum_nodes([](const Node& n) { return n.server.total_queue_wait(); }));
  registry_.callback("stash_server_peak_queue_length",
                     "Worst pending-queue depth seen on any node server",
                     MetricKind::Gauge, [this] {
                       std::size_t peak = 0;
                       for (const auto& node : nodes_)
                         peak = std::max(peak, node->server.peak_queue_length());
                       return static_cast<double>(peak);
                     });
  registry_.callback(
      "stash_server_jobs_shed_total",
      "Jobs shed by admission control across all node servers",
      MetricKind::Counter,
      sum_nodes([](const Node& n) { return n.server.shed_jobs(); }));
  registry_.callback(
      "stash_server_jobs_expired_total",
      "Jobs whose deadline expired while queued, all servers",
      MetricKind::Counter,
      sum_nodes([](const Node& n) { return n.server.expired_jobs(); }));
  registry_.callback(
      "stash_server_jobs_dropped_total",
      "Jobs wiped by server resets (crashes), all servers",
      MetricKind::Counter, sum_nodes([](const Node& n) {
        return n.server.dropped_jobs() + n.maintenance.dropped_jobs();
      }));
  // Per-node graph counters (core/graph.hpp Stats), summed over local and
  // guest graphs.  Stats are lifetime-cumulative and survive clear(), so
  // crash wipes do not make these go backwards.
  using GraphStat = std::uint64_t StashGraph::Stats::*;
  for (const auto& [name, help, field] :
       {std::tuple<const char*, const char*, GraphStat>{
            "stash_graph_cells_absorbed_total",
            "Cells merged into node graphs (local + guest)",
            &StashGraph::Stats::cells_absorbed},
        {"stash_graph_cells_evicted_total",
         "Cells evicted by freshness pressure (local + guest)",
         &StashGraph::Stats::cells_evicted},
        {"stash_graph_cells_purged_total",
         "Cells dropped by TTL purges (local + guest)",
         &StashGraph::Stats::cells_purged},
        {"stash_graph_eviction_passes_total",
         "Eviction passes that dropped at least one chunk",
         &StashGraph::Stats::eviction_passes},
        {"stash_graph_freshness_touches_total",
         "Chunk freshness updates (accessed + dispersed)",
         &StashGraph::Stats::freshness_touches},
        {"stash_graph_chunks_invalidated_total",
         "Chunks dropped by real-time update invalidation",
         &StashGraph::Stats::chunks_invalidated}})
    registry_.callback(name, help, MetricKind::Counter,
                       sum_nodes([field = field](const Node& n) {
                         return n.graph.stats().*field +
                                n.guest_graph.stats().*field;
                       }));
  // Elastic membership gauges: the installed ring, read at snapshot time.
  registry_.callback("stash_ring_epoch",
                     "Epoch of the installed membership ring",
                     MetricKind::Gauge, [this] {
                       return static_cast<double>(dht_.epoch());
                     });
  registry_.callback("stash_ring_members",
                     "Members in the installed membership ring",
                     MetricKind::Gauge, [this] {
                       return static_cast<double>(dht_.num_nodes());
                     });
  registry_.callback("stash_rebalance_moves_inflight",
                     "Partition handoffs currently mid-transfer",
                     MetricKind::Gauge, [this] {
                       return static_cast<double>(moves_.size());
                     });
  registry_.callback("stash_bitrot_injected_total",
                     "Storage bit-rot events fired by the fault plan",
                     MetricKind::Counter, [this] {
                       return static_cast<double>(
                           fault_.stats().bitrot_injected);
                     });
  // Wall-clock exec pool activity, summed across nodes.  The aggregates
  // are always registered (0 with exec disabled — schema-required, and the
  // robustness counters of DESIGN.md §14 too); the per-worker breakdowns
  // only exist when pools do.
  using PoolStat = std::uint64_t WorkerStats::*;
  for (const auto& [name, help, field] :
       {std::tuple<const char*, const char*, PoolStat>{
            "stash_exec_tasks_total",
            "Chunk tasks executed by wall-clock workers",
            &WorkerStats::executed},
        {"stash_exec_steals_total",
         "Chunk tasks stolen from another worker's ring", &WorkerStats::stolen},
        {"stash_exec_parks_total", "Times a wall-clock worker parked idle",
         &WorkerStats::parks},
        {"stash_exec_wakeups_total", "Times a parked worker was woken",
         &WorkerStats::wakeups},
        {"stash_exec_watchdog_stalls_total",
         "Stuck-worker detections by the exec watchdog",
         &WorkerStats::watchdog_stalls},
        {"stash_exec_submit_shed_total",
         "Chunk submissions shed to inline execution (all rings full)",
         &WorkerStats::submit_shed}})
    registry_.callback(name, help, MetricKind::Counter,
                       sum_nodes([field = field](const Node& n) {
                         return n.exec_engine
                                    ? n.exec_engine->total_stats().*field
                                    : 0;
                       }));
  registry_.callback(
      "stash_exec_deadline_exceeded_total",
      "Wall-clock evaluate calls that hit their deadline", MetricKind::Counter,
      sum_nodes([](const Node& n) {
        return n.exec_engine ? n.exec_engine->exec_stats().deadline_exceeded
                             : 0;
      }));
  registry_.callback(
      "stash_exec_cancelled_chunks_total",
      "Chunk tasks cancelled cooperatively after a deadline or shutdown",
      MetricKind::Counter, sum_nodes([](const Node& n) {
        return n.exec_engine ? n.exec_engine->exec_stats().cancelled_chunks
                             : 0;
      }));
  registry_.callback(
      "stash_exec_task_exceptions_total",
      "Chunk tasks that threw and were quarantined", MetricKind::Counter,
      sum_nodes([](const Node& n) {
        // Engine-recorded chunk failures plus anything the pool caught
        // from tasks submitted outside a batch.
        return n.exec_engine
                   ? n.exec_engine->exec_stats().task_exceptions +
                         n.exec_engine->total_stats().task_exceptions
                   : 0;
      }));
  registry_.callback(
      "stash_exec_queue_depth",
      "Queued-but-unexecuted chunk tasks across all exec rings",
      MetricKind::Gauge, sum_nodes([](const Node& n) {
        return n.exec_engine ? n.exec_engine->queue_depth() : 0;
      }));
  registry_.callback(
      "stash_exec_workers", "Wall-clock worker threads across all nodes",
      MetricKind::Gauge, sum_nodes([](const Node& n) {
        return n.exec_engine ? n.exec_engine->worker_count() : 0;
      }));
  // Per-worker-slot queue depth and steal counters (summed over nodes at
  // the same slot index; every node has a pool here).
  if (config_.exec_threads > 0) {
    const std::size_t slots = nodes_.empty()
                                  ? 0
                                  : nodes_.front()->exec_engine->worker_count();
    for (std::size_t i = 0; i < slots; ++i) {
      const std::string suffix = std::to_string(i);
      registry_.callback(
          "stash_exec_worker" + suffix + "_tasks_total",
          "Chunk tasks executed by worker slot " + suffix + " (all nodes)",
          MetricKind::Counter, sum_nodes([i](const Node& n) {
            return n.exec_engine->worker_stats(i).executed;
          }));
      registry_.callback(
          "stash_exec_worker" + suffix + "_steals_total",
          "Chunk tasks stolen by worker slot " + suffix + " (all nodes)",
          MetricKind::Counter, sum_nodes([i](const Node& n) {
            return n.exec_engine->worker_stats(i).stolen;
          }));
      registry_.callback(
          "stash_exec_worker" + suffix + "_queue_depth",
          "Queued chunk tasks in worker slot " + suffix +
              "'s rings (all nodes)",
          MetricKind::Gauge, sum_nodes([i](const Node& n) {
            return n.exec_engine->worker_queue_depth(i);
          }));
    }
  }
}

}  // namespace stash::cluster
