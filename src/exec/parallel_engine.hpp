// Wall-clock execution mode (DESIGN.md §13): shard a query's STASH-graph
// work — cell scan, V-B roll-up, merge — across real worker threads.
//
// The unit of parallelism is the chunk: QueryEngine::evaluate_chunk is
// pure per chunk (a cell belongs to exactly one chunk at a resolution),
// so per-chunk results merge back in the canonical plan order without any
// cross-chunk summary merges.  That is the oracle-equivalence contract
// (DESIGN.md §13): for the same graph state, ParallelQueryEngine and the
// sequential QueryEngine produce answers with identical cell sets and
// bit-identical Summary values, at every thread count — proven by the
// property test in tests/exec/parallel_engine_test.cpp via canonical
// (sorted, codec-encoded) digests.
//
// Robustness contract (DESIGN.md §14): evaluate/evaluate_partition accept
// a wall-clock deadline.  On expiry the submitting thread cancels the
// batch's CancellationToken and returns immediately with whatever is
// honest: only partitions whose every chunk completed contribute cells;
// everything else is reported by name in BatchReport.  Workers probe the
// token between chunks and between per-day cell scans (CancelProbe), so
// outstanding work winds down cooperatively; stragglers finish against
// batch-owned state (shared_ptr) after the submitter has long returned.
// Seeded FaultHooks inject task delays / exceptions / worker stalls for
// the chaos suite — a throwing chunk is recorded per-chunk and the
// partition it belongs to is reported incomplete, never std::terminate.
//
// Locking: workers take the RwSpinlock shared while evaluating (const
// graph reads + Galileo scans); absorb() — the maintenance pass — and
// with_exclusive_graph() — every other write by the graph's owner — take
// it exclusive.  Tasks flow through the WorkerPool's MpmcRings; the
// submitting thread parks on a per-batch WakeupGate until the last chunk
// lands or the deadline fires (commit_wait_until).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "concurrency/rw_spinlock.hpp"
#include "concurrency/worker_pool.hpp"
#include "core/query_engine.hpp"
#include "exec/fault_hooks.hpp"

namespace stash::exec {

struct ExecConfig {
  /// Worker threads; 0 resolves from hardware_concurrency (always >= 1).
  std::size_t threads = 0;
  /// Per-worker MpmcRing capacity (power of two >= 2).
  std::size_t queue_capacity = 256;
  /// Seeded thread-level fault injection (inert by default).
  FaultHooks faults;
};

/// Per-call wall-clock controls.
struct ExecOptions {
  /// Absolute host deadline (exec::host_now_ns() units); 0 = none.  When
  /// it fires, the call returns with a partial-but-honest Evaluation and
  /// BatchReport::deadline_exceeded set.
  std::uint64_t deadline_ns = 0;
};

/// What actually happened to one evaluate call's fan-out.  `complete()`
/// false means the Evaluation is partial: cells cover exactly the
/// partitions NOT listed in incomplete_partitions.
struct BatchReport {
  bool deadline_exceeded = false;
  std::size_t chunks_total = 0;
  std::size_t chunks_completed = 0;
  /// Cancelled by the token, or still outstanding when the submitter
  /// returned (those cancel when they surface).
  std::size_t chunks_cancelled = 0;
  /// Chunk task threw (quarantined; InjectedFault under chaos).
  std::size_t chunks_failed = 0;
  /// Partitions with at least one unfinished/failed chunk — their cells
  /// are withheld entirely (no half-partition answers).
  std::vector<std::string> incomplete_partitions;
  /// First failed chunk's exception (canonical order); null when none.
  /// The legacy (report-less) overloads rethrow it; the deadline
  /// overloads only record it.
  std::exception_ptr first_error;

  [[nodiscard]] bool complete() const noexcept {
    return chunks_completed == chunks_total;
  }
};

/// Engine-lifetime robustness counters (exporter feed; racy snapshot).
struct ExecStats {
  concurrency::WorkerStats pool;       // incl. submit_shed/watchdog_stalls
  std::uint64_t deadline_exceeded = 0;  // evaluate calls that hit a deadline
  std::uint64_t cancelled_chunks = 0;   // chunks cancelled cooperatively
  std::uint64_t task_exceptions = 0;    // chunk tasks that threw
};

class ParallelQueryEngine {
 public:
  ParallelQueryEngine(StashGraph& graph, const GalileoStore& store,
                      ExecConfig config = {});
  ~ParallelQueryEngine();

  /// Same contract as QueryEngine::evaluate_partition, answered by the
  /// worker pool.  Blocks the calling thread until the answer is whole;
  /// rethrows a chunk task's exception (legacy contract).
  [[nodiscard]] Evaluation evaluate_partition(
      std::string_view partition, const AggregationQuery& query,
      EvalMode mode = EvalMode::Cached) const;

  /// Deadline-capable variant: never rethrows chunk errors and never
  /// waits past options.deadline_ns — failures and expiry are reported in
  /// `report`, and the returned Evaluation contains only whole-partition
  /// results.
  [[nodiscard]] Evaluation evaluate_partition(std::string_view partition,
                                              const AggregationQuery& query,
                                              EvalMode mode,
                                              const ExecOptions& options,
                                              BatchReport& report) const;

  /// Whole-query evaluation: every (partition, chunk) fans out at once;
  /// partitions are merged in the same canonical covering order as
  /// QueryEngine::evaluate.
  [[nodiscard]] Evaluation evaluate(const AggregationQuery& query,
                                    EvalMode mode = EvalMode::Cached) const;

  /// Deadline-capable whole-query variant (see above).
  [[nodiscard]] Evaluation evaluate(const AggregationQuery& query,
                                    EvalMode mode, const ExecOptions& options,
                                    BatchReport& report) const;

  /// Maintenance pass under the exclusive graph lock.
  MaintenanceStats absorb(const Evaluation& eval, const Resolution& res,
                          sim::SimTime now) STASH_EXCLUDES(graph_lock_);

  /// Runs `write` under the exclusive graph lock: how the graph's owner
  /// mutates it directly (wipe, invalidation, anti-entropy drop/absorb)
  /// while a deadline-cut batch's straggler chunks may still be reading.
  template <typename Write>
  void with_exclusive_graph(Write&& write) STASH_EXCLUDES(graph_lock_) {
    concurrency::RwSpinWriterLock lock(graph_lock_);
    std::forward<Write>(write)();
  }

  [[nodiscard]] std::size_t worker_count() const {
    return pool_.worker_count();
  }
  [[nodiscard]] std::size_t queue_depth() const { return pool_.queue_depth(); }
  [[nodiscard]] std::size_t worker_queue_depth(std::size_t i) const {
    return pool_.worker_queue_depth(i);
  }
  [[nodiscard]] concurrency::WorkerStats worker_stats(std::size_t i) const {
    return pool_.worker_stats(i);
  }
  [[nodiscard]] concurrency::WorkerStats total_stats() const {
    return pool_.total_stats();
  }
  [[nodiscard]] ExecStats exec_stats() const;

  /// The sequential engine this executor shards (also the test oracle).
  [[nodiscard]] const QueryEngine& engine() const noexcept { return engine_; }

 private:
  struct BatchState;

  /// Fan out the batch and wait — until the last chunk lands, or until
  /// the deadline fires (then the token is cancelled and the wait ends).
  void run_batch(const std::shared_ptr<BatchState>& state,
                 std::uint64_t deadline_ns) const;
  /// One chunk task's body (worker thread, or inline on the submitter
  /// when every ring is full — the bounded-backpressure shed path).
  void run_chunk(const std::shared_ptr<BatchState>& state, std::size_t index,
                 std::uint64_t task_seq) const;
  /// Merge completed whole partitions into an Evaluation; report the rest.
  [[nodiscard]] Evaluation collect(BatchState& state,
                                   BatchReport& report) const;

  QueryEngine engine_;
  ExecConfig config_;
  mutable concurrency::RwSpinlock graph_lock_;
  mutable concurrency::catomic<std::uint64_t> task_seq_;
  mutable concurrency::catomic<std::uint64_t> deadline_exceeded_;
  mutable concurrency::catomic<std::uint64_t> cancelled_chunks_;
  mutable concurrency::catomic<std::uint64_t> task_exceptions_;
  /// Destroyed first (declared last): joins the workers, so no task can
  /// outlive the members above.
  mutable concurrency::WorkerPool pool_;
};

}  // namespace stash::exec
