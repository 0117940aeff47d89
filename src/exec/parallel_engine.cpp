#include "exec/parallel_engine.hpp"

#include <exception>
#include <set>
#include <utility>

#include "concurrency/cancellation.hpp"
#include "concurrency/wakeup_gate.hpp"
#include "exec/host_clock.hpp"
#include "geo/geohash.hpp"

namespace stash::exec {

namespace {

// Chunk lifecycle, published with release by the executing thread and
// read with acquire by the collecting submitter.
constexpr std::uint32_t kChunkPending = 0;
constexpr std::uint32_t kChunkDone = 1;
constexpr std::uint32_t kChunkCancelled = 2;
constexpr std::uint32_t kChunkFailed = 3;

// The engine's pool drains on shutdown: abandoned tasks are cancelled
// first (kShutdown), so even a drain is quick once the engine is going
// away.  The stuck-worker watchdog samples every 5 ms of host time.
constexpr bool kDrainOnShutdown = true;
constexpr std::uint64_t kWatchdogIntervalNs = 5'000'000;

/// CancelProbe adapter over the batch token (between-cells checks).
class TokenProbe final : public CancelProbe {
 public:
  explicit TokenProbe(const concurrency::CancellationToken& token) noexcept
      : token_(token) {}
  [[nodiscard]] bool cancelled() const noexcept override {
    return token_.cancelled();
  }

 private:
  const concurrency::CancellationToken& token_;
};

}  // namespace

/// Everything one batch fans out over, owned by shared_ptr: the submitter
/// may return at its deadline while straggler tasks still hold a
/// reference, so nothing here can live on the submitting thread's stack.
struct ParallelQueryEngine::BatchState {
  struct Part {
    std::string partition;
    QueryEngine::PartitionPlan plan;
    std::size_t first = 0;  // index of this partition's first chunk/outcome
  };
  struct ChunkOutcome {
    CellSummaryMap cells;
    ChunkEvalResult result;
    std::exception_ptr error;
  };

  AggregationQuery query;
  EvalMode mode;
  std::vector<Part> parts;
  /// items[i] = index into parts; the chunk is plan.chunks[i - first].
  std::vector<std::size_t> part_of;
  std::vector<ChunkOutcome> outcomes;
  std::unique_ptr<concurrency::catomic<std::uint32_t>[]> chunk_state;
  concurrency::CancellationToken token;
  concurrency::WakeupGate done;
  concurrency::catomic<std::uint64_t> remaining;

  BatchState(AggregationQuery q, EvalMode m, std::vector<Part> p)
      : query(std::move(q)),
        mode(m),
        parts(std::move(p)),
        remaining(0, "exec.batch_remaining") {
    std::size_t n = 0;
    for (auto& part : parts) {
      part.first = n;
      n += part.plan.chunks.size();
    }
    part_of.resize(n);
    for (std::size_t pi = 0; pi < parts.size(); ++pi)
      for (std::size_t j = 0; j < parts[pi].plan.chunks.size(); ++j)
        part_of[parts[pi].first + j] = pi;
    outcomes.resize(n);
    chunk_state =
        std::make_unique<concurrency::catomic<std::uint32_t>[]>(n);
    remaining.store(n);
  }

  [[nodiscard]] std::size_t size() const noexcept { return outcomes.size(); }
};

ParallelQueryEngine::ParallelQueryEngine(StashGraph& graph,
                                        const GalileoStore& store,
                                        ExecConfig config)
    : engine_(graph, store),
      config_(config),
      task_seq_(0, "exec.task_seq"),
      deadline_exceeded_(0, "exec.deadline_exceeded"),
      cancelled_chunks_(0, "exec.cancelled_chunks"),
      task_exceptions_(0, "exec.task_exceptions"),
      pool_(concurrency::WorkerPool::Config{
          config.threads, config.queue_capacity, kDrainOnShutdown,
          kWatchdogIntervalNs, &host_now_ns}) {}

ParallelQueryEngine::~ParallelQueryEngine() = default;

void ParallelQueryEngine::run_chunk(const std::shared_ptr<BatchState>& state,
                                    std::size_t index,
                                    std::uint64_t task_seq) const {
  BatchState::ChunkOutcome& out = state->outcomes[index];
  std::uint32_t final_state = kChunkDone;
  if (state->token.cancelled()) {
    final_state = kChunkCancelled;
  } else {
    try {
      const FaultDecision fault = fault_decision(config_.faults, task_seq);
      if (fault.throw_exception) throw InjectedFault(task_seq);
      if (fault.stall)
        fault_busy_spin(config_.faults.worker_stall_spins);
      else if (fault.delay)
        fault_busy_spin(config_.faults.task_delay_spins);

      const BatchState::Part& part = state->parts[state->part_of[index]];
      const ChunkKey& chunk = part.plan.chunks[index - part.first];
      const TokenProbe probe(state->token);
      concurrency::RwSpinReaderLock lock(graph_lock_);
      out.result =
          engine_.evaluate_chunk(part.partition, state->query,
                                 part.plan.clipped, chunk, state->mode,
                                 out.cells, &probe);
      if (out.result.cancelled) {
        out.cells.clear();  // a half-scanned chunk is not an honest answer
        final_state = kChunkCancelled;
      }
    } catch (...) {
      out.error = std::current_exception();
      final_state = kChunkFailed;
    }
  }
  if (final_state == kChunkCancelled)
    cancelled_chunks_.fetch_add(1);
  else if (final_state == kChunkFailed)
    task_exceptions_.fetch_add(1);
  // Release pairs with the collector's acquire: a chunk observed done has
  // its cells/result fully visible.
  state->chunk_state[index].store(final_state, std::memory_order_release);
  if (state->remaining.fetch_sub(1, std::memory_order_release) == 1)
    state->done.notify_all();
}

void ParallelQueryEngine::run_batch(const std::shared_ptr<BatchState>& state,
                                    std::uint64_t deadline_ns) const {
  const std::size_t n = state->size();
  if (n == 0) return;

  const bool timed = deadline_ns != 0;
  const auto expired = [deadline_ns] { return host_now_ns() >= deadline_ns; };

  bool expired_in_submit = false;
  for (std::size_t i = 0; i < n; ++i) {
    // The deadline binds during submission too: an inline-shed chunk can
    // burn real time, so once the budget is gone the token is cancelled
    // and the rest of the batch takes run_chunk's fast bail-out path —
    // every chunk still decrements `remaining` exactly once.
    if (timed && !expired_in_submit && expired()) {
      if (state->token.cancel(concurrency::CancelReason::kDeadline,
                              deadline_ns))
        deadline_exceeded_.fetch_add(1);
      expired_in_submit = true;
    }
    const std::uint64_t seq = task_seq_.fetch_add(1);
    concurrency::WorkerPool::Task task = [this, state, i, seq] {
      run_chunk(state, i, seq);
    };
    if (expired_in_submit) {
      task();  // token already cancelled: records kChunkCancelled, ~free
      continue;
    }
    if (!pool_.try_submit(task)) {
      // Every ring full: bounded backpressure means the submitter runs
      // the chunk inline instead of spinning on the rings (counted as
      // submit_shed in the pool stats).
      task();
    }
  }

  // Park until the last chunk lands or the deadline fires (prepare /
  // re-check / commit — the gate protocol proven in tests/mc/).
  while (state->remaining.load(std::memory_order_acquire) != 0) {
    if (timed && expired()) break;
    const concurrency::WakeupGate::Ticket ticket = state->done.prepare_wait();
    if (state->remaining.load(std::memory_order_acquire) == 0) {
      state->done.cancel_wait();
      break;
    }
    if (timed) {
      if (!state->done.commit_wait_until(ticket, expired)) break;
    } else {
      state->done.commit_wait(ticket);
    }
  }

  if (state->remaining.load(std::memory_order_acquire) != 0) {
    // Deadline fired with chunks outstanding: cancel cooperatively and
    // return.  Workers probe the token between chunks and between
    // per-day scans; stragglers decrement against the shared state after
    // we are gone.  (cancel() is idempotent-by-claim: if the submit loop
    // already cancelled, this neither re-publishes nor double-counts.)
    if (state->token.cancel(concurrency::CancelReason::kDeadline,
                            deadline_ns))
      deadline_exceeded_.fetch_add(1);
  }
}

Evaluation ParallelQueryEngine::collect(BatchState& state,
                                        BatchReport& report) const {
  report.chunks_total = state.size();
  Evaluation total;
  for (const BatchState::Part& part : state.parts) {
    const std::size_t count = part.plan.chunks.size();
    bool whole = true;
    for (std::size_t j = 0; j < count; ++j) {
      switch (state.chunk_state[part.first + j].load(
          std::memory_order_acquire)) {
        case kChunkDone:
          ++report.chunks_completed;
          break;
        case kChunkFailed:
          ++report.chunks_failed;
          if (!report.first_error)
            report.first_error = state.outcomes[part.first + j].error;
          whole = false;
          break;
        case kChunkPending:   // still queued/running: will cancel
        case kChunkCancelled:
        default:
          ++report.chunks_cancelled;
          whole = false;
          break;
      }
    }
    if (!whole) {
      // No half-partition answers: withhold every cell of an incomplete
      // partition and name it, mirroring the corrupt-block taxonomy.
      report.incomplete_partitions.push_back(part.partition);
      continue;
    }
    // Per-partition assembly in canonical chunk order, then the same
    // partition-order merge into the total as QueryEngine::evaluate.
    Evaluation eval;
    std::set<std::int64_t> days_scanned;
    for (std::size_t j = 0; j < count; ++j) {
      BatchState::ChunkOutcome& out = state.outcomes[part.first + j];
      eval.touched_chunks.push_back(part.plan.chunks[j]);
      eval.breakdown += out.result.breakdown;
      for (auto& [key, summary] : out.cells) {
        auto [it, inserted] = eval.cells.try_emplace(key, std::move(summary));
        if (!inserted) it->second.merge(summary);
      }
      if (out.result.fetched)
        eval.fetched.push_back(std::move(*out.result.fetched));
      eval.corrupt_blocks.insert(eval.corrupt_blocks.end(),
                                 out.result.corrupt_blocks.begin(),
                                 out.result.corrupt_blocks.end());
      days_scanned.insert(out.result.days_scanned.begin(),
                          out.result.days_scanned.end());
    }
    eval.breakdown.scan.blocks_touched = days_scanned.size();
    total.merge(std::move(eval));
  }
  return total;
}

Evaluation ParallelQueryEngine::evaluate_partition(
    std::string_view partition, const AggregationQuery& query,
    EvalMode mode) const {
  BatchReport report;
  Evaluation eval = evaluate_partition(partition, query, mode, {}, report);
  // Legacy contract: without a deadline every chunk runs; the only
  // possible incompleteness is a throwing chunk, which rethrows here.
  if (report.first_error) std::rethrow_exception(report.first_error);
  return eval;
}

Evaluation ParallelQueryEngine::evaluate_partition(
    std::string_view partition, const AggregationQuery& query, EvalMode mode,
    const ExecOptions& options, BatchReport& report) const {
  engine_.validate(query);  // before any task is queued
  std::vector<BatchState::Part> parts;
  BatchState::Part part{std::string(partition),
                        engine_.plan_partition(partition, query), 0};
  if (!part.plan.empty) parts.push_back(std::move(part));
  auto state =
      std::make_shared<BatchState>(query, mode, std::move(parts));
  run_batch(state, options.deadline_ns);
  report.deadline_exceeded = state->token.cancelled();
  return collect(*state, report);
}

Evaluation ParallelQueryEngine::evaluate(const AggregationQuery& query,
                                         EvalMode mode) const {
  BatchReport report;
  Evaluation eval = evaluate(query, mode, {}, report);
  if (report.first_error) std::rethrow_exception(report.first_error);
  return eval;
}

Evaluation ParallelQueryEngine::evaluate(const AggregationQuery& query,
                                         EvalMode mode,
                                         const ExecOptions& options,
                                         BatchReport& report) const {
  engine_.validate(query);

  // Plan every partition first so the whole query fans out as one batch —
  // the covering order here is the canonical merge order.
  std::vector<BatchState::Part> parts;
  for (const auto& partition : geohash::covering(
           query.area, engine_.store().partition_prefix_length())) {
    BatchState::Part part{partition, engine_.plan_partition(partition, query),
                          0};
    if (!part.plan.empty) parts.push_back(std::move(part));
  }
  auto state =
      std::make_shared<BatchState>(query, mode, std::move(parts));
  run_batch(state, options.deadline_ns);
  report.deadline_exceeded = state->token.cancelled();
  return collect(*state, report);
}

MaintenanceStats ParallelQueryEngine::absorb(const Evaluation& eval,
                                             const Resolution& res,
                                             sim::SimTime now) {
  concurrency::RwSpinWriterLock lock(graph_lock_);
  return engine_.absorb(eval, res, now);
}

ExecStats ParallelQueryEngine::exec_stats() const {
  ExecStats out;
  out.pool = pool_.total_stats();
  out.deadline_exceeded = deadline_exceeded_.load();
  out.cancelled_chunks = cancelled_chunks_.load();
  out.task_exceptions = task_exceptions_.load();
  return out;
}

}  // namespace stash::exec
