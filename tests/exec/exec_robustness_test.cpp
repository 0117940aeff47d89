// Robustness contract of the wall-clock datapath (PR 9 tentpole):
// deadlines produce honest partials (whole partitions only, named
// remainders), injected faults are quarantined and reported, the fault
// plan is deterministic run-to-run, and a mid-batch teardown neither
// hangs nor leaks.  DESIGN.md §14 states the contract; this file is its
// engine-level proof.  The property sweep here is the acceptance bar:
// over seeds x thread counts x fault plans, every answer either
// byte-matches the sequential oracle or is explicitly flagged with the
// expiry/fault reason.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/fault_hooks.hpp"
#include "exec/host_clock.hpp"
#include "exec/parallel_engine.hpp"
#include "exec/wall_clock.hpp"
#include "geo/geohash.hpp"
#include "workload/workload.hpp"

namespace stash {
namespace {

using exec::BatchReport;
using exec::ExecConfig;
using exec::ExecOptions;
using exec::FaultHooks;
using exec::InjectedFault;
using exec::ParallelQueryEngine;
using workload::QueryGroup;
using workload::WorkloadConfig;
using workload::WorkloadGenerator;

StashConfig graph_config() {
  StashConfig config;
  config.max_cells = 10'000'000;  // no eviction unless a test forces it
  return config;
}

ExecConfig exec_config(std::size_t threads, FaultHooks faults = {}) {
  ExecConfig config;
  config.threads = threads;
  config.queue_capacity = 256;  // large enough that nothing sheds inline
  config.faults = faults;
  return config;
}

std::vector<AggregationQuery> seeded_mix(std::uint64_t seed) {
  WorkloadConfig wc;
  wc.seed = seed;
  WorkloadGenerator gen(wc);
  auto queries = gen.throughput_workload(QueryGroup::County, 2, 2, 0.25);
  const auto dicing =
      gen.iterative_dicing(QueryGroup::State, 2, /*descending=*/true);
  queries.insert(queries.end(), dicing.begin(), dicing.end());
  return queries;
}

class ExecRobustnessTest : public ::testing::Test {
 protected:
  AggregationQuery state_query() const {
    // Wide enough to span several partitions — the honest-partial
    // contract only bites with > 1 partition in the batch.
    return {{36.0, 40.0, -102.0, -94.0},
            TemporalBin(TemporalRes::Day, 2015, 2, 2).range(),
            {5, TemporalRes::Day}};
  }

  /// The sequential oracle's answer over exactly the partitions `report`
  /// vouches for (those it does not name incomplete): what an honest
  /// partial must equal byte for byte.
  CellSummaryMap vouched_oracle(const AggregationQuery& query,
                                const BatchReport& report) const {
    StashGraph graph(graph_config());
    QueryEngine seq(graph, store_);
    const std::set<std::string> incomplete(
        report.incomplete_partitions.begin(),
        report.incomplete_partitions.end());
    CellSummaryMap expected;
    for (const auto& partition :
         geohash::covering(query.area, store_.partition_prefix_length())) {
      if (incomplete.count(partition) != 0) continue;
      const Evaluation want = seq.evaluate_partition(partition, query);
      for (const auto& [key, summary] : want.cells) {
        auto [it, inserted] = expected.try_emplace(key, summary);
        if (!inserted) it->second.merge(summary);
      }
    }
    return expected;
  }

  std::shared_ptr<const NamGenerator> gen_ = std::make_shared<NamGenerator>();
  GalileoStore store_{gen_};
};

// ---------------------------------------------------------------------------
// Deadlines: honest partials.
// ---------------------------------------------------------------------------

TEST_F(ExecRobustnessTest, ExpiredDeadlineReturnsOnlyWholePartitions) {
  const auto query = state_query();

  StashGraph par_graph(graph_config());
  ParallelQueryEngine par(par_graph, store_, exec_config(2));

  // A deadline already in the past: the submitter cancels before parking,
  // so whatever completed is a race — the contract under test is that the
  // answer covers exactly the partitions NOT named incomplete, and each
  // covered partition matches the oracle byte-for-byte.
  ExecOptions options;
  options.deadline_ns = 1;  // epoch + 1ns: expired long ago
  BatchReport report;
  const Evaluation got = par.evaluate(query, EvalMode::Cached, options, report);

  EXPECT_TRUE(report.deadline_exceeded);
  EXPECT_EQ(report.chunks_total, report.chunks_completed +
                                     report.chunks_cancelled +
                                     report.chunks_failed);
  if (!report.complete()) {
    EXPECT_FALSE(report.incomplete_partitions.empty());
  }

  // Only the partitions the report vouches for, each oracle-exact.
  EXPECT_EQ(exec::answer_digest(got.cells, 0),
            exec::answer_digest(vouched_oracle(query, report), 0));

  const exec::ExecStats stats = par.exec_stats();
  EXPECT_GE(stats.deadline_exceeded, 1u);
}

TEST_F(ExecRobustnessTest, DeadlineWithStalledWorkersReturnsPromptly) {
  // Stall every chunk hard: a full run would burn chunks x stall-spins of
  // CPU.  At every thread count the deadline must cut that short — the
  // submitter returns within the deadline plus scheduling slack, the un-run
  // chunks show up as cancelled, not as latency, and the partial is the
  // oracle's answer over exactly the partitions the report vouches for.
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    FaultHooks faults;
    faults.seed = 7;
    faults.worker_stall_rate = 1.0;
    faults.worker_stall_spins = 20'000'000;

    StashGraph graph(graph_config());
    ParallelQueryEngine par(graph, store_, exec_config(threads, faults));

    constexpr std::uint64_t kDeadlineMs = 20;
    ExecOptions options;
    const std::uint64_t start = exec::host_now_ns();
    options.deadline_ns = start + kDeadlineMs * 1'000'000;
    BatchReport report;
    const Evaluation got =
        par.evaluate(state_query(), EvalMode::Cached, options, report);
    const std::uint64_t elapsed_ms =
        (exec::host_now_ns() - start) / 1'000'000;

    EXPECT_TRUE(report.deadline_exceeded);
    EXPECT_GT(report.chunks_cancelled, 0u) << "deadline cancelled nothing";
    // Deadline + one watchdog tick (5ms default) + generous scheduler
    // slack; far below what running every stalled chunk would cost.
    EXPECT_LT(elapsed_ms, kDeadlineMs + 1000u);
    EXPECT_EQ(exec::answer_digest(got.cells, 0),
              exec::answer_digest(vouched_oracle(state_query(), report), 0));

    // Stragglers may still be mid-stall; the cooperative-cancel counter
    // settles once they probe the token.
    exec::ExecStats stats = par.exec_stats();
    const std::uint64_t poll_until = exec::host_now_ns() + 5'000'000'000ull;
    while (stats.cancelled_chunks == 0 && exec::host_now_ns() < poll_until) {
      std::this_thread::yield();
      stats = par.exec_stats();
    }
    EXPECT_GE(stats.cancelled_chunks, 1u);
    EXPECT_GE(stats.deadline_exceeded, 1u);
  }
}

// ---------------------------------------------------------------------------
// Fault quarantine.
// ---------------------------------------------------------------------------

TEST_F(ExecRobustnessTest, InjectedExceptionsAreQuarantinedAndReported) {
  FaultHooks faults;
  faults.seed = 42;
  faults.task_exception_rate = 1.0;  // every chunk throws

  StashGraph graph(graph_config());
  ParallelQueryEngine par(graph, store_, exec_config(2, faults));

  BatchReport report;
  const Evaluation got =
      par.evaluate(state_query(), EvalMode::Cached, {}, report);

  EXPECT_TRUE(got.cells.empty());  // no partition survived
  EXPECT_EQ(report.chunks_failed, report.chunks_total);
  EXPECT_FALSE(report.incomplete_partitions.empty());
  ASSERT_TRUE(report.first_error != nullptr);
  EXPECT_THROW(std::rethrow_exception(report.first_error), InjectedFault);
  EXPECT_EQ(par.exec_stats().task_exceptions, report.chunks_total);

  // The pool survived the quarantine: a clean follow-up run still works.
  ParallelQueryEngine clean(graph, store_, exec_config(2));
  BatchReport clean_report;
  (void)clean.evaluate(state_query(), EvalMode::Cached, {}, clean_report);
  EXPECT_TRUE(clean_report.complete());
}

TEST_F(ExecRobustnessTest, LegacyOverloadRethrowsInjectedFault) {
  FaultHooks faults;
  faults.seed = 42;
  faults.task_exception_rate = 1.0;

  StashGraph graph(graph_config());
  ParallelQueryEngine par(graph, store_, exec_config(2, faults));
  EXPECT_THROW((void)par.evaluate(state_query()), InjectedFault);
}

TEST_F(ExecRobustnessTest, FaultPlanIsDeterministicRunToRun) {
  // Decisions are a pure function of (seed, task_seq); task_seq is
  // assigned on the single-threaded submit path — so two fresh engines
  // with the same plan fail the exact same chunks, at any thread count.
  FaultHooks faults;
  faults.seed = 0xC0FFEE;
  faults.task_exception_rate = 0.4;

  std::vector<std::string> first_incomplete;
  std::size_t first_failed = 0;
  for (int run = 0; run < 2; ++run) {
    StashGraph graph(graph_config());
    ParallelQueryEngine par(graph, store_, exec_config(run == 0 ? 1 : 4,
                                                       faults));
    BatchReport report;
    (void)par.evaluate(state_query(), EvalMode::Cached, {}, report);
    if (run == 0) {
      first_incomplete = report.incomplete_partitions;
      first_failed = report.chunks_failed;
      EXPECT_GT(first_failed, 0u) << "rate 0.4 never fired; test is inert";
    } else {
      EXPECT_EQ(report.incomplete_partitions, first_incomplete);
      EXPECT_EQ(report.chunks_failed, first_failed);
    }
  }
}

// ---------------------------------------------------------------------------
// The acceptance sweep: seeds x threads x fault plans.  Every answer
// byte-matches the oracle or is explicitly flagged with its reason.
// ---------------------------------------------------------------------------

TEST_F(ExecRobustnessTest, PropertySweepAnswersMatchOracleOrAreFlagged) {
  struct Plan {
    const char* name;
    FaultHooks faults;
    bool lossless;  // plan cannot change any answer, only its timing
  };
  std::vector<Plan> plans;
  plans.push_back({"none", {}, true});
  {
    FaultHooks f;
    f.seed = 1;
    f.task_delay_rate = 0.5;
    f.task_delay_spins = 5'000;
    plans.push_back({"delay", f, true});
  }
  {
    FaultHooks f;
    f.seed = 2;
    f.task_exception_rate = 0.3;
    plans.push_back({"exceptions", f, false});
  }
  {
    FaultHooks f;
    f.seed = 3;
    f.worker_stall_rate = 0.25;
    f.worker_stall_spins = 200'000;  // long enough to reorder, not to wedge
    plans.push_back({"stalls", f, true});
  }

  for (const std::uint64_t seed : {0x5EEDull, 0xFACEull}) {
    const auto queries = seeded_mix(seed);

    // Oracle: per-query digests from the sequential engine (no absorbs —
    // faulted runs must not mutate shared state, so neither does the
    // oracle).
    StashGraph seq_graph(graph_config());
    QueryEngine seq(seq_graph, store_);
    std::vector<std::uint64_t> want;
    want.reserve(queries.size());
    for (const auto& q : queries)
      want.push_back(exec::answer_digest(seq.evaluate(q).cells, 0));

    for (const std::size_t threads : {1u, 2u, 4u}) {
      for (const Plan& plan : plans) {
        FaultHooks faults = plan.faults;
        faults.seed ^= seed;  // vary the fault pattern with the workload
        StashGraph par_graph(graph_config());
        ParallelQueryEngine par(par_graph, store_,
                                exec_config(threads, faults));
        for (std::size_t i = 0; i < queries.size(); ++i) {
          BatchReport report;
          const Evaluation got =
              par.evaluate(queries[i], EvalMode::Cached, {}, report);
          const std::string ctx = std::string("plan=") + plan.name +
                                  " seed=" + std::to_string(seed) +
                                  " threads=" + std::to_string(threads) +
                                  " query=" + std::to_string(i);
          if (report.complete()) {
            EXPECT_EQ(exec::answer_digest(got.cells, 0), want[i]) << ctx;
          } else {
            // Flagged: the report must carry the reason, not just be
            // silently short.
            EXPECT_GT(report.chunks_failed, 0u) << ctx;
            EXPECT_FALSE(report.incomplete_partitions.empty()) << ctx;
            EXPECT_TRUE(report.first_error != nullptr) << ctx;
          }
          if (plan.lossless) {
            EXPECT_TRUE(report.complete())
                << ctx << ": a delay/stall plan must not lose chunks";
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Teardown during an in-flight batch.
// ---------------------------------------------------------------------------

TEST_F(ExecRobustnessTest, DestroyEngineWithStragglersInFlight) {
  // An expired deadline hands the batch back while chunks are still
  // queued or running; destroying the engine right then must join the
  // workers cleanly (pool_ is declared last) and free every outcome
  // (BatchState is shared_ptr-owned).  Leaks surface under the sanitizer
  // lane; a lifetime bug crashes right here.
  for (int round = 0; round < 5; ++round) {
    StashGraph graph(graph_config());
    FaultHooks faults;
    faults.seed = static_cast<std::uint64_t>(round);
    faults.task_delay_rate = 0.5;
    faults.task_delay_spins = 100'000;
    auto par = std::make_unique<ParallelQueryEngine>(graph, store_,
                                                     exec_config(2, faults));
    ExecOptions options;
    options.deadline_ns = 1;  // already expired
    BatchReport report;
    (void)par->evaluate(state_query(), EvalMode::Cached, options, report);
    par.reset();  // join with stragglers possibly mid-chunk
  }
}

}  // namespace
}  // namespace stash
