// Oracle equivalence for the wall-clock execution mode (PR 8 tentpole):
// the discrete-event sim path (sequential QueryEngine) and the threaded
// ParallelQueryEngine must produce byte-identical answers — same canonical
// digests, per query, over the same seeded workloads, at every thread
// count.  DESIGN.md §13 states the contract; this file is its proof.

#include "exec/parallel_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/wall_clock.hpp"
#include "workload/workload.hpp"

namespace stash {
namespace {

using exec::ExecConfig;
using exec::ParallelQueryEngine;

ExecConfig exec_config(std::size_t threads, std::size_t capacity) {
  ExecConfig config;
  config.threads = threads;
  config.queue_capacity = capacity;
  return config;
}
using exec::RunResult;
using workload::QueryGroup;
using workload::WorkloadConfig;
using workload::WorkloadGenerator;

StashConfig graph_config() {
  StashConfig config;
  config.max_cells = 10'000'000;  // no eviction unless a test forces it
  return config;
}

std::vector<AggregationQuery> seeded_mix(std::uint64_t seed) {
  WorkloadConfig wc;
  wc.seed = seed;
  WorkloadGenerator gen(wc);
  // A small slice of the paper's mixes: locality pans + a dicing descent.
  auto queries = gen.throughput_workload(QueryGroup::County, 2, 3, 0.25);
  const auto dicing =
      gen.iterative_dicing(QueryGroup::State, 3, /*descending=*/true);
  queries.insert(queries.end(), dicing.begin(), dicing.end());
  return queries;
}

class ParallelEngineTest : public ::testing::Test {
 protected:
  AggregationQuery county_query() const {
    return {{38.0, 38.6, -99.0, -97.8},
            TemporalBin(TemporalRes::Day, 2015, 2, 2).range(),
            {6, TemporalRes::Day}};
  }

  std::shared_ptr<const NamGenerator> gen_ = std::make_shared<NamGenerator>();
  GalileoStore store_{gen_};
};

TEST_F(ParallelEngineTest, MatchesSequentialEngineOnOneQuery) {
  const auto query = county_query();

  StashGraph seq_graph(graph_config());
  QueryEngine seq(seq_graph, store_);
  const Evaluation want = seq.evaluate(query);

  StashGraph par_graph(graph_config());
  ParallelQueryEngine par(par_graph, store_, exec_config(3, 16));
  const Evaluation got = par.evaluate(query);

  EXPECT_EQ(exec::answer_digest(got.cells, 0),
            exec::answer_digest(want.cells, 0));
  EXPECT_EQ(got.cells.size(), want.cells.size());
  EXPECT_EQ(got.breakdown.chunks_total, want.breakdown.chunks_total);
  EXPECT_EQ(got.breakdown.chunks_scanned, want.breakdown.chunks_scanned);
  EXPECT_EQ(got.breakdown.scan.records_scanned,
            want.breakdown.scan.records_scanned);
  EXPECT_EQ(got.breakdown.scan.blocks_touched,
            want.breakdown.scan.blocks_touched);
  EXPECT_EQ(got.touched_chunks.size(), want.touched_chunks.size());
}

TEST_F(ParallelEngineTest, RejectsInvalidQueriesLikeTheOracle) {
  StashGraph graph(graph_config());
  ParallelQueryEngine par(graph, store_, exec_config(2, 8));
  AggregationQuery bad = county_query();
  bad.time = {100, 50};
  EXPECT_THROW((void)par.evaluate(bad), std::invalid_argument);
  bad = county_query();
  bad.res.spatial = 1;
  EXPECT_THROW((void)par.evaluate(bad), std::invalid_argument);
}

TEST_F(ParallelEngineTest, AbsorbWarmsTheCacheLikeTheOracle) {
  const auto query = county_query();
  StashGraph graph(graph_config());
  ParallelQueryEngine par(graph, store_, exec_config(2, 16));

  const Evaluation cold = par.evaluate(query);
  EXPECT_GT(cold.breakdown.chunks_scanned, 0u);
  (void)par.absorb(cold, query.res, 0);

  const Evaluation warm = par.evaluate(query);
  EXPECT_EQ(warm.breakdown.chunks_scanned, 0u);
  EXPECT_EQ(warm.breakdown.chunks_from_cache, warm.breakdown.chunks_total);
  EXPECT_EQ(exec::answer_digest(warm.cells, 0),
            exec::answer_digest(cold.cells, 0));
}

// The acceptance property: >= 3 seeds x >= 2 thread counts, byte-identical
// answers between the sim oracle and the wall-clock run — per query, with
// absorb between queries so cache state evolves through the sequence.
TEST_F(ParallelEngineTest, OracleEquivalenceAcrossSeedsAndThreadCounts) {
  const std::uint64_t seeds[] = {0x5741ULL, 20260808ULL, 0xdeadbeefULL};
  const std::size_t thread_counts[] = {1, 2, 4};

  for (const std::uint64_t seed : seeds) {
    const auto queries = seeded_mix(seed);
    ASSERT_GT(queries.size(), 4u);

    StashGraph sim_graph(graph_config());
    const RunResult want =
        exec::run_queries_sim(sim_graph, store_, queries);
    ASSERT_EQ(want.queries, queries.size());
    ASSERT_GT(want.cells, 0u);

    for (const std::size_t threads : thread_counts) {
      StashGraph par_graph(graph_config());
      const RunResult got = exec::run_queries_wallclock(
          par_graph, store_, queries, exec_config(threads, 32));
      EXPECT_EQ(got.digest, want.digest)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(got.per_query, want.per_query)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(got.cells, want.cells);
      EXPECT_EQ(got.bytes, want.bytes);
    }
  }
}

TEST_F(ParallelEngineTest, EvaluatePartitionMatchesOracle) {
  const auto query = county_query();
  StashGraph seq_graph(graph_config());
  QueryEngine seq(seq_graph, store_);
  StashGraph par_graph(graph_config());
  ParallelQueryEngine par(par_graph, store_, exec_config(2, 16));

  for (const std::string partition : {"9y", "9z", "dn"}) {
    const Evaluation want = seq.evaluate_partition(partition, query);
    const Evaluation got = par.evaluate_partition(partition, query);
    EXPECT_EQ(exec::answer_digest(got.cells, 0),
              exec::answer_digest(want.cells, 0))
        << partition;
    EXPECT_EQ(got.cells.size(), want.cells.size()) << partition;
    EXPECT_EQ(got.breakdown.chunks_total, want.breakdown.chunks_total);
  }
}

TEST_F(ParallelEngineTest, ReportsWorkerTopology) {
  StashGraph graph(graph_config());
  ParallelQueryEngine par(graph, store_, exec_config(3, 16));
  EXPECT_EQ(par.worker_count(), 3u);
  (void)par.evaluate(county_query());
  EXPECT_GT(par.total_stats().executed, 0u);
  EXPECT_EQ(par.queue_depth(), 0u);  // batch join drained everything
  for (std::size_t i = 0; i < par.worker_count(); ++i)
    EXPECT_EQ(par.worker_queue_depth(i), 0u);
}

// A batch pays at most one pool handoff per worker, not one per chunk: the
// helpers claim chunks off a shared cursor beside the submitter, nothing
// sheds back onto the submitter, and no helper is left queued on return.
// Cold (scans) and warm (cache hits) passes of one multi-partition query.
TEST_F(ParallelEngineTest, ClaimedBatchPaysAtMostOneHandoffPerWorker) {
  const TemporalBin day(TemporalRes::Day, 2015, 2, 2);
  const AggregationQuery query{
      {36.0, 40.0, -102.0, -94.0}, day.range(), {5, TemporalRes::Day}};
  StashGraph oracle_graph(graph_config());
  QueryEngine oracle(oracle_graph, store_);
  const Evaluation want = oracle.evaluate(query);
  ASSERT_GT(want.breakdown.chunks_total, 8u);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StashGraph graph(graph_config());
    ParallelQueryEngine par(graph, store_, exec_config(threads, 16));
    for (const char* pass : {"cold", "warm"}) {
      SCOPED_TRACE(pass);
      const concurrency::WorkerStats before = par.total_stats();
      const Evaluation got = par.evaluate(query);
      EXPECT_EQ(par.queue_depth(), 0u);
      const concurrency::WorkerStats after = par.total_stats();
      EXPECT_LE(after.executed - before.executed, par.worker_count());
      EXPECT_EQ(after.submit_shed, before.submit_shed);
      EXPECT_EQ(exec::answer_digest(got.cells, 0),
                exec::answer_digest(want.cells, 0));
      EXPECT_EQ(got.breakdown.chunks_total, want.breakdown.chunks_total);
      (void)par.absorb(got, query.res, 0);
    }
  }
}

}  // namespace
}  // namespace stash
