// TSan-lane stress for the wall-clock path (suite name matches the CI
// lane's Concurrent|Stress filter): the full §VIII query mix — dicing,
// panning, zoom, hotspot bursts — through ParallelQueryEngine, including
// concurrent caller threads racing evaluates against absorbs, with the
// sequential engine checking every answer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "exec/parallel_engine.hpp"
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
using workload::QueryGroup;
using workload::WorkloadConfig;
using workload::WorkloadGenerator;

StashConfig graph_config() {
  StashConfig config;
  config.max_cells = 10'000'000;
  return config;
}

std::vector<AggregationQuery> full_mix(std::uint64_t seed) {
  WorkloadConfig wc;
  wc.seed = seed;
  WorkloadGenerator gen(wc);
  std::vector<AggregationQuery> queries =
      gen.iterative_dicing(QueryGroup::State, 4, /*descending=*/true);
  const auto base = gen.random_query(QueryGroup::County);
  for (const auto& q : gen.panning_sequence(base, 0.25)) queries.push_back(q);
  for (const auto& q : gen.zoom_sequence(base, 5, 7)) queries.push_back(q);
  for (const auto& q : gen.hotspot_burst(QueryGroup::County, 6, 0.25))
    queries.push_back(q);
  return queries;
}

TEST(ParallelExecStressTest, FullQueryMixMatchesOracleWithAbsorbs) {
  const auto queries = full_mix(0x57535452ULL);
  ASSERT_GT(queries.size(), 15u);

  std::shared_ptr<const NamGenerator> gen = std::make_shared<NamGenerator>();
  GalileoStore store{gen};

  StashGraph sim_graph(graph_config());
  const auto want = exec::run_queries_sim(sim_graph, store, queries);

  StashGraph par_graph(graph_config());
  const auto got = exec::run_queries_wallclock(par_graph, store, queries,
                                               exec_config(4, 32));
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.per_query, want.per_query);
  EXPECT_EQ(got.cells, want.cells);
}

TEST(ParallelExecStressTest, ConcurrentCallersShareOnePool) {
  // Several caller threads hammer evaluate() (reader lock) while the main
  // thread absorbs (writer lock).  Answers come from whole complete chunks
  // at one resolution, so they do not depend on what is cached: every
  // caller must see identical bytes even while absorbs land.  The second
  // input caps the graph below one pan's footprint, so absorbs also
  // evict while the callers race them.
  std::shared_ptr<const NamGenerator> gen = std::make_shared<NamGenerator>();
  GalileoStore store{gen};

  WorkloadConfig wc;
  wc.seed = 0x434f4e43ULL;
  WorkloadGenerator wgen(wc);
  const auto base = wgen.random_query(QueryGroup::County);
  const auto pans = wgen.panning_sequence(base, 0.25);

  for (const std::size_t max_cells :
       {std::size_t{10'000'000}, std::size_t{64}}) {
    StashConfig config = graph_config();
    config.max_cells = max_cells;
    StashGraph graph(config);
    ParallelQueryEngine par(graph, store, exec_config(4, 32));

    constexpr int kCallers = 3;
    constexpr int kRounds = 4;
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::uint64_t> digests(kCallers, 0);
      std::atomic<bool> failed{false};
      std::vector<std::thread> callers;
      callers.reserve(kCallers);
      for (int c = 0; c < kCallers; ++c) {
        callers.emplace_back([&par, &pans, &digests, &failed, c] {
          std::uint64_t digest = 0;
          try {
            for (const auto& q : pans)
              digest = exec::answer_digest(par.evaluate(q).cells, digest);
          } catch (...) {
            failed.store(true);
          }
          digests[static_cast<std::size_t>(c)] = digest;
        });
      }
      // Advance cache state under the writer lock while the callers read:
      // each round absorbs a different pan, so a small cache must evict.
      const auto& warm = pans[static_cast<std::size_t>(round) % pans.size()];
      const Evaluation eval = par.evaluate(warm);
      (void)par.absorb(eval, warm.res, (round + 1) * sim::kMillisecond);
      for (auto& t : callers) t.join();
      ASSERT_FALSE(failed.load());
      // Same queries, cache-independent answers: identical bytes.
      for (std::size_t c = 1; c < kCallers; ++c)
        EXPECT_EQ(digests[0], digests[c]) << "max_cells " << max_cells;
    }
    EXPECT_GT(par.total_stats().executed, 0u);
    if (max_cells < 10'000'000) {
      EXPECT_GT(graph.stats().cells_evicted, 0u) << "eviction never fired";
    }
  }
}

TEST(ParallelExecStressTest, ManySmallBatchesChurnThePool) {
  // Many tiny evaluates keep submitting/parking cycles hot — the shape
  // most likely to trip a lost wakeup or a ring lifecycle bug under TSan.
  std::shared_ptr<const NamGenerator> gen = std::make_shared<NamGenerator>();
  GalileoStore store{gen};
  StashGraph graph(graph_config());
  ParallelQueryEngine par(graph, store, exec_config(4, 8));

  WorkloadConfig wc;
  wc.seed = 0x43485552ULL;
  WorkloadGenerator wgen(wc);
  std::uint64_t digest = 0;
  for (int i = 0; i < 40; ++i) {
    const auto q = wgen.random_query(QueryGroup::City);
    digest = exec::answer_digest(par.evaluate(q).cells, digest);
  }
  // Digest consumed so the loop cannot be optimised away; the real check
  // is TSan plus the pool's internal accounting.
  EXPECT_NE(digest, 0u);
  EXPECT_GT(par.total_stats().executed, 0u);
  EXPECT_EQ(par.queue_depth(), 0u);
}

}  // namespace
}  // namespace stash
