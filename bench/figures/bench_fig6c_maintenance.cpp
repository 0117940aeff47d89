// Fig 6c — STASH maintenance (Cell population) time vs query size.
//
// Paper §VIII-C.2: "the population of Cells fetched from disk to memory is
// done at the back-end in a separate thread ... the cold-start scenario
// where all the Cells from a query have to be inserted in-memory and the
// time taken [for] population ... goes down considerably with query size
// since lesser Cells are to be inserted in STASH."

#include "bench_common.hpp"

using namespace stash;
using namespace stash::bench;
using workload::QueryGroup;

int main() {
  print_header("Fig 6c", "cold-start Cell population (maintenance) time");
  std::printf("%-9s %14s %16s %18s\n", "size", "cells", "maintenance(ms)",
              "response-path(ms)");
  print_rule();
  constexpr int kQueries = 10;
  for (QueryGroup group : {QueryGroup::Country, QueryGroup::State,
                           QueryGroup::County, QueryGroup::City}) {
    workload::WorkloadGenerator wl;
    double maintenance_ms = 0.0;
    double response_ms = 0.0;
    std::size_t cells = 0;
    for (int i = 0; i < kQueries; ++i) {
      auto cluster = make_cluster();
      const auto stats = cluster->run_query(wl.random_query(group));
      maintenance_ms += sim::to_millis(
          static_cast<sim::SimTime>(cluster->metrics().maintenance_time_us));
      response_ms += sim::to_millis(stats.latency());
      cells += stats.result_cells;
    }
    std::printf("%-9s %14zu %16.2f %18.2f\n", workload::to_string(group).c_str(),
                cells / kQueries, maintenance_ms / kQueries,
                response_ms / kQueries);
  }
  std::printf("\nexpected shape: maintenance time falls with query size and "
              "stays off the response path.\n");
  return 0;
}
