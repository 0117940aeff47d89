// Fig 6b — Throughput of a STASH-enabled vs basic system.
//
// Paper §VIII-D.4: "firing 10,000 ... requests over the cluster which are
// created by selecting 100 random rectangles (of sizes state, county and
// city) over the globe and then randomly panning around each by 10% in any
// random direction 100 times, to replicate spatiotemporal locality of
// requests.  The throughput is calculated based on the total time taken
// for the last request to be executed successfully."  Observed gains:
// 5.7x / 4x / 3.7x for state / county / city.

#include <cstdlib>

#include "bench_common.hpp"

using namespace stash;
using namespace stash::bench;
using workload::QueryGroup;

namespace {

double throughput_qps(cluster::SystemMode mode, QueryGroup group,
                      std::size_t rects, std::size_t pans) {
  workload::WorkloadGenerator wl;
  const auto queries = wl.throughput_workload(group, rects, pans, 0.1);
  auto config = paper_cluster_config(mode);
  cluster::StashCluster cluster_obj(config, shared_generator());
  auto* cluster = &cluster_obj;
  // The paper fires the whole request set at the cluster; throughput is
  // total requests / time of the last completion.
  const auto stats = cluster->run_burst(queries);
  sim::SimTime last = 0;
  for (const auto& s : stats) last = std::max(last, s.completed_at);
  return static_cast<double>(queries.size()) / sim::to_seconds(last);
}

}  // namespace

int main(int argc, char** argv) {
  // 100 rectangles x (1 + 99 pans) = 10,000 requests as in the paper;
  // pass a smaller rectangle count for a quick run.
  const std::size_t rects =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 100;
  const std::size_t pans = 99;
  print_header("Fig 6b", "throughput: " + std::to_string(rects * (pans + 1)) +
                             " locality-clustered requests");
  std::printf("%-9s %16s %16s %10s\n", "size", "STASH(q/s)", "basic(q/s)",
              "speedup");
  print_rule();
  for (QueryGroup group :
       {QueryGroup::State, QueryGroup::County, QueryGroup::City}) {
    const double with_stash =
        throughput_qps(cluster::SystemMode::Stash, group, rects, pans);
    const double basic =
        throughput_qps(cluster::SystemMode::Basic, group, rects, pans);
    std::printf("%-9s %16.0f %16.0f %9.1fx\n", workload::to_string(group).c_str(),
                with_stash, basic, with_stash / basic);
  }
  std::printf("\nexpected shape: ~5.7x / 4x / 3.7x improvement for "
              "state / county / city (paper Fig 6b).\n");
  return 0;
}
