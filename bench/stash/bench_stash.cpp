// bench_stash: the STASH benchmark binary (bench/stash/README.md).
//
// Usage:
//   bench_stash --workload explore|revisit|churn|cluster --seed N
//               [--seconds S] [--trace FILE] [--smoke]
//
// Runs one workload, checks its answers against the sequential oracle,
// and prints one JSON object on stdout: provenance, attempted/failed
// counts, the oracle digest, and the end-to-end metrics — or, with
// --trace, the per-layer metrics of a traced run (spans of the first
// traced pass go to FILE).  Exit status: 0 when every check passed, 3
// when the result was printed but a check failed, 2 on bad usage, 1 on
// any other error.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "harness.hpp"

namespace {

using stash::bench::Options;
using stash::bench::Result;

int usage(const char* message) {
  std::fprintf(stderr,
               "bench_stash: %s\nusage: bench_stash --workload "
               "explore|revisit|churn|cluster --seed N [--seconds S] "
               "[--trace FILE] [--smoke]\n",
               message);
  return 2;
}

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      options.seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return false;
    } else if (arg == "--seconds" && has_value) {
      char* end = nullptr;
      options.seconds = std::strtod(argv[++i], &end);
      if (end == nullptr || *end != '\0' || !(options.seconds > 0.0)) return false;
    } else if (arg == "--trace" && has_value) {
      options.trace_path = argv[++i];
      if (options.trace_path.empty()) return false;
    } else {
      return false;
    }
  }
  return true;
}

void print_result(const Options& options, const Result& r) {
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"smoke\": %s, "
      "\"traced\": %s, \"threads\": %zu, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"passes\": %zu, \"attempted\": %zu, "
      "\"failed\": %zu, \"samples\": %zu, \"oracle_ok\": %s, "
      "\"trace_digest_ok\": %s, \"digest\": \"0x%016" PRIx64 "\", "
      "\"metrics\": [",
      options.workload.c_str(), options.seed, options.smoke ? "true" : "false",
      options.traced() ? "true" : "false", r.threads, STASH_BENCH_BUILD_TYPE,
      STASH_BENCH_COMPILER, r.passes, r.attempted, r.failed, r.samples,
      r.oracle_ok ? "true" : "false", r.trace_digest_ok ? "true" : "false",
      r.digest);
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    std::printf("%s{\"name\": \"%s\", \"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", r.metrics[i].name.c_str(),
                r.metrics[i].value, r.metrics[i].unit.c_str());
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) return usage("bad arguments");
  const bool engine = options.workload == "explore" ||
                      options.workload == "revisit" ||
                      options.workload == "churn";
  if (!engine && options.workload != "cluster")
    return usage("unknown or missing --workload");
  try {
    const Result r = engine ? stash::bench::run_engine_workload(options)
                            : stash::bench::run_cluster_workload(options);
    print_result(options, r);
    return r.oracle_ok && r.trace_digest_ok && r.failed == 0 ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_stash: %s\n", e.what());
    return 1;
  }
}
