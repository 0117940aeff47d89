// Shared plumbing of bench_stash: run options, host timing, the span log
// a traced run records, and the result a workload hands back to main().
//
// Every layer is measured from outside, by timing calls into the
// library's public functions; nothing here reaches into src/ internals.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/checksum.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "exec/host_clock.hpp"
#include "storage/galileo_store.hpp"

namespace stash::bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measurement budget: passes (or cluster round cycles) keep starting
  /// until this much host time has gone by.
  double seconds = 20.0;
  /// One tiny pass (two cluster rounds) with every correctness check.
  bool smoke = false;
  /// Set: a traced run, reporting per-layer metrics instead of end-to-end
  /// ones and writing spans of its first traced pass here.
  std::string trace_path;

  [[nodiscard]] bool traced() const noexcept { return !trace_path.empty(); }
};

/// Host monotonic time in nanoseconds (the library's one host clock).
inline std::uint64_t now_ns() noexcept { return exec::host_now_ns(); }

inline double seconds_between(std::uint64_t t0, std::uint64_t t1) noexcept {
  return static_cast<double>(t1 - t0) / 1e9;
}

/// Latency samples an untraced run collects at the least, budget or not
/// (p99_ms then has at least 30 samples beyond it).
inline constexpr std::size_t kMinSamples = 3000;

/// The measurement budget of one run.  Another unit of work (a pass, or
/// a cycle of cluster rounds) starts only while one more unit as long as
/// the last still fits, so a run ends near --seconds instead of a whole
/// unit past it.  A smoke run has no budget: one unit.
class Budget {
 public:
  explicit Budget(const Options& options)
      : seconds_(options.smoke ? 0.0 : options.seconds) {}

  /// Call once after each unit: may another one start?
  [[nodiscard]] bool another() noexcept {
    const std::uint64_t now = now_ns();
    const double unit = seconds_between(last_, now);
    last_ = now;
    return seconds_between(start_, now) + unit <= seconds_;
  }

 private:
  double seconds_;
  std::uint64_t start_ = now_ns();
  std::uint64_t last_ = start_;
};

/// Seed of one input stream: distinct per workload and per purpose, so
/// adding a stream never shifts another one's inputs.
inline std::uint64_t stream_seed(std::uint64_t seed, std::string_view stream) {
  std::uint64_t h = mix64(seed);
  hash_combine(h, fnv1a(stream));
  return h;
}

/// `n` distinct indices of [0, size), drawn by `rng` (partial shuffle).
inline std::vector<std::size_t> pick_distinct(std::size_t n, std::size_t size,
                                              Rng& rng) {
  if (n > size) throw std::logic_error("pick_distinct: not enough items");
  std::vector<std::size_t> items(size);
  for (std::size_t i = 0; i < size; ++i) items[i] = i;
  for (std::size_t i = 0; i < n; ++i)
    std::swap(items[i], items[i + rng.next_below(size - i)]);
  items.resize(n);
  return items;
}

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// a / b, or 0 when nothing was measured.
inline double ratio(double a, double b) noexcept { return b == 0.0 ? 0.0 : a / b; }

/// Digest of one answer chained from `seed`: every cell key and every
/// attribute statistic bit for bit, like exec::answer_digest, but summed
/// over cells order-independently, so it needs no sort and costs a small
/// fraction of the evaluate call it checks.
inline std::uint64_t answer_digest(const CellSummaryMap& cells, std::uint64_t seed) {
  std::uint64_t sum = 0;
  for (const auto& [key, summary] : cells) {
    Checksum64 h;
    h.mix(key.spatial).mix(key.temporal);
    for (const AttributeSummary& a : summary.attributes())
      h.mix(a.count)
          .mix(std::bit_cast<std::uint64_t>(a.min))
          .mix(std::bit_cast<std::uint64_t>(a.max))
          .mix(std::bit_cast<std::uint64_t>(a.sum))
          .mix(std::bit_cast<std::uint64_t>(a.sum_sq));
    sum += h.digest();
  }
  return Checksum64(seed).mix(sum).mix(cells.size()).digest();
}

/// getrusage max resident set size of this process, in MiB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- spans ---------------------------------------------------------------

struct SpanCount {
  const char* key = nullptr;
  std::uint64_t value = 0;
};

/// One timed call.  Spans of one query share `query`; `parent` names the
/// span whose work this call replays or belongs to (0 = none).
struct Span {
  std::uint64_t query = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  const char* name = "";
  const char* label = "";
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::array<SpanCount, 3> counts{};

  [[nodiscard]] std::uint64_t ns() const noexcept { return t1_ns - t0_ns; }
  [[nodiscard]] std::uint64_t count(std::string_view key) const noexcept {
    for (const SpanCount& c : counts)
      if (c.key != nullptr && key == c.key) return c.value;
    return 0;
  }
};

/// Spans of one traced pass, kept in memory; ids start at 1 and equal
/// index + 1, so a parent lookup is an index.
class SpanLog {
 public:
  std::uint32_t add(std::uint64_t query, std::uint32_t parent,
                    const char* name, std::uint64_t t0, std::uint64_t t1,
                    std::initializer_list<SpanCount> counts = {},
                    const char* label = "") {
    if (counts.size() > 3) throw std::logic_error("SpanLog: too many counts");
    Span span;
    span.query = query;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.name = name;
    span.label = label;
    span.t0_ns = t0;
    span.t1_ns = t1;
    std::copy(counts.begin(), counts.end(), span.counts.begin());
    spans_.push_back(span);
    return span.id;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  void clear() { spans_.clear(); }

  /// Host time of each span's children, indexed by span id - 1.  A
  /// span's self time is its duration minus this.
  [[nodiscard]] std::vector<std::uint64_t> child_ns() const {
    std::vector<std::uint64_t> out(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent != 0) out[s.parent - 1] += s.ns();
    return out;
  }

  /// Writes {"spans": [...]}, one span object per line, keeping the
  /// spans of queries 0 (phase spans) to `max_query`; a whole engine pass
  /// runs to 10^5-10^6 spans, more than anyone reads.
  [[nodiscard]] bool write_json(const std::string& path,
                                std::uint64_t max_query) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"spans\": [\n");
    const char* sep = "";
    for (const Span& s : spans_) {
      if (s.query > max_query) continue;
      std::fprintf(out,
                   "%s{\"query\": %llu, \"id\": %u, \"parent\": %u, "
                   "\"name\": \"%s\", \"label\": \"%s\", \"t0_ns\": %llu, "
                   "\"t1_ns\": %llu, \"counts\": {",
                   sep, static_cast<unsigned long long>(s.query), s.id, s.parent,
                   s.name, s.label, static_cast<unsigned long long>(s.t0_ns),
                   static_cast<unsigned long long>(s.t1_ns));
      const char* count_sep = "";
      for (const SpanCount& c : s.counts) {
        if (c.key == nullptr) continue;
        std::fprintf(out, "%s\"%s\": %llu", count_sep, c.key,
                     static_cast<unsigned long long>(c.value));
        count_sep = ", ";
      }
      std::fprintf(out, "}}");
      sep = ",\n";
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
  }

 private:
  std::vector<Span> spans_;
};

// --- results -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::size_t threads = 0;    // exec worker threads the workload runs
  std::size_t passes = 0;     // engine passes, or cluster rounds
  std::size_t attempted = 0;  // queries (cluster: plus one rebalance per round)
  std::size_t failed = 0;
  std::size_t samples = 0;    // latency samples behind p50_ms / p99_ms
  /// Every pass answered exactly like the sequential oracle.
  bool oracle_ok = false;
  /// Traced passes answered exactly like their untraced twins.
  bool trace_digest_ok = true;
  /// Oracle answer digest of the whole workload (pinned per seed).
  std::uint64_t digest = 0;
  std::vector<Metric> metrics;
};

/// The end-to-end metrics every workload reports (--trace 0).
inline void add_end_to_end(Result& r, const std::vector<double>& pass_qps,
                           const std::vector<double>& latencies_ms,
                           const std::vector<double>& setups_s) {
  r.samples = latencies_ms.size();
  r.metrics.push_back({"qps", median(pass_qps), "1/s"});
  r.metrics.push_back({"p50_ms", quantile(latencies_ms, 0.50), "ms"});
  r.metrics.push_back({"p99_ms", quantile(latencies_ms, 0.99), "ms"});
  r.metrics.push_back({"setup_s", median(setups_s), "s"});
  r.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
}

/// Every per-layer metric (--trace 1), in report order.  Each workload
/// reports all of them; a layer the workload does not cross reads 0.
/// "count/pass" is per engine pass or per cluster round.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
inline constexpr LayerMetricSpec kLayerMetrics[] = {
    {"exec.parallel_speedup", "x"},
    {"exec.chunks_per_query", "count"},
    {"concurrency.stolen", "count/pass"},
    {"concurrency.parks", "count/pass"},
    {"concurrency.wakeups", "count/pass"},
    {"concurrency.submit_shed", "count/pass"},
    {"core.plan_us", "us"},
    {"core.chunk_cache_us", "us"},
    {"core.chunk_synth_us", "us"},
    {"core.chunk_scan_self_us", "us"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.synth_ratio", "ratio"},
    {"core.scan_ratio", "ratio"},
    {"core.absorb_ns_per_cell", "ns"},
    {"core.cells_absorbed", "count/pass"},
    {"core.freshness_touches", "count/pass"},
    {"core.cells_evicted", "count/pass"},
    {"core.chunks_invalidated", "count/pass"},
    {"storage.scan_ns_per_record", "ns"},
    {"storage.bin_ns_per_record", "ns"},
    {"model.generate_ns_per_record", "ns"},
    {"storage.records_scanned", "count/pass"},
    {"storage.blocks_touched", "count/pass"},
    {"costmodel.scan_ratio", "ratio"},
    {"costmodel.cache_probe_ratio", "ratio"},
    {"costmodel.cell_insert_ratio", "ratio"},
    {"cluster.burst_us_per_query", "us"},
    {"cluster.rebalance_ms", "ms"},
    {"cluster.recovery_ms", "ms"},
    {"cluster.session_us", "us"},
    {"sim.events", "count/pass"},
    {"sim.host_ns_per_event", "ns"},
    {"cluster.subqueries", "count/pass"},
    {"cluster.reroutes", "count/pass"},
    {"cluster.handoffs", "count/pass"},
    {"cluster.cells_replicated", "count/pass"},
    {"cluster.partitions_moved", "count/pass"},
    {"cluster.chunks_rewarmed", "count/pass"},
    {"cluster.sim_p50_ms", "ms"},
    {"cluster.sim_p99_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

using LayerValues = std::map<std::string, double, std::less<>>;

/// Appends every per-layer metric in report order; names a workload set
/// that are not in kLayerMetrics are a bench bug.
inline void add_per_layer(Result& r, const LayerValues& values) {
  std::size_t used = 0;
  for (const LayerMetricSpec& spec : kLayerMetrics) {
    const auto it = values.find(spec.name);
    if (it != values.end()) ++used;
    r.metrics.push_back(
        {spec.name, it == values.end() ? 0.0 : it->second, spec.unit});
  }
  if (used != values.size())
    throw std::logic_error("bench_stash: unknown per-layer metric");
}

/// The two workload families (engine_workloads.cpp, cluster_workload.cpp).
[[nodiscard]] Result run_engine_workload(const Options& options);
[[nodiscard]] Result run_cluster_workload(const Options& options);

}  // namespace stash::bench
