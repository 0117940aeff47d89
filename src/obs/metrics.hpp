// Observability: named metrics with Prometheus-style exposition.
//
// The paper's whole evaluation (§VI) is latency/throughput/overhead
// curves, so the reproduction needs first-class instrumentation rather
// than ad-hoc counter structs.  A MetricsRegistry owns named counters,
// gauges, and fixed-bucket histograms:
//
//   * increments are lock-free (relaxed atomics) — safe on the hot query
//     path and from the worker threads of the wall-clock engine;
//   * registration and snapshot/export take the registry mutex — cold
//     paths only;
//   * exports are deterministic: metrics are emitted in sorted name
//     order, so equal runs produce byte-identical text/JSON.
//
// Naming follows the Prometheus convention: `stash_<noun>_total` for
// counters, `stash_<noun>` for gauges, `stash_<noun>_us` for latency
// histograms (values in simulated microseconds).
//
// stash-lint: allow-file(raw-atomic) -- metric cells are monotonic
// counters with no cross-location ordering to verify; instrumenting them
// would put the checker inside every hot-path increment for no coverage.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "sim/clock.hpp"

namespace stash::obs {

/// Monotonic event count.  Lock-free.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value that can move both ways.  Lock-free.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram (Prometheus semantics: `upper_bounds` are the
/// inclusive `le` bucket edges; an implicit +Inf bucket catches the rest).
/// Observations are lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  [[nodiscard]] const std::vector<double>& upper_bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Per-bucket (non-cumulative) counts; the final entry is the +Inf bucket.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// The default latency buckets (µs): 100us .. 10s, roughly 1-2-5 spaced.
[[nodiscard]] std::vector<double> latency_buckets_us();

enum class MetricKind { Counter, Gauge };

struct ScalarSnapshot {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::Counter;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  std::string help;
  std::vector<double> upper_bounds;
  /// Cumulative counts per bucket, Prometheus-style; the final entry is
  /// the +Inf bucket and equals `count`.
  std::vector<std::uint64_t> cumulative;
  double sum = 0.0;
  std::uint64_t count = 0;
};

struct MetricsSnapshot {
  std::vector<ScalarSnapshot> scalars;        // sorted by name
  std::vector<HistogramSnapshot> histograms;  // sorted by name
};

/// Owns metrics by name.  Registration is idempotent: asking for an
/// existing name returns the same instance (a name registered as a
/// different type throws std::invalid_argument).  Returned references
/// stay valid for the registry's lifetime — hot paths hold them and never
/// re-enter the lock.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& help);
  Gauge& gauge(const std::string& name, const std::string& help);
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> upper_bounds);
  /// A metric computed at snapshot time (e.g. summed over per-node state).
  void callback(const std::string& name, const std::string& help,
                MetricKind kind, std::function<double()> fn);

  /// Consistent read of every registered metric, sorted by name.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Entry {
    std::string help;
    MetricKind kind = MetricKind::Counter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> fn;
  };

  mutable Mutex mutex_;
  std::map<std::string, Entry> entries_ STASH_GUARDED_BY(mutex_);
};

/// Prometheus text exposition format (HELP/TYPE + samples).
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snapshot);

/// JSON export, schema "stash-metrics-v1" — the payload bench figures and
/// the CI metrics lane consume (see tools/metrics_schema.json).
[[nodiscard]] std::string to_json(const MetricsSnapshot& snapshot,
                                  sim::SimTime sim_time);

}  // namespace stash::obs
