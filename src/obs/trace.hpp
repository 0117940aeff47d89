// Observability: per-query span tracing (Dapper-style).
//
// Every query the cluster runs becomes a tree of TraceSpans recorded
// against the *simulated* clock: root "query" span, "plan"/"scatter"/
// "merge" stages, one "subquery" span per scattered partition, one
// "attempt" span per (re)try — including failovers and reroutes — and a
// "serve" span with cache-probe / disk / roll-up / merge children on the
// node that executed it.  Because spans carry virtual timestamps, the
// same seed + workload yields a byte-identical trace export, so traces
// are assertable in tests, diffable across commits, and safe to check in
// as goldens.
//
// Span invariants the cluster instrumentation maintains (tests rely on
// them): root spans [submitted_at, completed_at]; "scatter" ends exactly
// where "merge" begins, and merge ends with the root — so
// scatter.duration + merge.duration == QueryStats::latency().  "serve"
// child spans partition the service time exactly.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"
#include "sim/clock.hpp"

namespace stash::obs {

using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = std::numeric_limits<SpanId>::max();

struct TraceSpan {
  SpanId id = 0;
  SpanId parent = kNoSpan;  // kNoSpan for the root
  std::string name;
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  /// Key/value annotations in insertion order (deterministic).
  std::vector<std::pair<std::string, std::string>> tags;

  [[nodiscard]] sim::SimTime duration() const noexcept { return end - start; }
};

struct Trace {
  std::uint64_t query_id = 0;
  /// spans[i].id == i; spans[0] is the root.
  std::vector<TraceSpan> spans;
};

/// Records traces into a bounded ring: when `capacity` traces are
/// retained, starting a new one evicts the oldest.  Every operation on an
/// unknown (evicted, or never-started because tracing is disabled)
/// query id is a safe no-op, so instrumentation never has to check
/// whether its trace is still alive — important under 10k-query bursts
/// with a small ring.
class Tracer {
 public:
  explicit Tracer(bool enabled = true, std::size_t capacity = 256);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a trace and its root span; returns the root SpanId (kNoSpan
  /// when disabled).  Restarting an id drops the previous trace.
  SpanId start_trace(std::uint64_t query_id, std::string_view name,
                     sim::SimTime now);
  SpanId start_span(std::uint64_t query_id, SpanId parent,
                    std::string_view name, sim::SimTime now);
  /// Records a span that is already finished (start and end known).
  SpanId record_span(std::uint64_t query_id, SpanId parent,
                     std::string_view name, sim::SimTime start,
                     sim::SimTime end);
  void end_span(std::uint64_t query_id, SpanId span, sim::SimTime now);
  void tag(std::uint64_t query_id, SpanId span, std::string_view key,
           std::string_view value);

  [[nodiscard]] std::optional<Trace> find(std::uint64_t query_id) const;
  /// Retained query ids, oldest first.
  [[nodiscard]] std::vector<std::uint64_t> query_ids() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  bool enabled_;
  std::size_t capacity_;
  mutable Mutex mutex_;
  std::deque<std::uint64_t> order_ STASH_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, Trace> traces_ STASH_GUARDED_BY(mutex_);
};

/// Compact deterministic JSON, schema "stash-trace-v1".
[[nodiscard]] std::string to_json(const Trace& trace);

/// Human-readable span tree (stashctl --trace, examples/chaos):
///   query #7 [0..5400us] 5400us
///     scatter [0..4100us] 4100us
///       subquery 9q [0..4100us] ok ...
[[nodiscard]] std::string render_tree(const Trace& trace);

}  // namespace stash::obs
