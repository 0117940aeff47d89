// Thread-level fault injection for the wall-clock datapath — the real-
// thread counterpart of sim::FaultPlan (DESIGN.md §14).
//
// Three fault kinds, mirroring what actually goes wrong in a thread pool:
//
//   * task delay      — a chunk task burns extra CPU before running
//                       (scheduling jitter, cold caches, page faults),
//   * task exception  — a chunk task throws InjectedFault (the quarantine
//                       path: counted, chunk flagged, pool survives),
//   * worker stall    — a chunk task wedges long enough to freeze its
//                       worker's heartbeat (the watchdog's prey).
//
// Determinism: every decision is a pure function of (seed, task sequence
// number) via splitmix64 — no shared RNG state, so the same plan injects
// the same faults at the same tasks regardless of thread count, ring
// placement, or OS scheduling.  Each batch reserves one range of task
// sequence numbers on its (single-threaded) submit path and chunk i of
// the batch's canonical order draws first + i, whichever thread claims
// it, so the numbers are reproducible run to run.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace stash::exec {

/// Thrown by an injected task-exception fault.  Deliberately a distinct
/// type so tests can tell injected failures from real engine errors.
struct InjectedFault : std::runtime_error {
  explicit InjectedFault(std::uint64_t task_seq)
      : std::runtime_error("exec: injected task fault (task #" +
                           std::to_string(task_seq) + ")") {}
};

/// Seeded fault plan for one ParallelQueryEngine.  All-zero rates (the
/// default) means the hooks are completely inert.
struct FaultHooks {
  std::uint64_t seed = 0;

  /// P(chunk task burns task_delay_spins of busy work first).
  double task_delay_rate = 0.0;
  std::uint32_t task_delay_spins = 20'000;

  /// P(chunk task throws InjectedFault instead of evaluating).
  double task_exception_rate = 0.0;

  /// P(chunk task wedges for worker_stall_spins — long enough that the
  /// worker's heartbeat freezes across a watchdog interval).
  double worker_stall_rate = 0.0;
  std::uint32_t worker_stall_spins = 5'000'000;

  [[nodiscard]] bool enabled() const noexcept {
    return task_delay_rate > 0.0 || task_exception_rate > 0.0 ||
           worker_stall_rate > 0.0;
  }
};

/// What the plan injects into one task.  At most one fault fires per task
/// (exception > stall > delay precedence) so rates stay interpretable.
struct FaultDecision {
  bool throw_exception = false;
  bool stall = false;
  bool delay = false;
};

namespace detail {

[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from (seed, task_seq, salt) — platform-stable.
[[nodiscard]] constexpr double fault_draw(std::uint64_t seed,
                                          std::uint64_t task_seq,
                                          std::uint64_t salt) noexcept {
  const std::uint64_t h = splitmix64(seed ^ splitmix64(task_seq + salt));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace detail

/// The (pure) injection decision for task number `task_seq`.
[[nodiscard]] inline FaultDecision fault_decision(
    const FaultHooks& hooks, std::uint64_t task_seq) noexcept {
  FaultDecision d;
  if (!hooks.enabled()) return d;
  if (detail::fault_draw(hooks.seed, task_seq, 0x1ull) <
      hooks.task_exception_rate) {
    d.throw_exception = true;
    return d;
  }
  if (detail::fault_draw(hooks.seed, task_seq, 0x2ull) <
      hooks.worker_stall_rate) {
    d.stall = true;
    return d;
  }
  if (detail::fault_draw(hooks.seed, task_seq, 0x3ull) <
      hooks.task_delay_rate) {
    d.delay = true;
  }
  return d;
}

/// Deterministic CPU burn the optimiser cannot elide — the "wedged
/// worker" primitive for stall/delay injection.
inline void fault_busy_spin(std::uint32_t spins) noexcept {
  volatile std::uint64_t sink = 0;
  for (std::uint32_t i = 0; i < spins; ++i) sink = sink + i;
}

}  // namespace stash::exec
