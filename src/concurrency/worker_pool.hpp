// WorkerPool: real threads fed through per-worker MpmcRings, with work
// stealing and a WakeupGate park/wake protocol (DESIGN.md §13).
//
// Topology: each worker owns one bounded MpmcRing; submit() places tasks
// round-robin and wakes the gate.  A worker drains its own ring first,
// then sweeps the other rings (a successful foreign pop counts as a
// steal), then spins briefly, then parks on the gate using the
// prepare/re-check/commit protocol proven in tests/mc/.
//
// Robustness contract (DESIGN.md §14):
//   * try_submit() is the shed path: one bounded sweep, refusal counted,
//     the task handed back untouched.
//   * submit() backpressure is bounded-spin-then-park on a second gate
//     that workers kick after every pop — never an unbounded yield loop.
//     During shutdown a blocked submitter runs its task inline instead of
//     hanging (the no-silently-dropped-task contract holds either way).
//   * A throwing task is quarantined: counted in task_exceptions, the
//     worker thread survives.  Exceptions never escape run().
//   * A heartbeat watchdog (optional, needs an injected time source)
//     samples per-worker progress counters and counts a stall whenever a
//     worker's heartbeat freezes across a full interval while its ring
//     still holds work — then kicks the gate so peers steal the backlog.
//   * Shutdown is drain (default: workers run every queued task before
//     exiting) or abandon (queued payloads are destroyed by the ring
//     destructors, never run) — Config::drain_on_shutdown.
//   * The destructor synchronises with in-flight submitters (inflight
//     count) so destroying the pool while a submitter is parked on
//     backpressure neither hangs nor races.
//
// The pool itself is *not* model-checked (it owns std::threads and runs
// arbitrary std::function payloads); its building blocks — MpmcRing,
// WakeupGate and CancellationToken — are.  It therefore lives in the
// outer namespace, not the inline personality namespaces, and must not be
// included from STASH_MODEL_CHECK translation units.
//
// stash-lint: lock-free-file
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "concurrency/catomic.hpp"
#include "concurrency/mpmc_ring.hpp"
#include "concurrency/wakeup_gate.hpp"

namespace stash::concurrency {

/// Worker-count policy: an explicit configuration (> 0) wins verbatim;
/// otherwise fall back to the hardware hint, which the standard allows to
/// be 0 ("not computable") — the result is always >= 1.
[[nodiscard]] std::size_t resolve_worker_count(std::size_t configured,
                                               unsigned hardware_hint);

/// Same, with hint = std::thread::hardware_concurrency().
[[nodiscard]] std::size_t resolve_worker_count(std::size_t configured);

/// Activity counters (racy snapshot — monitoring only).  The first five
/// are per-worker; the pool-level ones (submit/watchdog) are zero in
/// worker_stats(i) and folded into total_stats().
struct WorkerStats {
  std::uint64_t executed = 0;         // tasks run (own ring + stolen)
  std::uint64_t stolen = 0;           // tasks popped from another worker's ring
  std::uint64_t parks = 0;            // times the worker committed to sleep
  std::uint64_t wakeups = 0;          // times the worker returned from a park
  std::uint64_t task_exceptions = 0;  // tasks that threw (quarantined)
  std::uint64_t submit_shed = 0;      // try_submit refusals (pool-level)
  std::uint64_t submit_blocked = 0;   // submit() backpressure parks (pool-level)
  std::uint64_t watchdog_stalls = 0;  // frozen-heartbeat detections (pool-level)

  WorkerStats& operator+=(const WorkerStats& other) noexcept {
    executed += other.executed;
    stolen += other.stolen;
    parks += other.parks;
    wakeups += other.wakeups;
    task_exceptions += other.task_exceptions;
    submit_shed += other.submit_shed;
    submit_blocked += other.submit_blocked;
    watchdog_stalls += other.watchdog_stalls;
    return *this;
  }
};

class WorkerPool {
 public:
  using Task = std::function<void()>;

  struct Config {
    /// 0 = resolve from hardware_concurrency (always >= 1).
    std::size_t threads = 0;
    /// Per-worker ring capacity; power of two >= 2.
    std::size_t queue_capacity = 256;
    /// true: shutdown runs every queued task before workers exit.
    /// false: queued payloads are destroyed unrun (ring-drain destructor
    /// contract), for callers whose tasks are pointless after teardown.
    bool drain_on_shutdown = true;
    /// Stuck-worker watchdog sampling interval; 0 disables.  Requires
    /// now_ns.  A worker whose heartbeat is frozen across a whole
    /// interval while its own ring is non-empty counts one stall per
    /// frozen interval and forces a gate wake so peers steal its backlog.
    std::uint64_t watchdog_interval_ns = 0;
    /// Monotonic host-time source for the watchdog (exec::host_now_ns in
    /// production, a fake in tests).  The pool itself never reads a clock
    /// directly — determinism stays injectable.
    std::function<std::uint64_t()> now_ns;
  };

  explicit WorkerPool(Config config);
  /// Stops accepting work, drains or abandons the rings per
  /// Config::drain_on_shutdown, waits out in-flight submitters, joins.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueue a task.  When every ring is full the submitter spins a
  /// bounded number of sweeps, then parks on the backpressure gate until
  /// a worker frees a slot (counted in submit_blocked).  If the pool is
  /// shutting down, the task runs inline on the calling thread instead —
  /// submit() never silently drops work and never blocks forever.
  void submit(Task task);

  /// Shed path: one sweep over the rings.  On failure the pool counts a
  /// shed, leaves `task` untouched, and returns false — the caller keeps
  /// ownership and decides (run inline, degrade, drop).  Also fails (and
  /// counts) when the pool is stopping.
  [[nodiscard]] bool try_submit(Task& task);

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// Total queued-but-unexecuted tasks (racy; never exceeds
  /// worker_count() * queue_capacity thanks to size_approx()'s clamp).
  [[nodiscard]] std::size_t queue_depth() const;

  /// One ring's depth (racy; clamped to queue_capacity by size_approx()).
  [[nodiscard]] std::size_t worker_queue_depth(std::size_t index) const;

  [[nodiscard]] WorkerStats worker_stats(std::size_t index) const;
  /// Per-worker sums plus the pool-level counters.
  [[nodiscard]] WorkerStats total_stats() const;

  /// A worker's progress counter (monitoring/test hook; racy).
  [[nodiscard]] std::uint64_t worker_heartbeat(std::size_t index) const;

 private:
  struct Worker {
    explicit Worker(std::size_t ring_capacity)
        : ring(ring_capacity),
          executed(0, "worker.executed"),
          stolen(0, "worker.stolen"),
          parks(0, "worker.parks"),
          wakeups(0, "worker.wakeups"),
          task_exceptions(0, "worker.task_exceptions"),
          heartbeat(0, "worker.heartbeat") {}

    MpmcRing<Task> ring;
    catomic<std::uint64_t> executed;
    catomic<std::uint64_t> stolen;
    catomic<std::uint64_t> parks;
    catomic<std::uint64_t> wakeups;
    catomic<std::uint64_t> task_exceptions;
    /// Bumped on every task completion and every park/wake transition;
    /// frozen exactly when the worker is wedged (in a task or lost).
    catomic<std::uint64_t> heartbeat;
    std::thread thread;
  };

  void run(std::size_t index);
  void watchdog_run();
  /// Pop-and-run one task: own ring first, then a steal sweep.
  bool try_execute_one(std::size_t index);
  /// One round-robin try_push sweep; wakes the gate on success.
  bool push_sweep(Task& task);
  /// Runs a task with the quarantine guard (exceptions counted, eaten).
  void execute(Worker& self, Task& task);

  std::vector<std::unique_ptr<Worker>> workers_;
  WakeupGate gate_;        // workers park here when idle
  WakeupGate space_gate_;  // submitters park here when every ring is full
  catomic<std::uint32_t> stop_;
  catomic<std::uint64_t> next_ring_;  // round-robin submit cursor
  catomic<std::uint32_t> inflight_submits_;
  catomic<std::uint64_t> submit_shed_;
  catomic<std::uint64_t> submit_blocked_;
  catomic<std::uint64_t> watchdog_stalls_;
  bool drain_on_shutdown_;
  std::uint64_t watchdog_interval_ns_;
  std::function<std::uint64_t()> now_ns_;
  std::thread watchdog_;
};

}  // namespace stash::concurrency
