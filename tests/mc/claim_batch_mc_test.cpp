// Model-check of the exec engine's claim protocol (DESIGN.md §13.1).
//
// ParallelQueryEngine::run_batch lays a query's chunks behind a claim
// cursor, queues at most one helper per worker, and claims chunks on the
// submitting thread too.  `remaining` counts the chunks not yet landed
// plus the helpers still in the pool; every claimer lands its chunks (and
// a helper itself) with one release fetch_sub, and the thread that takes
// it to 0 wakes the submitter through the batch's WakeupGate.  The engine
// owns std::threads and the WorkerPool, so it cannot run under the
// checker; this file models the same protocol on the same primitives
// (catomic cursor and counter, WakeupGate, var<> outcome slots) with a
// submitter and two helpers over three chunks, and asserts:
//
//   * every chunk runs exactly once;
//   * the submitter reads an outcome only after its acquire of
//     remaining == 0 (a premature read is a data race on the var slot);
//   * no helper touches the batch's claim state after the submitter's
//     untimed return (the submitter's teardown write would race with, or
//     be seen by, the helper's next claim).
//
// The broken twins prove the checker has teeth: a helper that lands with
// a relaxed fetch_sub publishes nothing, and a helper missing from
// `remaining` can still be claiming when the submitter tears the batch
// down.  Both must be caught and must replay from their schedule token.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "concurrency/catomic.hpp"
#include "concurrency/wakeup_gate.hpp"
#include "mc/model_checker.hpp"

namespace stash {
namespace {

using concurrency::catomic;
using concurrency::var;
using concurrency::WakeupGate;

constexpr std::uint64_t kChunks = 3;
constexpr std::uint64_t kHelpers = 2;

enum class Variant {
  Correct,
  RelaxedLand,      // helpers land with a relaxed fetch_sub
  UncountedHelper,  // helpers are not counted in `remaining`
};

mc::Options claim_opts() {
  mc::Options o;
  o.preemption_bound = 2;
  o.max_executions = 400000;
  o.max_steps = 5000;
  return o;
}

struct ClaimBatch {
  explicit ClaimBatch(Variant v)
      : variant(v),
        remaining(kChunks + (v == Variant::UncountedHelper ? 0 : kHelpers),
                  "mc.claim.remaining") {}

  /// Claim → run until the cursor passes the last chunk; returns the
  /// number of chunks this thread ran.
  std::uint64_t run_claims(std::uint32_t who) {
    std::uint64_t ran = 0;
    for (;;) {
      MC_ASSERT_MSG(!torn_down.load(),
                    "a helper claimed after the submitter returned");
      const std::uint64_t index = cursor.fetch_add(1);
      if (index >= kChunks) return ran;
      runs[index].store(runs[index].load() + 1);
      outcome[index].store(who);
      ++ran;
    }
  }

  void land(std::uint64_t count, std::memory_order order) {
    if (count != 0 && remaining.fetch_sub(count, order) == count)
      done.notify_all();
  }

  void helper(std::uint32_t who) {
    const std::uint64_t ran = run_claims(who);
    if (variant == Variant::UncountedHelper) {
      land(ran, std::memory_order_release);  // BUG: itself not counted
    } else if (variant == Variant::RelaxedLand) {
      land(ran + 1, std::memory_order_relaxed);  // BUG: should be release
    } else {
      land(ran + 1, std::memory_order_release);
    }
  }

  /// The submitter's share plus its untimed wait.  Under the checker a
  /// park is a bounded poll (commit_wait_until with a step-count expiry),
  /// so a submitter that polls out without seeing 0 records `parked` —
  /// the real one would still be waiting — and never returns.
  void submitter() {
    land(run_claims(kSubmitter), std::memory_order_release);
    for (int round = 0; round < 3; ++round) {
      if (remaining.load(std::memory_order_acquire) == 0) return collect();
      const WakeupGate::Ticket ticket = done.prepare_wait();
      if (remaining.load(std::memory_order_acquire) == 0) {
        done.cancel_wait();
        return collect();
      }
      int polls = 0;
      (void)done.commit_wait_until(ticket, [&polls] { return ++polls > 1; });
    }
    parked = true;
  }

  /// The fan-in, then teardown: after this the batch is the caller's.
  void collect() {
    for (std::uint64_t i = 0; i < kChunks; ++i)
      MC_ASSERT_MSG(outcome[i].load() != kUnrun,
                    "submitter returned with a chunk unlanded");
    torn_down.store(true);
    returned = true;
  }

  static constexpr std::uint32_t kUnrun = 0;
  static constexpr std::uint32_t kSubmitter = 1;

  const Variant variant;
  catomic<std::uint64_t> cursor{0, "mc.claim.cursor"};
  catomic<std::uint64_t> remaining;
  WakeupGate done;
  std::array<var<std::uint32_t>, kChunks> outcome{
      var<std::uint32_t>{kUnrun, "mc.claim.outcome0"},
      var<std::uint32_t>{kUnrun, "mc.claim.outcome1"},
      var<std::uint32_t>{kUnrun, "mc.claim.outcome2"}};
  std::array<var<std::uint32_t>, kChunks> runs{
      var<std::uint32_t>{0, "mc.claim.runs0"},
      var<std::uint32_t>{0, "mc.claim.runs1"},
      var<std::uint32_t>{0, "mc.claim.runs2"}};
  var<bool> torn_down{false, "mc.claim.torn_down"};
  bool returned = false;  // submitter-only, read in finally
  bool parked = false;
};

std::function<mc::Execution()> claim_scenario(Variant variant) {
  return [variant] {
    auto st = std::make_shared<ClaimBatch>(variant);
    mc::Execution e;
    e.threads.push_back([st] { st->submitter(); });
    for (std::uint32_t h = 0; h < kHelpers; ++h) {
      const std::uint32_t who = ClaimBatch::kSubmitter + 1 + h;
      e.threads.push_back([st, who] { st->helper(who); });
    }
    e.finally = [st] {
      MC_ASSERT_MSG(st->returned != st->parked,
                    "submitter neither returned nor parked");
      for (std::uint64_t i = 0; i < kChunks; ++i)
        MC_ASSERT_MSG(st->runs[i].load() == 1,
                      "chunk " + std::to_string(i) + " ran " +
                          std::to_string(st->runs[i].load()) + " times");
      MC_ASSERT_MSG(st->remaining.load(std::memory_order_seq_cst) == 0,
                    "remaining did not drain to 0");
      MC_ASSERT_MSG(st->done.waiters_approx() == 0,
                    "the submitter's wait leaked a gate slot");
    };
    return e;
  };
}

TEST(ModelCheckClaimBatchTest, EveryChunkOnceAndNoHelperOutlivesTheBatch) {
  const mc::Result r = mc::ModelChecker(claim_opts()).run(
      claim_scenario(Variant::Correct));
  EXPECT_FALSE(r.bug_found) << r.bug << "\n" << r.trace;
  EXPECT_TRUE(r.complete) << "executions=" << r.executions;
  EXPECT_GT(r.executions, 1u);
}

void expect_caught_and_replays(Variant variant, const std::string& what) {
  const auto make = claim_scenario(variant);
  const mc::Result r = mc::ModelChecker(claim_opts()).run(make);
  ASSERT_TRUE(r.bug_found) << "checker missed " << what;
  EXPECT_NE(r.bug.find("data race"), std::string::npos) << r.bug;
  const mc::Result replay = mc::ModelChecker::replay(make, r.schedule_string());
  ASSERT_TRUE(replay.bug_found) << r.schedule_string();
  EXPECT_EQ(replay.bug, r.bug);
  EXPECT_FALSE(replay.trace.empty());
}

TEST(ModelCheckClaimBatchTest, RelaxedLandIsCaughtAndReplays) {
  expect_caught_and_replays(Variant::RelaxedLand, "the relaxed land");
}

TEST(ModelCheckClaimBatchTest, UncountedHelperIsCaughtAndReplays) {
  expect_caught_and_replays(Variant::UncountedHelper,
                            "a helper missing from remaining");
}

}  // namespace
}  // namespace stash
