// Query evaluation strategy (paper §IV-D, §V-B).
//
// "Any subsequent query will be evaluated over the cached values first.
// Disk access is required only if (a) there are missing values for
// completing query evaluation, and (b) those missing values are not
// available by computing from the existing cached values."
//
// The engine realises that contract per chunk:
//   1. PLM says complete      -> serve from the graph (cache hit),
//   2. children levels resident -> synthesize by roll-up (no disk),
//   3. otherwise              -> scan only the missing days from Galileo.
// Fetched/synthesized Cells are returned for the background maintenance
// pass (absorb), which populates the graph "in a separate thread" (§VIII-C.2)
// so response latency excludes population cost (Fig 6c measures it).
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "core/graph.hpp"
#include "core/query.hpp"
#include "storage/galileo_store.hpp"

namespace stash {

enum class EvalMode {
  Basic,      // no cache at all: every chunk scans disk (the "no STASH" system)
  Cached,     // cache first, synthesis second, disk for the remainder
  CacheOnly,  // guest-graph mode: never touch disk; misses are reported
};

struct EvalBreakdown {
  std::size_t chunks_total = 0;
  std::size_t chunks_from_cache = 0;
  std::size_t chunks_synthesized = 0;
  std::size_t chunks_scanned = 0;
  std::size_t chunks_missing = 0;  // CacheOnly misses
  std::size_t cache_probes = 0;
  std::size_t cells_from_cache = 0;
  std::size_t cells_synthesized = 0;
  std::size_t cells_scanned = 0;
  std::size_t synthesis_merges = 0;
  ScanStats scan;

  EvalBreakdown& operator+=(const EvalBreakdown& other) noexcept;
};

struct Evaluation {
  CellSummaryMap cells;                    // the response payload
  EvalBreakdown breakdown;
  std::vector<ChunkContribution> fetched;  // for the maintenance pass
  std::vector<ChunkKey> touched_chunks;    // freshness region of this query
  /// Blocks that failed checksum verification during the disk path.  Their
  /// days are withheld from the response AND from `fetched` (so the PLM
  /// never marks them complete); the caller must flag the answer partial
  /// and schedule repair.
  std::vector<BlockKey> corrupt_blocks;

  /// Folds another partition's evaluation into this cross-partition
  /// total: breakdowns add, Cells merge, the rest is appended.
  void merge(Evaluation&& part);
};

/// A coarse answer assembled from a cached ancestor level when the exact
/// resolution cannot be served in time (overload shedding, deadline
/// pressure).  Correct at `served_res` — never partial, never stale-mixed:
/// a level is only used when the whole covering region is PLM-complete.
struct DegradedEvaluation {
  Evaluation eval;           // cells at served_res; breakdown is cache reads only
  Resolution served_res;     // the level actually served
  int coarsening_steps = 0;  // hierarchy distance from the requested level
  bool found = false;        // false: no PLM-complete ancestor region resident
};

struct MaintenanceStats {
  std::size_t cells_absorbed = 0;
  std::size_t freshness_updates = 0;
  std::size_t cells_evicted = 0;
};

/// Cooperative-cancellation probe for long evaluations.  The core engine
/// knows nothing about threads or tokens; the wall-clock executor passes
/// an adapter over concurrency::CancellationToken and evaluate_chunk
/// polls it between per-day cell scans — the unit below which giving up
/// saves nothing.  A chunk that observes cancellation returns early with
/// `ChunkEvalResult::cancelled` set and its partial output must be
/// discarded by the caller (a half-scanned chunk is not an honest answer).
class CancelProbe {
 public:
  virtual ~CancelProbe() = default;
  [[nodiscard]] virtual bool cancelled() const noexcept = 0;
};

/// Everything one chunk contributes to a partition evaluation, except the
/// response cells (those are appended straight into a caller-supplied map
/// so the sequential path keeps its exact insertion order).  This is the
/// unit the wall-clock executor shards across worker threads: chunks are
/// independent — a cell belongs to exactly one chunk at a given
/// resolution — so per-chunk results merge without cross-chunk summary
/// merges (src/exec/parallel_engine.cpp relies on that).
struct ChunkEvalResult {
  EvalBreakdown breakdown;  // deltas; scan.blocks_touched is finalized later
  std::optional<ChunkContribution> fetched;
  std::vector<BlockKey> corrupt_blocks;
  std::vector<std::int64_t> days_scanned;  // disk days, for seek accounting
  /// The CancelProbe fired mid-chunk: everything above is partial and
  /// must be discarded (cells already appended to out_cells included).
  bool cancelled = false;
};

class QueryEngine {
 public:
  QueryEngine(StashGraph& graph, const GalileoStore& store);

  /// The query contract every evaluation checks first: a valid query at a
  /// spatial resolution no coarser than the DHT partition prefix.  Throws
  /// std::invalid_argument.
  void validate(const AggregationQuery& query) const;

  /// Evaluates the part of `query` that falls inside one DHT partition —
  /// what a storage node executes for its subquery.
  [[nodiscard]] Evaluation evaluate_partition(std::string_view partition,
                                              const AggregationQuery& query,
                                              EvalMode mode = EvalMode::Cached) const;

  /// Degraded evaluation for one partition: walks the requested resolution
  /// and its ancestor levels nearest-first (BFS over parent_resolutions)
  /// and serves the first level whose covering chunks are all PLM-complete.
  /// Never touches disk — this is the overload escape hatch, so it must
  /// cost only cache probes and reads.  `found == false` when nothing
  /// resident can answer; coarsening never drops below the DHT partition
  /// prefix length (coarser Cells would span storage partitions).
  [[nodiscard]] DegradedEvaluation evaluate_degraded(
      std::string_view partition, const AggregationQuery& query) const;

  /// Whole-query evaluation across every partition the area touches
  /// (single-process / library use).
  [[nodiscard]] Evaluation evaluate(const AggregationQuery& query,
                                    EvalMode mode = EvalMode::Cached) const;

  /// Evaluates exactly one chunk of a partition subquery: the cache /
  /// synthesis / disk decision of §IV-D for that chunk.  Response cells
  /// are appended into `out_cells`; everything else comes back in the
  /// result.  `clipped` must be the query area already intersected with
  /// the partition box (see evaluate_partition).  Thread-safe for
  /// concurrent const use when no graph mutation runs — the wall-clock
  /// executor guards that with its RwSpinlock.  `cancel` (optional) is
  /// polled between per-day scans; see CancelProbe.
  [[nodiscard]] ChunkEvalResult evaluate_chunk(
      std::string_view partition, const AggregationQuery& query,
      const BoundingBox& clipped, const ChunkKey& chunk, EvalMode mode,
      CellSummaryMap& out_cells, const CancelProbe* cancel = nullptr) const;

  /// The canonical (prefix-major, bin-minor) chunk enumeration for a
  /// partition subquery, and the clipped box it applies to.  Sequential
  /// and wall-clock evaluation both follow this order, which is what
  /// makes their merged answers byte-identical.
  struct PartitionPlan {
    BoundingBox clipped;
    std::vector<ChunkKey> chunks;
    bool empty = true;  // partition does not intersect the query area
  };
  [[nodiscard]] PartitionPlan plan_partition(
      std::string_view partition, const AggregationQuery& query) const;

  /// Maintenance pass: absorbs fetched Cells into the graph, updates
  /// freshness with neighborhood dispersion, and evicts if over capacity.
  MaintenanceStats absorb(const Evaluation& eval, const Resolution& res,
                          sim::SimTime now);

  [[nodiscard]] StashGraph& graph() noexcept { return graph_; }
  [[nodiscard]] const GalileoStore& store() const noexcept { return store_; }

 private:
  /// Tries to roll the chunk up from a fully-resident child level;
  /// nullopt when no child level can cover it.
  [[nodiscard]] std::optional<ChunkContribution> synthesize(
      const Resolution& res, const ChunkKey& chunk,
      EvalBreakdown& breakdown) const;

  StashGraph& graph_;
  const GalileoStore& store_;
};

}  // namespace stash
