// Engine workloads of bench_stash — explore, revisit and churn — answered
// by exec::ParallelQueryEngine with two workers, one closed-loop client.
//
// A pass is one fresh store + graph + engine (set-up, plus revisit's
// preload) followed by the workload's query schedule.  Every pass is
// identical, so every pass must reproduce the digest of the sequential
// QueryEngine oracle, which runs once after the timed passes.
//
// A traced pass also replays, between each query's evaluate and absorb,
// the layers evaluate crossed: plan_partition and evaluate_chunk through
// engine(), and for every scanned day the GalileoStore scan and its
// NamGenerator call.  The replay only reads the graph, so the traced
// pass must answer exactly like its untraced twin.
#include <cmath>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "common/zipf.hpp"
#include "exec/parallel_engine.hpp"
#include "harness.hpp"
#include "sim/cost_model.hpp"
#include "workload/workload.hpp"

namespace stash::bench {
namespace {

using workload::QueryGroup;

constexpr std::size_t kThreads = 2;
constexpr std::size_t kMinPasses = 3;
/// Queries of the first traced pass whose spans go to the --trace file.
constexpr std::uint64_t kTracedQueriesWritten = 20;

struct Step {
  AggregationQuery query;
  /// Rewrite the block under the query's centre and invalidate what the
  /// cache derived from it before the query runs (§IV-D real-time data).
  bool ingest = false;
};

struct EngineWorkload {
  std::size_t max_cells = 0;
  std::vector<AggregationQuery> preload;  // set-up: evaluated and absorbed
  std::vector<Step> steps;                // the timed schedule of one pass
};

/// State-size queries centred on `n` distinct tiles of a grid of
/// `tile_dlat` x `tile_dlng` cells laid over the workload domain, tiles
/// picked by `rng`.  A query up to a tile in size never overlaps another,
/// so the seed moves the inputs without changing how much work they share.
std::vector<AggregationQuery> tiled_state_queries(std::size_t n, double tile_dlat,
                                                  double tile_dlng, Rng& rng) {
  const workload::WorkloadGenerator gen;
  const BoundingBox domain = gen.config().domain;
  const auto rows = static_cast<std::size_t>(domain.height() / tile_dlat);
  const auto cols = static_cast<std::size_t>(domain.width() / tile_dlng);
  std::vector<AggregationQuery> out;
  for (const std::size_t tile : pick_distinct(n, rows * cols, rng))
    out.push_back(gen.query_at(
        QueryGroup::State,
        {domain.lat_min + (static_cast<double>(tile / cols) + 0.5) * tile_dlat,
         domain.lng_min + (static_cast<double>(tile % cols) + 0.5) * tile_dlng}));
  return out;
}

/// Cold Fig-6b pan mix: 30 state rectangles, each followed by 9 pans of
/// 10% in random directions (the throughput_workload shape); tiles leave
/// room for the pans.
EngineWorkload make_explore(std::uint64_t seed, bool smoke) {
  Rng rng(stream_seed(seed, "explore"));
  const workload::Extent state = workload::extent_of(QueryGroup::State);
  EngineWorkload w;
  w.max_cells = 10'000'000;
  for (const AggregationQuery& base :
       tiled_state_queries(smoke ? 3 : 30, 1.2 * state.dlat, 1.2 * state.dlng, rng)) {
    w.steps.push_back({base, false});
    for (std::size_t p = 0; p < (smoke ? 2 : 9); ++p) {
      const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
      AggregationQuery q = base;
      q.area = base.area.translated(std::sin(angle) * 0.1 * base.area.height(),
                                    std::cos(angle) * 0.1 * base.area.width());
      w.steps.push_back({q, false});
    }
  }
  return w;
}

/// Warm: 48 preloaded state regions, revisited Zipf(1.0) at spatial
/// resolution 6, 5 and 4 in turn, so coarse levels roll up from cache.
EngineWorkload make_revisit(std::uint64_t seed, bool smoke) {
  Rng rng(stream_seed(seed, "revisit"));
  const workload::Extent state = workload::extent_of(QueryGroup::State);
  EngineWorkload w;
  w.max_cells = 10'000'000;
  w.preload = tiled_state_queries(smoke ? 4 : 48, state.dlat, state.dlng, rng);
  const ZipfDistribution zipf(w.preload.size(), 1.0);
  static constexpr int kSpatial[] = {6, 5, 4};
  const std::size_t n = smoke ? 30 : 900;
  for (std::size_t i = 0; i < n; ++i) {
    AggregationQuery q = w.preload[zipf.sample(rng)];
    q.res.spatial = kSpatial[i % 3];
    w.steps.push_back({q, false});
  }
  return w;
}

/// Writes beside reads: Zipf(0.9) over every one of the 90 state tiles
/// with a cache a small share of the working set; every 8th query is
/// preceded by an ingest.
EngineWorkload make_churn(std::uint64_t seed, bool smoke) {
  Rng rng(stream_seed(seed, "churn"));
  const workload::Extent state = workload::extent_of(QueryGroup::State);
  EngineWorkload w;
  w.max_cells = smoke ? 5'000 : 30'000;
  const std::vector<AggregationQuery> regions =
      tiled_state_queries(smoke ? 6 : 90, state.dlat, state.dlng, rng);
  const ZipfDistribution zipf(regions.size(), 0.9);
  const std::size_t n = smoke ? 40 : 600;
  for (std::size_t i = 0; i < n; ++i)
    w.steps.push_back({regions[zipf.sample(rng)], (i + 1) % 8 == 0});
  return w;
}

EngineWorkload make_workload(const Options& options) {
  if (options.workload == "explore") return make_explore(options.seed, options.smoke);
  if (options.workload == "revisit") return make_revisit(options.seed, options.smoke);
  return make_churn(options.seed, options.smoke);
}

StashConfig graph_config(std::size_t max_cells) {
  StashConfig config;
  config.max_cells = max_cells;
  return config;
}

exec::ExecConfig exec_config() {
  exec::ExecConfig config;
  config.threads = kThreads;
  return config;
}

/// Deterministic absorb instant of the i-th query of a pass (preload
/// first), shared with the oracle so freshness and eviction match.
sim::SimTime absorb_time(std::size_t index) {
  return static_cast<sim::SimTime>(index + 1) * sim::kMillisecond;
}

BlockKey block_under_centre(const AggregationQuery& q, int prefix_length) {
  return {geohash::encode(q.area.center(), prefix_length), q.time.begin / 86400};
}

/// Replays one scanned day of a scan chunk: the store call, then the
/// generator call that scan_partition makes for the same block.
void replay_scan(const GalileoStore& store, const std::string& partition,
                 const AggregationQuery& q, const ChunkKey& chunk,
                 std::int64_t day, std::uint64_t query_id,
                 std::uint32_t chunk_span, SpanLog& log) {
  const TimeRange bin = chunk.bin().range();
  const TimeRange range{std::max(day * 86400, bin.begin),
                        std::min((day + 1) * 86400, bin.end)};
  const BoundingBox box = chunk.bounds();
  std::uint64_t t0 = now_ns();
  const ScanResult scan = store.scan_partition(partition, box, range, q.res);
  std::uint64_t t1 = now_ns();
  const std::uint32_t scan_span =
      log.add(query_id, chunk_span, "storage.scan_partition", t0, t1,
              {{"records", scan.stats.records_scanned},
               {"blocks", scan.stats.blocks_touched},
               {"cells", scan.cells.size()}});
  const BoundingBox clipped = box.intersection(geohash::decode(partition));
  if (!clipped.valid()) return;
  const std::uint64_t version = store.block_version(BlockKey{partition, day});
  t0 = now_ns();
  const ObservationList records = store.generator().generate(clipped, range, version);
  t1 = now_ns();
  log.add(query_id, scan_span, "model.generate", t0, t1,
          {{"records", records.size()}});
}

/// Replays the layers one evaluate call crossed, on the same graph state.
void replay_query(const exec::ParallelQueryEngine& engine,
                  const GalileoStore& store, const StashGraph& graph,
                  const AggregationQuery& q, std::uint64_t query_id,
                  std::uint32_t evaluate_span, SpanLog& log) {
  const QueryEngine& core = engine.engine();
  for (const std::string& partition :
       geohash::covering(q.area, store.partition_prefix_length())) {
    std::uint64_t t0 = now_ns();
    const QueryEngine::PartitionPlan plan = core.plan_partition(partition, q);
    std::uint64_t t1 = now_ns();
    log.add(query_id, evaluate_span, "core.plan_partition", t0, t1,
            {{"chunks", plan.chunks.size()}});
    if (plan.empty) continue;

    // The PLM probe alone, batched over the plan (one lookup per chunk).
    std::size_t complete = 0;
    t0 = now_ns();
    for (const ChunkKey& chunk : plan.chunks)
      if (graph.chunk_complete(q.res, chunk)) ++complete;
    t1 = now_ns();
    log.add(query_id, evaluate_span, "core.chunk_probe", t0, t1,
            {{"probes", plan.chunks.size()}, {"complete", complete}});

    for (const ChunkKey& chunk : plan.chunks) {
      CellSummaryMap cells;
      t0 = now_ns();
      const ChunkEvalResult r = core.evaluate_chunk(
          partition, q, plan.clipped, chunk, EvalMode::Cached, cells);
      t1 = now_ns();
      const char* label = r.breakdown.chunks_from_cache > 0     ? "cache"
                          : r.breakdown.chunks_synthesized > 0 ? "synth"
                                                               : "scan";
      const std::uint32_t chunk_span =
          log.add(query_id, evaluate_span, "core.evaluate_chunk", t0, t1,
                  {{"cells", cells.size()}, {"probes", r.breakdown.cache_probes}},
                  label);
      for (const std::int64_t day : r.days_scanned)
        replay_scan(store, partition, q, chunk, day, query_id, chunk_span, log);
    }
  }
}

struct PassResult {
  double setup_s = 0.0;
  std::uint64_t timed_ns = 0;  // evaluate + absorb calls
  std::size_t queries = 0;
  std::size_t failed = 0;
  std::uint64_t digest = kChecksumSeed;
  concurrency::WorkerStats pool;  // pool counters of the timed schedule
};

concurrency::WorkerStats pool_delta(const concurrency::WorkerStats& before,
                                    const concurrency::WorkerStats& after) {
  concurrency::WorkerStats d;
  d.stolen = after.stolen - before.stolen;
  d.parks = after.parks - before.parks;
  d.wakeups = after.wakeups - before.wakeups;
  d.submit_shed = after.submit_shed - before.submit_shed;
  return d;
}

/// One pass; appends per-query evaluate latencies (ms).  With `trace`
/// set, records spans and replays each query's layers before absorb.
PassResult run_pass(const EngineWorkload& w,
                    const std::shared_ptr<const NamGenerator>& generator,
                    std::vector<double>& latencies_ms, SpanLog* trace) {
  PassResult out;
  const std::uint64_t setup0 = now_ns();
  GalileoStore store(generator);
  StashGraph graph(graph_config(w.max_cells));
  exec::ParallelQueryEngine engine(graph, store, exec_config());
  for (std::size_t i = 0; i < w.preload.size(); ++i) {
    const Evaluation eval = engine.evaluate(w.preload[i]);
    (void)engine.absorb(eval, w.preload[i].res, absorb_time(i));
  }
  out.setup_s = seconds_between(setup0, now_ns());

  const concurrency::WorkerStats pool_before = engine.total_stats();
  for (std::size_t i = 0; i < w.steps.size(); ++i) {
    const Step& step = w.steps[i];
    const std::uint64_t query_id = i + 1;
    if (step.ingest) {
      const BlockKey block =
          block_under_centre(step.query, store.partition_prefix_length());
      (void)store.ingest_update(block);
      const std::uint64_t t0 = now_ns();
      const std::size_t dropped = graph.invalidate_block(block.partition, block.day);
      const std::uint64_t t1 = now_ns();
      if (trace != nullptr)
        trace->add(query_id, 0, "core.invalidate_block", t0, t1,
                   {{"chunks", dropped}});
    }

    Evaluation eval;
    exec::BatchReport report;
    bool threw = false;
    const std::uint64_t t0 = now_ns();
    try {
      eval = engine.evaluate(step.query, EvalMode::Cached, {}, report);
    } catch (const std::exception&) {
      threw = true;
    }
    const std::uint64_t t1 = now_ns();
    ++out.queries;
    latencies_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    out.timed_ns += t1 - t0;
    if (threw || !report.complete()) {
      ++out.failed;
      continue;
    }

    std::uint32_t evaluate_span = 0;
    if (trace != nullptr) {
      const EvalBreakdown& b = eval.breakdown;
      evaluate_span = trace->add(query_id, 0, "exec.evaluate", t0, t1,
                                 {{"chunks", b.chunks_total},
                                  {"cache", b.chunks_from_cache},
                                  {"synth", b.chunks_synthesized}});
      replay_query(engine, store, graph, step.query, query_id, evaluate_span,
                   *trace);
    }

    const std::uint64_t t2 = now_ns();
    const MaintenanceStats m =
        engine.absorb(eval, step.query.res, absorb_time(w.preload.size() + i));
    const std::uint64_t t3 = now_ns();
    out.timed_ns += t3 - t2;
    if (trace != nullptr)
      trace->add(query_id, 0, "exec.absorb", t2, t3,
                 {{"cells_absorbed", m.cells_absorbed},
                  {"freshness_touches", m.freshness_updates},
                  {"cells_evicted", m.cells_evicted}});

    out.digest = answer_digest(eval.cells, out.digest);
  }
  out.pool = pool_delta(pool_before, engine.total_stats());
  return out;
}

/// The sequential QueryEngine on the same schedule: the answer digest
/// every pass must reproduce.
std::uint64_t oracle_digest(const EngineWorkload& w,
                            const std::shared_ptr<const NamGenerator>& generator) {
  GalileoStore store(generator);
  StashGraph graph(graph_config(w.max_cells));
  QueryEngine engine(graph, store);
  for (std::size_t i = 0; i < w.preload.size(); ++i) {
    const Evaluation eval = engine.evaluate(w.preload[i]);
    (void)engine.absorb(eval, w.preload[i].res, absorb_time(i));
  }
  std::uint64_t digest = kChecksumSeed;
  for (std::size_t i = 0; i < w.steps.size(); ++i) {
    const Step& step = w.steps[i];
    if (step.ingest) {
      const BlockKey block =
          block_under_centre(step.query, store.partition_prefix_length());
      (void)store.ingest_update(block);
      (void)graph.invalidate_block(block.partition, block.day);
    }
    const Evaluation eval = engine.evaluate(step.query);
    (void)engine.absorb(eval, step.query.res, absorb_time(w.preload.size() + i));
    digest = answer_digest(eval.cells, digest);
  }
  return digest;
}

/// Span and counter totals over every traced pass.
struct LayerTotals {
  std::size_t passes = 0;
  std::uint64_t queries = 0, chunks = 0;
  std::uint64_t evaluate_ns = 0, absorb_ns = 0;
  std::uint64_t plan_ns = 0, plans = 0;
  std::uint64_t probe_ns = 0, probes = 0;
  std::uint64_t cache_ns = 0, cache_chunks = 0;
  std::uint64_t synth_ns = 0, synth_chunks = 0;
  std::uint64_t scan_self_ns = 0, scan_chunk_ns = 0, scan_chunks = 0;
  std::uint64_t scan_ns = 0, records = 0, blocks = 0;
  std::uint64_t generate_ns = 0, generated = 0;
  std::uint64_t cells_absorbed = 0, freshness = 0, evicted = 0, invalidated = 0;
  concurrency::WorkerStats pool;

  void add(const SpanLog& log, const concurrency::WorkerStats& pass_pool) {
    ++passes;
    pool += pass_pool;
    const std::vector<std::uint64_t> child = log.child_ns();
    for (const Span& s : log.spans()) {
      const std::string_view name = s.name;
      const std::string_view label = s.label;
      if (name == "exec.evaluate") {
        ++queries;
        chunks += s.count("chunks");
        evaluate_ns += s.ns();
      } else if (name == "exec.absorb") {
        absorb_ns += s.ns();
        cells_absorbed += s.count("cells_absorbed");
        freshness += s.count("freshness_touches");
        evicted += s.count("cells_evicted");
      } else if (name == "core.invalidate_block") {
        invalidated += s.count("chunks");
      } else if (name == "core.plan_partition") {
        plan_ns += s.ns();
        ++plans;
      } else if (name == "core.chunk_probe") {
        probe_ns += s.ns();
        probes += s.count("probes");
      } else if (name == "core.evaluate_chunk" && label == "cache") {
        cache_ns += s.ns();
        ++cache_chunks;
      } else if (name == "core.evaluate_chunk" && label == "synth") {
        synth_ns += s.ns();
        ++synth_chunks;
      } else if (name == "core.evaluate_chunk") {
        // Self time: the chunk minus its replayed storage children.
        scan_chunk_ns += s.ns();
        scan_self_ns += s.ns() - std::min(s.ns(), child[s.id - 1]);
        ++scan_chunks;
      } else if (name == "storage.scan_partition") {
        scan_ns += s.ns();
        records += s.count("records");
        blocks += s.count("blocks");
      } else if (name == "model.generate") {
        generate_ns += s.ns();
        generated += s.count("records");
      }
    }
  }

  [[nodiscard]] LayerValues values(double overhead_frac) const {
    const sim::CostModel cost{};
    const auto d = [](auto v) { return static_cast<double>(v); };
    const double per_pass = d(passes);
    const double all_chunks = d(cache_chunks + synth_chunks + scan_chunks);
    const double scan_ns_per_record = ratio(d(scan_ns), d(records));
    const double absorb_ns_per_cell = ratio(d(absorb_ns), d(cells_absorbed));
    return {
        {"exec.parallel_speedup",
         ratio(d(plan_ns + cache_ns + synth_ns + scan_chunk_ns), d(evaluate_ns))},
        {"exec.chunks_per_query", ratio(d(chunks), d(queries))},
        {"concurrency.stolen", ratio(d(pool.stolen), per_pass)},
        {"concurrency.parks", ratio(d(pool.parks), per_pass)},
        {"concurrency.wakeups", ratio(d(pool.wakeups), per_pass)},
        {"concurrency.submit_shed", ratio(d(pool.submit_shed), per_pass)},
        {"core.plan_us", ratio(d(plan_ns), d(plans)) / 1e3},
        {"core.chunk_cache_us", ratio(d(cache_ns), d(cache_chunks)) / 1e3},
        {"core.chunk_synth_us", ratio(d(synth_ns), d(synth_chunks)) / 1e3},
        {"core.chunk_scan_self_us", ratio(d(scan_self_ns), d(scan_chunks)) / 1e3},
        {"core.cache_hit_ratio", ratio(d(cache_chunks), all_chunks)},
        {"core.synth_ratio", ratio(d(synth_chunks), all_chunks)},
        {"core.scan_ratio", ratio(d(scan_chunks), all_chunks)},
        {"core.absorb_ns_per_cell", absorb_ns_per_cell},
        {"core.cells_absorbed", ratio(d(cells_absorbed), per_pass)},
        {"core.freshness_touches", ratio(d(freshness), per_pass)},
        {"core.cells_evicted", ratio(d(evicted), per_pass)},
        {"core.chunks_invalidated", ratio(d(invalidated), per_pass)},
        {"storage.scan_ns_per_record", scan_ns_per_record},
        {"storage.bin_ns_per_record", ratio(d(scan_ns) - d(generate_ns), d(records))},
        {"model.generate_ns_per_record", ratio(d(generate_ns), d(generated))},
        {"storage.records_scanned", ratio(d(records), per_pass)},
        {"storage.blocks_touched", ratio(d(blocks), per_pass)},
        {"costmodel.scan_ratio", ratio(scan_ns_per_record, d(cost.scan_ns_per_record))},
        {"costmodel.cache_probe_ratio",
         ratio(ratio(d(probe_ns), d(probes)), d(cost.cache_probe_ns))},
        {"costmodel.cell_insert_ratio",
         ratio(absorb_ns_per_cell, d(cost.cell_insert_ns))},
        {"trace.overhead_frac", overhead_frac},
    };
  }
};

}  // namespace

Result run_engine_workload(const Options& options) {
  const EngineWorkload w = make_workload(options);
  const auto generator = std::make_shared<const NamGenerator>();
  Result result;
  result.threads = kThreads;
  std::vector<PassResult> passes;
  Budget budget(options);

  if (!options.traced()) {
    std::vector<double> latencies_ms, pass_qps, setups_s;
    for (;;) {
      const PassResult& p =
          passes.emplace_back(run_pass(w, generator, latencies_ms, nullptr));
      pass_qps.push_back(static_cast<double>(p.queries) /
                         (static_cast<double>(p.timed_ns) / 1e9));
      setups_s.push_back(p.setup_s);
      const bool fits = budget.another();
      if (options.smoke ||
          (!fits && latencies_ms.size() >= kMinSamples && passes.size() >= kMinPasses))
        break;
    }
    add_end_to_end(result, pass_qps, latencies_ms, setups_s);
  } else {
    // Untraced and traced passes pair up, in alternating order; their
    // exec.* totals give the tracing overhead, their digests must agree.
    std::vector<double> unused_ms;
    SpanLog log;
    LayerTotals totals;
    std::uint64_t untraced_ns = 0, traced_ns = 0;
    do {
      const bool traced_first = totals.passes % 2 == 1;
      PassResult traced;
      if (traced_first) traced = run_pass(w, generator, unused_ms, &log);
      const PassResult plain = run_pass(w, generator, unused_ms, nullptr);
      if (!traced_first) traced = run_pass(w, generator, unused_ms, &log);
      passes.push_back(plain);
      passes.push_back(traced);
      untraced_ns += plain.timed_ns;
      traced_ns += traced.timed_ns;
      result.trace_digest_ok = result.trace_digest_ok && plain.digest == traced.digest;
      if (totals.passes == 0 &&
          !log.write_json(options.trace_path, kTracedQueriesWritten))
        throw std::runtime_error("bench_stash: cannot write " + options.trace_path);
      totals.add(log, traced.pool);
      log.clear();
    } while (budget.another());
    add_per_layer(result, totals.values(ratio(static_cast<double>(traced_ns),
                                              static_cast<double>(untraced_ns)) -
                                        1.0));
  }

  // Every query of a pass whose digest mismatches the oracle fails.
  result.digest = oracle_digest(w, generator);
  result.oracle_ok = true;
  for (const PassResult& p : passes) {
    const bool match = p.digest == result.digest;
    result.oracle_ok = result.oracle_ok && match;
    ++result.passes;
    result.attempted += p.queries;
    result.failed += match ? p.failed : p.queries;
  }
  return result;
}

}  // namespace stash::bench
