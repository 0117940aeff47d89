#include "core/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace stash {
namespace {

using sim::kSecond;

const TemporalBin kDay(TemporalRes::Day, 2015, 2, 2);
const Resolution kRes6{6, TemporalRes::Day};

Summary make_summary(double value, std::uint64_t count = 1) {
  Summary s(kNamAttributeCount);
  for (std::uint64_t i = 0; i < count; ++i) {
    const double obs[kNamAttributeCount] = {value, value, value, value};
    s.add_observation(obs, kNamAttributeCount);
  }
  return s;
}

/// A full-chunk contribution with `n` cells under prefix+suffix geohashes.
ChunkContribution make_contribution(const std::string& prefix, int n,
                                    double value = 1.0,
                                    const TemporalBin& bin = kDay) {
  ChunkContribution c;
  c.res = Resolution{static_cast<int>(prefix.size()) + 2, bin.res()};
  c.chunk = ChunkKey(prefix, bin);
  const auto alphabet = geohash::kAlphabet;
  for (int i = 0; i < n; ++i) {
    const std::string gh = prefix +
                           alphabet[static_cast<std::size_t>(i) % 32] +
                           alphabet[static_cast<std::size_t>(i) / 32 % 32];
    c.cells.emplace_back(CellKey(gh, bin), make_summary(value));
  }
  const std::int64_t first = c.chunk.first_day();
  for (std::size_t i = 0; i < c.chunk.day_count(); ++i)
    c.days.push_back(first + static_cast<std::int64_t>(i));
  return c;
}

TEST(StashGraphTest, ConfigValidation) {
  StashConfig bad;
  bad.chunk_precision = 0;
  EXPECT_THROW(StashGraph{bad}, std::invalid_argument);
  bad = {};
  bad.safe_limit_fraction = 1.5;
  EXPECT_THROW(StashGraph{bad}, std::invalid_argument);
}

TEST(StashGraphTest, StartsEmpty) {
  const StashGraph graph;
  EXPECT_EQ(graph.total_cells(), 0u);
  EXPECT_EQ(graph.total_chunks(), 0u);
  EXPECT_FALSE(graph.chunk_complete(kRes6, ChunkKey("9q8y", kDay)));
}

TEST(StashGraphTest, AbsorbMakesChunkCompleteAndCellsFindable) {
  StashGraph graph;
  const auto c = make_contribution("9q8y", 10);
  EXPECT_EQ(graph.absorb(c, 0), 10u);
  EXPECT_EQ(graph.total_cells(), 10u);
  EXPECT_TRUE(graph.chunk_complete(kRes6, c.chunk));
  for (const auto& [key, summary] : c.cells) {
    const Summary* found = graph.find_cell(key);
    ASSERT_NE(found, nullptr) << key.label();
    EXPECT_EQ(*found, summary);
  }
}

TEST(StashGraphTest, AbsorbSameDaysTwiceIsRejected) {
  // Double-merging a day's contribution would double-count observations.
  StashGraph graph;
  const auto c = make_contribution("9q8y", 5);
  EXPECT_EQ(graph.absorb(c, 0), 5u);
  EXPECT_EQ(graph.absorb(c, 0), 0u);
  EXPECT_EQ(graph.total_cells(), 5u);
  EXPECT_EQ(graph.find_cell(c.cells[0].first)->observation_count(), 1u);
}

TEST(StashGraphTest, PartialDayContributionsMergePerCell) {
  // A Month chunk absorbs per-day batches; a cell's summary accumulates.
  StashGraph graph;
  const TemporalBin feb(TemporalRes::Month, 2015, 2);
  const CellKey cell("9q8y7z", feb);
  const ChunkKey chunk("9q8y", feb);
  const Resolution res{6, TemporalRes::Month};
  for (int d = 0; d < 28; ++d) {
    ChunkContribution c;
    c.res = res;
    c.chunk = chunk;
    c.cells.emplace_back(cell, make_summary(static_cast<double>(d)));
    c.days.push_back(chunk.first_day() + d);
    graph.absorb(c, 0);
    EXPECT_EQ(graph.chunk_complete(res, chunk), d == 27);
  }
  EXPECT_EQ(graph.find_cell(cell)->observation_count(), 28u);
  EXPECT_EQ(graph.total_cells(), 1u);  // same cell throughout
}

TEST(StashGraphTest, CollectChunkFiltersByBoxAndTime) {
  StashGraph graph;
  const auto c = make_contribution("9q8y", 32);
  graph.absorb(c, 0);
  // Whole chunk box: everything comes back.
  CellSummaryMap all;
  EXPECT_EQ(graph.collect_chunk(kRes6, c.chunk, ChunkKey("9q8y", kDay).bounds(),
                                kDay.range(), all),
            32u);
  // A box covering one child only returns cells inside it.
  CellSummaryMap some;
  const BoundingBox small = geohash::decode("9q8y7");
  const std::size_t n = graph.collect_chunk(kRes6, c.chunk, small, kDay.range(), some);
  EXPECT_LT(n, 32u);
  for (const auto& [key, summary] : some)
    EXPECT_TRUE(key.bounds().intersects(small));
  // Disjoint time: nothing.
  CellSummaryMap none;
  EXPECT_EQ(graph.collect_chunk(kRes6, c.chunk, small,
                                TemporalBin(TemporalRes::Day, 2015, 3, 2).range(),
                                none),
            0u);
}

TEST(StashGraphTest, CollectChunkMatchesPerCellFilter) {
  // The chunk-level shortcuts (one time test per chunk, no per-Cell test
  // when the chunk lies inside the box) must agree with testing every Cell
  // through the string codec.  `intersects` is open, so boxes and ranges
  // that only touch an edge select nothing on that side.
  StashGraph graph;
  const auto c = make_contribution("9q8y", 1024);  // every 6-char cell
  graph.absorb(c, 0);
  const BoundingBox chunk = geohash::decode("9q8y");
  const BoundingBox child = geohash::decode("9q8y7");
  const double h = chunk.height();
  const double w = chunk.width();
  const std::vector<BoundingBox> boxes = {
      chunk,                                                          // equal
      {chunk.lat_min - h, chunk.lat_max + h, chunk.lng_min - w, chunk.lng_max + w},
      {chunk.lat_min + h / 3, chunk.lat_max + h, chunk.lng_min - w,   // straddles
       chunk.lng_max - w / 5},
      {chunk.lat_min + h / 4, chunk.lat_max - h / 4, chunk.lng_min + w / 4,
       chunk.lng_max - w / 4},                                        // inside
      child,                                                          // cell-aligned
      {chunk.lat_max, chunk.lat_max + h, chunk.lng_min, chunk.lng_max},  // north edge
      {chunk.lat_min - h, chunk.lat_min, chunk.lng_min, chunk.lng_max},  // south edge
      {chunk.lat_min, chunk.lat_max, chunk.lng_max, chunk.lng_max + w},  // east edge
      {chunk.lat_max, chunk.lat_max + h, chunk.lng_max, chunk.lng_max + w},  // corner
      {child.lat_min, child.lat_min, chunk.lng_min, chunk.lng_max},   // zero height
      {chunk.lat_min + h / 2, chunk.lat_min + h / 2 + 1e-9, chunk.lng_min,
       chunk.lng_max},                                                 // sliver
  };
  const TimeRange bin = kDay.range();
  const std::vector<TimeRange> times = {
      bin,
      {bin.begin - 86400, bin.end + 86400},  // contains the bin
      {bin.begin + 3600, bin.begin + 7200},  // inside
      {bin.end - 1, bin.end + 1},            // straddles the end
      {bin.end, bin.end + 3600},             // touches the end only
      {bin.begin - 3600, bin.begin},         // touches the start only
      {bin.begin + 60, bin.begin + 60},      // empty
      TemporalBin(TemporalRes::Day, 2015, 3, 2).range(),  // disjoint
  };
  for (const BoundingBox& box : boxes) {
    for (const TimeRange& time : times) {
      CellSummaryMap expected;
      for (const auto& [key, summary] : c.cells)
        if (geohash::decode(key.geohash_str()).intersects(box) &&
            key.bin().range().intersects(time))
          expected.emplace(key, summary);
      CellSummaryMap actual;
      EXPECT_EQ(graph.collect_chunk(kRes6, c.chunk, box, time, actual),
                expected.size())
          << box.to_string() << " [" << time.begin << "," << time.end << ")";
      EXPECT_EQ(actual, expected) << box.to_string();
    }
  }
}

TEST(StashGraphTest, DispersionTouchesEachNeighbourOncePerAccessedNeighbour) {
  // A 3x3 accessed block inside its resident 5x5 ring, plus the block's
  // previous and next bins.  A resident non-accessed chunk next to k
  // accessed chunks must end bit-equal to k sequential touch(dispersed)
  // calls; an accessed chunk gets exactly one touch(f_inc).
  StashConfig config;
  config.dispersion_fraction = 0.25;
  StashGraph graph(config);
  const double f_inc = config.freshness_increment;
  const double dispersed = f_inc * config.dispersion_fraction;
  const sim::SimTime absorbed_at = 3 * kSecond;
  const sim::SimTime now = 40 * kSecond;

  // Block and ring through the string codec, independent of chunk_neighbors.
  const std::string center = "9q8y";
  std::vector<std::string> block{center};
  for (const auto& n : geohash::neighbors(center)) block.push_back(n);
  std::set<std::string> ring;
  for (const auto& b : block)
    for (const auto& n : geohash::neighbors(b))
      if (std::find(block.begin(), block.end(), n) == block.end()) ring.insert(n);
  ASSERT_EQ(block.size(), 9u);
  ASSERT_EQ(ring.size(), 16u);

  std::vector<ChunkKey> resident;
  for (const auto& gh : block)
    for (const TemporalBin& bin : {kDay, kDay.prev(), kDay.next()})
      resident.push_back(ChunkKey(gh, bin));
  for (const auto& gh : ring) resident.push_back(ChunkKey(gh, kDay));
  // Two ring steps out, and the ring's own previous bin: not neighbours.
  std::string far = center;
  for (int step = 0; step < 3; ++step)
    far = *geohash::neighbor(far, geohash::Direction::N);
  resident.push_back(ChunkKey(far, kDay));
  resident.push_back(ChunkKey(*ring.begin(), kDay.prev()));
  for (const auto& chunk : resident) {
    ChunkContribution contribution =
        make_contribution(chunk.prefix_str(), 3, 1.0, chunk.bin());
    graph.absorb(contribution, absorbed_at);
  }

  std::vector<ChunkKey> accessed;
  for (const auto& gh : block) accessed.push_back(ChunkKey(gh, kDay));
  const auto is_accessed = [&](const ChunkKey& k) {
    return std::find(accessed.begin(), accessed.end(), k) != accessed.end();
  };
  // k per resident chunk, counted through the string codec.
  std::map<ChunkKey, int> k;
  for (const auto& gh : block) {
    for (const auto& n : geohash::neighbors(gh)) ++k[ChunkKey(n, kDay)];
    ++k[ChunkKey(gh, kDay.prev())];
    ++k[ChunkKey(gh, kDay.next())];
  }

  std::size_t expected_updates = accessed.size();
  std::map<ChunkKey, double> expected;
  for (const auto& chunk : resident) {
    Freshness f;
    f.touch(f_inc, absorbed_at, config.freshness_half_life);
    if (is_accessed(chunk)) {
      f.touch(f_inc, now, config.freshness_half_life);
    } else {
      for (int i = 0; i < k[chunk]; ++i) {
        f.touch(dispersed, now, config.freshness_half_life);
        ++expected_updates;
      }
    }
    expected[chunk] = f.at(now, config.freshness_half_life);
  }

  const std::size_t updates = graph.touch_region(kRes6, accessed, now);
  EXPECT_EQ(updates, expected_updates);
  EXPECT_EQ(updates, 9u + 32u + 18u);  // block, ring multiplicities, bins
  for (const auto& chunk : resident)
    EXPECT_EQ(graph.chunk_freshness(kRes6, chunk, now), expected[chunk])
        << chunk.label() << " k=" << k[chunk];
  EXPECT_EQ(graph.stats().freshness_touches, updates);
}

TEST(StashGraphTest, FreshnessTouchAndDispersion) {
  StashConfig config;
  config.dispersion_fraction = 0.25;
  StashGraph graph(config);
  // Two adjacent chunks resident; touching one disperses to the other.
  const std::string north = *geohash::neighbor("9q8y", geohash::Direction::N);
  const auto a = make_contribution("9q8y", 4);
  const auto b = make_contribution(north, 4);
  graph.absorb(a, 0);
  graph.absorb(b, 0);
  const double fa0 = graph.chunk_freshness(kRes6, a.chunk, 0);
  const double fb0 = graph.chunk_freshness(kRes6, b.chunk, 0);
  EXPECT_DOUBLE_EQ(fa0, fb0);  // both got the absorb-time bump

  const std::size_t updates = graph.touch_region(kRes6, {a.chunk}, kSecond);
  EXPECT_EQ(updates, 2u);  // accessed chunk + 1 resident neighbor
  EXPECT_GT(graph.chunk_freshness(kRes6, a.chunk, kSecond),
            graph.chunk_freshness(kRes6, b.chunk, kSecond));
  EXPECT_GT(graph.chunk_freshness(kRes6, b.chunk, kSecond), fb0 / 2.0);
}

TEST(StashGraphTest, TouchRegionIgnoresAbsentChunks) {
  StashGraph graph;
  EXPECT_EQ(graph.touch_region(kRes6, {ChunkKey("9q8y", kDay)}, 0), 0u);
}

TEST(StashGraphTest, DispersionKeepsNeighborhoodAliveThroughEviction) {
  // The Fig 3 property: a heavily accessed region's neighborhood survives
  // replacement even though it was not accessed directly.
  StashConfig config;
  config.max_cells = 100;
  config.safe_limit_fraction = 0.5;
  config.dispersion_fraction = 0.3;
  StashGraph graph(config);
  const std::string adjacent = *geohash::neighbor("9q8y", geohash::Direction::E);
  const std::string remote = geohash::encode({45.0, 10.0}, 4);  // Europe
  const auto hot = make_contribution("9q8y", 20);
  const auto neighbor = make_contribution(adjacent, 20);
  const auto far = make_contribution(remote, 20);
  graph.absorb(hot, 0);
  graph.absorb(neighbor, 0);
  graph.absorb(far, 0);
  // Hammer the hot region; its neighbor accrues dispersed freshness.
  for (int i = 1; i <= 10; ++i)
    graph.touch_region(kRes6, {hot.chunk}, i * kSecond);
  // Overflow capacity to force eviction.
  graph.absorb(make_contribution(geohash::encode({50.0, 20.0}, 4), 60),
               11 * kSecond);
  EXPECT_GT(graph.total_cells(), config.max_cells);
  graph.evict_if_needed(11 * kSecond);
  EXPECT_LE(graph.total_cells(), config.safe_limit());
  EXPECT_NE(graph.find_chunk(kRes6, hot.chunk), nullptr);
  EXPECT_NE(graph.find_chunk(kRes6, neighbor.chunk), nullptr);
  EXPECT_EQ(graph.find_chunk(kRes6, far.chunk), nullptr);  // stale: evicted
}

TEST(StashGraphTest, EvictionRespectsSafeLimitAndPlm) {
  StashConfig config;
  config.max_cells = 50;
  config.safe_limit_fraction = 0.6;
  StashGraph graph(config);
  std::vector<ChunkContribution> contributions;
  const std::string prefixes[] = {"9q8y", "9q8z", "9qc0", "9qc1"};
  for (int i = 0; i < 4; ++i) {
    contributions.push_back(make_contribution(prefixes[i], 20));
    graph.absorb(contributions.back(), i * kSecond);
  }
  EXPECT_EQ(graph.total_cells(), 80u);
  const std::size_t evicted = graph.evict_if_needed(10 * kSecond);
  EXPECT_GT(evicted, 0u);
  EXPECT_LE(graph.total_cells(), 30u);
  // Evicted chunks lose PLM residency too: no stale completeness claims.
  for (const auto& c : contributions) {
    if (graph.find_chunk(kRes6, c.chunk) == nullptr) {
      EXPECT_FALSE(graph.chunk_complete(kRes6, c.chunk)) << c.chunk.label();
    }
  }
}

TEST(StashGraphTest, EvictionPrefersLowFreshness) {
  StashConfig config;
  config.max_cells = 30;
  config.safe_limit_fraction = 0.67;
  StashGraph graph(config);
  const auto cold = make_contribution("9q8y", 10);
  const auto warm = make_contribution(geohash::encode({45.0, 10.0}, 4), 10);
  graph.absorb(cold, 0);
  graph.absorb(warm, 0);
  for (int i = 1; i <= 5; ++i) graph.touch_region(kRes6, {warm.chunk}, i * kSecond);
  graph.absorb(make_contribution(geohash::encode({-30.0, 140.0}, 4), 15),
               6 * kSecond);
  graph.evict_if_needed(6 * kSecond);
  EXPECT_EQ(graph.find_chunk(kRes6, cold.chunk), nullptr);
  EXPECT_NE(graph.find_chunk(kRes6, warm.chunk), nullptr);
}

TEST(StashGraphTest, EvictToUnconditionally) {
  StashGraph graph;
  graph.absorb(make_contribution("9q8y", 10), 0);
  EXPECT_EQ(graph.evict_to(0, kSecond), 10u);
  EXPECT_EQ(graph.total_cells(), 0u);
  EXPECT_EQ(graph.total_chunks(), 0u);
}

TEST(StashGraphTest, PurgeOlderThanDropsIdleChunks) {
  // Guest-graph hygiene (§VII-D): entries not re-requested within the TTL
  // get purged.
  StashGraph graph;
  const auto old_chunk = make_contribution("9q8y", 5);
  const auto fresh_chunk = make_contribution("9qc0", 5);
  graph.absorb(old_chunk, 0);
  graph.absorb(fresh_chunk, 0);
  graph.touch_region(kRes6, {fresh_chunk.chunk}, 100 * kSecond);
  const std::size_t purged = graph.purge_older_than(130 * kSecond, 60 * kSecond);
  EXPECT_EQ(purged, 5u);
  EXPECT_EQ(graph.find_chunk(kRes6, old_chunk.chunk), nullptr);
  EXPECT_NE(graph.find_chunk(kRes6, fresh_chunk.chunk), nullptr);
}

TEST(StashGraphTest, InvalidateBlockDropsAffectedChunks) {
  StashGraph graph;
  const auto c = make_contribution("9q8y", 5);
  graph.absorb(c, 0);
  ASSERT_TRUE(graph.chunk_complete(kRes6, c.chunk));
  EXPECT_EQ(graph.invalidate_block("9q", c.chunk.first_day()), 1u);
  EXPECT_FALSE(graph.chunk_complete(kRes6, c.chunk));
  // Summaries cannot be partially subtracted: the whole chunk is dropped so
  // the next access recomputes it from scratch.
  EXPECT_EQ(graph.total_cells(), 0u);
  EXPECT_EQ(graph.find_chunk(kRes6, c.chunk), nullptr);
}

TEST(StashGraphTest, InvalidateThenReabsorbDoesNotDoubleCount) {
  // Regression: merging a rescan over stale resident cells would double
  // the observation counts.
  StashGraph graph;
  const auto c = make_contribution("9q8y", 5);
  graph.absorb(c, 0);
  graph.invalidate_block("9q", c.chunk.first_day());
  EXPECT_EQ(graph.absorb(c, 1), 5u);
  EXPECT_EQ(graph.find_cell(c.cells[0].first)->observation_count(), 1u);
}

TEST(StashGraphTest, InvalidateBlockSparesOtherRegionsAndDays) {
  StashGraph graph;
  const auto hit = make_contribution("9q8y", 5);
  const auto other_region = make_contribution(geohash::encode({45.0, 10.0}, 4), 5);
  graph.absorb(hit, 0);
  graph.absorb(other_region, 0);
  EXPECT_EQ(graph.invalidate_block("9q", hit.chunk.first_day() + 3), 0u);
  EXPECT_EQ(graph.invalidate_block("9q", hit.chunk.first_day()), 1u);
  EXPECT_NE(graph.find_chunk(kRes6, other_region.chunk), nullptr);
  EXPECT_EQ(graph.total_cells(), 5u);
}

TEST(StashGraphTest, ClearResetsEverything) {
  StashGraph graph;
  graph.absorb(make_contribution("9q8y", 5), 0);
  graph.clear();
  EXPECT_EQ(graph.total_cells(), 0u);
  EXPECT_EQ(graph.total_chunks(), 0u);
  EXPECT_FALSE(graph.chunk_complete(kRes6, ChunkKey("9q8y", kDay)));
}

TEST(StashGraphTest, EmptyChunkContributionStillMarksResidency) {
  // An ocean chunk has zero observations but must still be "known" so
  // repeat queries skip the disk.
  StashGraph graph;
  ChunkContribution empty;
  empty.res = kRes6;
  empty.chunk = ChunkKey("s000", kDay);  // gulf of Guinea: no NAM coverage
  empty.days.push_back(empty.chunk.first_day());
  graph.absorb(empty, 0);
  EXPECT_TRUE(graph.chunk_complete(kRes6, empty.chunk));
  EXPECT_EQ(graph.total_cells(), 0u);
}

TEST(StashGraphTest, AbsorbRejectsDayOutsideBinWithoutMutating) {
  // Regression: the PLM used to throw on the foreign day only *after* the
  // cells were merged, leaving a resident chunk the PLM had never heard of
  // (GraphAuditor: chunk-plm-missing).  Validation must precede mutation.
  StashGraph graph;
  auto c = make_contribution("9q8y", 4);
  c.days.push_back(c.chunk.first_day() + 100);  // not in this Day bin
  EXPECT_THROW(graph.absorb(c, 0), std::invalid_argument);
  EXPECT_EQ(graph.total_cells(), 0u);
  EXPECT_EQ(graph.total_chunks(), 0u);
  EXPECT_FALSE(graph.chunk_known(kRes6, c.chunk));
}

}  // namespace
}  // namespace stash
