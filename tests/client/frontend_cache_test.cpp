#include "client/frontend_cache.hpp"

#include <gtest/gtest.h>

#include "common/civil_time.hpp"
#include "common/rng.hpp"

namespace stash::client {
namespace {

AggregationQuery kansas_query() {
  return {{38.0, 38.704, -99.0, -97.594},  // ~4x4 chunks at precision 4
          {unix_seconds({2015, 2, 2}), unix_seconds({2015, 2, 3})},
          {6, TemporalRes::Day}};
}

/// A full response for the query, from a real scan.
CellSummaryMap response_for(const AggregationQuery& query) {
  GalileoStore store(std::make_shared<NamGenerator>());
  return store.scan(query.area, query.time, query.res).cells;
}

TEST(FrontendCacheTest, EmptyCacheMissesEverything) {
  FrontendCache cache;
  const auto query = kansas_query();
  const FrontendLookup lookup = cache.lookup(query);
  EXPECT_TRUE(lookup.cells.empty());
  EXPECT_FALSE(lookup.missing_chunks.empty());
  ASSERT_EQ(lookup.missing_boxes.size(), 1u);
  // The missing box covers the whole query.
  EXPECT_TRUE(lookup.missing_boxes.front().contains(query.area.center()));
  EXPECT_GT(lookup.local_time, 0);
}

TEST(FrontendCacheTest, AbsorbThenLookupServesInteriorLocally) {
  FrontendCache cache;
  const auto query = kansas_query();
  const auto cells = response_for(query);
  EXPECT_GT(cache.absorb(query, cells, 0), 0u);
  EXPECT_GT(cache.total_cells(), 0u);

  // A strictly interior sub-query is served entirely from the client.
  AggregationQuery interior = query;
  interior.area = query.area.scaled(0.25);
  const FrontendLookup lookup = cache.lookup(interior);
  EXPECT_TRUE(lookup.missing_boxes.empty());
  EXPECT_FALSE(lookup.cells.empty());
}

TEST(FrontendCacheTest, EdgeChunksAreNeverMarkedComplete) {
  // A response only covers cells intersecting the query; chunks straddling
  // the boundary must stay incomplete or later queries would see holes.
  FrontendCache cache;
  AggregationQuery query = kansas_query();
  // Shift so the query is NOT chunk-aligned: edges are partial.
  query.area = query.area.translated(0.05, 0.05);
  cache.absorb(query, response_for(query), 0);

  // Probing the same query again: interior chunks hit, edge chunks miss.
  const FrontendLookup again = cache.lookup(query);
  EXPECT_FALSE(again.cells.empty());
  EXPECT_FALSE(again.missing_chunks.empty());
  for (const auto& chunk : again.missing_chunks) {
    EXPECT_FALSE(query.area.contains(chunk.bounds()))
        << chunk.label() << " is interior but missing";
  }
}

TEST(FrontendCacheTest, ServedCellsMatchBackendExactly) {
  FrontendCache cache;
  const auto query = kansas_query();
  const auto cells = response_for(query);
  cache.absorb(query, cells, 0);
  AggregationQuery interior = query;
  interior.area = query.area.scaled(0.25);
  const FrontendLookup lookup = cache.lookup(interior);
  for (const auto& [key, summary] : lookup.cells) {
    const auto it = cells.find(key);
    ASSERT_NE(it, cells.end()) << key.label();
    EXPECT_EQ(summary, it->second);
  }
}

TEST(FrontendCacheTest, MissingBoundsShrinkWithCoverage) {
  FrontendCache cache;
  // Chunk-aligned 4x4 box (precision-4 cells are 0.17578125 x 0.3515625),
  // so the first absorb covers every chunk completely.
  AggregationQuery query = kansas_query();
  query.area = {37.96875, 38.671875, -99.140625, -97.734375};
  const auto full = cache.lookup(query);
  cache.absorb(query, response_for(query), 0);
  ASSERT_TRUE(cache.lookup(query).missing_boxes.empty());

  // Pan east by 50% (2 chunk columns): only the eastern strip is missing.
  AggregationQuery panned = query;
  panned.area = query.area.translated(0.0, query.area.width() * 0.5);
  const auto partial = cache.lookup(panned);
  ASSERT_EQ(partial.missing_boxes.size(), 1u);
  ASSERT_EQ(full.missing_boxes.size(), 1u);
  EXPECT_LT(partial.missing_boxes.front().area(), full.missing_boxes.front().area());
  // The missing region lies in the un-cached east.
  EXPECT_GT(partial.missing_boxes.front().lng_min, query.area.lng_min);
}

TEST(FrontendCacheTest, CapacityEvictionKeepsCacheBounded) {
  FrontendCacheConfig config;
  config.stash.max_cells = 64;
  config.stash.safe_limit_fraction = 0.5;
  FrontendCache cache(config);
  stash::Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    AggregationQuery q = kansas_query();
    q.area = q.area.translated(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0));
    cache.absorb(q, response_for(q), i);
  }
  EXPECT_LE(cache.total_cells(), 64u);
}

TEST(FrontendCacheTest, InvalidateBlockDropsLocalState) {
  FrontendCache cache;
  const auto query = kansas_query();
  cache.absorb(query, response_for(query), 0);
  ASSERT_GT(cache.total_cells(), 0u);
  const std::size_t dropped =
      cache.invalidate_block("9y", days_from_civil({2015, 2, 2}));
  EXPECT_GT(dropped, 0u);
  const auto lookup = cache.lookup(query);
  EXPECT_FALSE(lookup.missing_boxes.empty());
}

TEST(FrontendCacheTest, AntimeridianMissingBoxesSplitAtSeam) {
  // Regression: chunks straddling ±180° used to be unioned with a naive
  // lng min/max, producing a near-global fetch box ([-180, 180] wide).
  // A wrap-encoded query (lng_max > 180) must yield one box per side of
  // the seam, each about as wide as its band.
  FrontendCache cache;
  AggregationQuery query = kansas_query();
  query.area = {-19.0, -16.0, 177.0, 183.0};  // 177..180 U -180..-177
  const FrontendLookup lookup = cache.lookup(query);
  EXPECT_FALSE(lookup.missing_chunks.empty());
  ASSERT_EQ(lookup.missing_boxes.size(), 2u);
  double total_width = 0.0;
  for (const BoundingBox& box : lookup.missing_boxes) {
    EXPECT_TRUE(box.valid());
    EXPECT_GE(box.lng_min, -180.0);
    EXPECT_LE(box.lng_max, 180.0);
    total_width += box.width();
  }
  // 6 degrees of query, chunk-aligned: far from the 360-degree blowup.
  EXPECT_LT(total_width, 8.0);
}

TEST(FrontendCacheTest, AntimeridianAbsorbServesBothSeamSides) {
  FrontendCache cache;
  AggregationQuery query = kansas_query();
  // Chunk-aligned so every covered chunk is fully inside the query.
  query.area = {-19.3359375, -16.171875, 177.1875, 182.8125};
  CellSummaryMap cells;
  for (const BoundingBox& band : lng_bands(query.area)) {
    AggregationQuery part = query;
    part.area = band;
    for (auto& [key, summary] : response_for(part)) cells.emplace(key, summary);
  }
  cache.absorb(query, cells, 0);

  const FrontendLookup again = cache.lookup(query);
  EXPECT_TRUE(again.missing_boxes.empty());
  EXPECT_TRUE(again.missing_chunks.empty());
}

TEST(FrontendCacheTest, AntimeridianLookupServesCellsFromBothSides) {
  // Resident chunks on either side of ±180° must serve their Cells, not
  // merely count as present: each chunk's Cells are filtered against its
  // own longitude band, never the wrap-encoded query area.  One s5/Day
  // Cell per geohash of the chunk-aligned area: 72 x 64 on each side.
  const TemporalBin day(TemporalRes::Day, 2015, 2, 2);
  AggregationQuery query{{-19.3359375, -16.171875, 177.1875, 182.8125},
                         day.range(),
                         {5, TemporalRes::Day}};
  CellSummaryMap cells;
  for (const BoundingBox& band : lng_bands(query.area)) {
    for (const auto& gh : geohash::covering(band, query.res.spatial)) {
      Summary summary(1);
      const double value = 1.0;
      summary.add_observation(&value, 1);
      cells.emplace(CellKey(gh, day), summary);
    }
  }
  ASSERT_EQ(cells.size(), 2u * 4608u);
  FrontendCache cache;
  cache.absorb(query, cells, 0);

  const FrontendLookup again = cache.lookup(query);
  EXPECT_TRUE(again.missing_chunks.empty());
  std::size_t west = 0, east = 0;
  for (const auto& [key, summary] : again.cells)
    ++(key.bounds().center().lng < 0.0 ? west : east);
  EXPECT_EQ(west, 4608u);
  EXPECT_EQ(east, 4608u);
}

TEST(FrontendCacheTest, InvalidQueryThrows) {
  FrontendCache cache;
  AggregationQuery bad = kansas_query();
  bad.time = {5, 1};
  EXPECT_THROW((void)cache.lookup(bad), std::invalid_argument);
  EXPECT_THROW((void)cache.absorb(bad, {}, 0), std::invalid_argument);
}

}  // namespace
}  // namespace stash::client
