#include "geo/geohash.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace stash::geohash {
namespace {

TEST(GeohashTest, KnownEncodings) {
  // Reference values from geohash.org.
  EXPECT_EQ(encode({57.64911, 10.40744}, 11), "u4pruydqqvj");
  EXPECT_EQ(encode({37.77, -122.42}, 5), "9q8yy");
  EXPECT_EQ(encode({0.0, 0.0}, 1), "s");
}

TEST(GeohashTest, PaperExampleCell) {
  // Paper §IV-B: the cell 9q8y7 at resolution 5 (San Francisco area).
  const BoundingBox box = decode("9q8y7");
  EXPECT_TRUE(box.contains(decode_center("9q8y7")));
  EXPECT_NEAR(box.width(), cell_width_deg(5), 1e-12);
  EXPECT_NEAR(box.height(), cell_height_deg(5), 1e-12);
}

TEST(GeohashTest, EncodeDecodeRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const LatLng p{rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)};
    for (int precision : {1, 3, 5, 7, 9, 12}) {
      const std::string gh = encode(p, precision);
      EXPECT_EQ(gh.size(), static_cast<std::size_t>(precision));
      EXPECT_TRUE(decode(gh).contains(p)) << gh;
    }
  }
}

TEST(GeohashTest, ReencodingCenterIsIdentity) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const LatLng p{rng.uniform(-89.0, 89.0), rng.uniform(-179.0, 179.0)};
    const std::string gh = encode(p, 6);
    EXPECT_EQ(encode(decode_center(gh), 6), gh);
  }
}

TEST(GeohashTest, ValidationRejectsBadInput) {
  EXPECT_FALSE(is_valid(""));
  EXPECT_FALSE(is_valid("abc!"));
  EXPECT_FALSE(is_valid("bbbbbbbbbbbba"));  // 13 chars
  EXPECT_FALSE(is_valid("ai"));             // 'a' and 'i' not in alphabet
  EXPECT_TRUE(is_valid("9q8y7"));
  EXPECT_THROW((void)decode("hello world"), std::invalid_argument);
  EXPECT_THROW((void)encode({91.0, 0.0}, 5), std::invalid_argument);
  EXPECT_THROW((void)encode({0.0, 0.0}, 0), std::invalid_argument);
  EXPECT_THROW((void)encode({0.0, 0.0}, 13), std::invalid_argument);
}

TEST(GeohashTest, CellDimensionsHalveWithBits) {
  // Odd→even precision adds a longitude bit; even→odd adds both.
  EXPECT_DOUBLE_EQ(cell_width_deg(1), 45.0);
  EXPECT_DOUBLE_EQ(cell_height_deg(1), 45.0);
  EXPECT_DOUBLE_EQ(cell_width_deg(2), 11.25);
  EXPECT_DOUBLE_EQ(cell_height_deg(2), 5.625);
  for (int p = 2; p <= 12; ++p) {
    EXPECT_LT(cell_width_deg(p), cell_width_deg(p - 1));
    EXPECT_LE(cell_height_deg(p), cell_height_deg(p - 1));
  }
}

TEST(GeohashTest, ParentChildClosure) {
  const auto kids = children("9q8y");
  EXPECT_EQ(kids.size(), 32u);
  const BoundingBox parent_box = decode("9q8y");
  for (const auto& kid : kids) {
    EXPECT_EQ(*parent(kid), "9q8y");
    EXPECT_TRUE(parent_box.contains(decode(kid)));
  }
  // Children tile the parent exactly: areas sum to the parent's area.
  double total = 0.0;
  for (const auto& kid : kids) total += decode(kid).area();
  EXPECT_NEAR(total, parent_box.area(), 1e-9);
}

TEST(GeohashTest, ChildrenAreDistinct) {
  const auto kids = children("u4");
  const std::set<std::string> unique(kids.begin(), kids.end());
  EXPECT_EQ(unique.size(), 32u);
}

TEST(GeohashTest, TopLevelHasNoParent) {
  EXPECT_FALSE(parent("9").has_value());
}

TEST(GeohashTest, MaxPrecisionHasNoChildren) {
  EXPECT_THROW((void)children("bbbbbbbbbbbb"), std::invalid_argument);
}

TEST(GeohashTest, PaperNeighborExample) {
  // Paper Fig 1a: neighbors of 9q8y7.
  const std::set<std::string> expected = {"9q8yd", "9q8ye", "9q8ys", "9q8yk",
                                          "9q8yh", "9q8y5", "9q8y4", "9q8y6"};
  const auto actual = neighbors("9q8y7");
  EXPECT_EQ(std::set<std::string>(actual.begin(), actual.end()), expected);
}

TEST(GeohashTest, NeighborSymmetry) {
  Rng rng(3);
  const std::pair<Direction, Direction> opposite[] = {
      {Direction::N, Direction::S},
      {Direction::E, Direction::W},
      {Direction::NE, Direction::SW},
      {Direction::SE, Direction::NW}};
  for (int i = 0; i < 100; ++i) {
    const LatLng p{rng.uniform(-80.0, 80.0), rng.uniform(-179.0, 179.0)};
    const std::string gh = encode(p, 5);
    for (auto [fwd, bwd] : opposite) {
      const auto n = neighbor(gh, fwd);
      ASSERT_TRUE(n.has_value());
      EXPECT_EQ(*neighbor(*n, bwd), gh) << gh;
    }
  }
}

TEST(GeohashTest, NeighborsShareBoundary) {
  const BoundingBox base = decode("9q8y7");
  for (const auto& n : neighbors("9q8y7")) {
    const BoundingBox nb = decode(n);
    // Closed boxes of adjacent cells touch; open interiors do not overlap.
    EXPECT_FALSE(base.intersects(nb)) << n;
    EXPECT_TRUE(base.lat_max >= nb.lat_min && nb.lat_max >= base.lat_min);
    EXPECT_TRUE(base.lng_max >= nb.lng_min && nb.lng_max >= base.lng_min);
  }
}

TEST(GeohashTest, PolarCellsHaveFewerNeighbors) {
  const std::string north = encode({89.9, 0.0}, 4);
  const auto ns = neighbors(north);
  EXPECT_LT(ns.size(), 8u);  // no northern neighbors past the pole
  EXPECT_GE(ns.size(), 5u);
}

TEST(GeohashTest, LongitudeWrapAround) {
  const std::string east_edge = encode({0.0, 179.9}, 3);
  const auto e = neighbor(east_edge, Direction::E);
  ASSERT_TRUE(e.has_value());
  EXPECT_LT(decode_center(*e).lng, 0.0);  // wrapped onto the western hemisphere
}

TEST(GeohashTest, AntipodeIsDiametricallyOpposite) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const LatLng p{rng.uniform(-80.0, 80.0), rng.uniform(-179.0, 179.0)};
    const std::string gh = encode(p, 5);
    const LatLng c = decode_center(gh);
    const LatLng a = decode_center(antipode(gh));
    EXPECT_NEAR(a.lat, -c.lat, cell_height_deg(5));
    const double dlng = std::abs(a.lng - c.lng);
    EXPECT_NEAR(std::min(dlng, 360.0 - dlng), 180.0, cell_width_deg(5));
  }
}

TEST(GeohashTest, AntipodeIsInvolutionUpToCell) {
  const std::string gh = "9q8y7";
  const std::string back = antipode(antipode(gh));
  // Returning to the same cell after two antipodes (center-snapping keeps it
  // within the original cell).
  EXPECT_EQ(back, gh);
}

TEST(GeohashTest, CoveringContainsAllIntersectingCells) {
  const BoundingBox box{37.0, 38.5, -123.0, -121.0};
  const auto cells = covering(box, 4);
  EXPECT_FALSE(cells.empty());
  EXPECT_EQ(cells.size(), covering_size(box, 4));
  const std::set<std::string> cell_set(cells.begin(), cells.end());
  EXPECT_EQ(cell_set.size(), cells.size());  // no duplicates
  for (const auto& gh : cells)
    EXPECT_TRUE(decode(gh).intersects(box)) << gh;
  // Points sampled inside the box always land in a covered cell.
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const LatLng p{rng.uniform(box.lat_min + 1e-6, box.lat_max - 1e-6),
                   rng.uniform(box.lng_min + 1e-6, box.lng_max - 1e-6)};
    EXPECT_TRUE(cell_set.contains(encode(p, 4)));
  }
}

TEST(GeohashTest, CoveringAlignedBoxIsExact) {
  // A box exactly equal to one geohash cell covers exactly that cell.
  const BoundingBox cell_box = decode("9q8y");
  const auto cells = covering(cell_box, 4);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0], "9q8y");
}

TEST(GeohashTest, CoveringGrowsWithPrecision) {
  const BoundingBox box{30.0, 34.0, -100.0, -92.0};  // state-sized (4°, 8°)
  std::size_t prev = 0;
  for (int p = 2; p <= 6; ++p) {
    const std::size_t n = covering_size(box, p);
    EXPECT_GT(n, prev);
    prev = n;
  }
  // At precision 6 a state-sized box needs tens of thousands of cells.
  EXPECT_GT(prev, 10000u);
}

TEST(GeohashTest, CoveringSizeMatchesEnumeration) {
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    const double lat = rng.uniform(-60.0, 50.0);
    const double lng = rng.uniform(-170.0, 150.0);
    const BoundingBox box{lat, lat + rng.uniform(0.2, 8.0), lng,
                          lng + rng.uniform(0.2, 16.0)};
    for (int p : {2, 3, 4}) {
      EXPECT_EQ(covering(box, p).size(), covering_size(box, p));
    }
  }
}

TEST(GeohashTest, PackUnpackRoundTrip) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const LatLng p{rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)};
    for (int precision : {1, 2, 5, 8, 12}) {
      const std::string gh = encode(p, precision);
      EXPECT_EQ(unpack(pack(gh)), gh);
    }
  }
}

TEST(GeohashTest, PackDistinguishesLengths) {
  // "9" vs "90": prefix relationships must not collide.
  EXPECT_NE(pack("9"), pack("90"));
  EXPECT_NE(pack("s0"), pack("s00"));
}

TEST(GeohashTest, UnpackRejectsGarbage) {
  EXPECT_THROW((void)unpack(0), std::invalid_argument);
  EXPECT_THROW((void)unpack(0xFULL << 60), std::invalid_argument);
}

TEST(GeohashTest, UnpackRejectsBitsAboveLength) {
  // Regression (found by the geohash fuzz harness): bits above the packed
  // characters were silently ignored, so distinct u64 keys aliased the same
  // hash and pack(unpack(x)) != x.
  const std::uint64_t good = pack("9q");
  EXPECT_EQ(unpack(good), "9q");
  EXPECT_THROW((void)unpack(good | (1ULL << 10)), std::invalid_argument);
  EXPECT_THROW((void)unpack(good | (1ULL << 59)), std::invalid_argument);
}

TEST(GeohashTest, EncodeRejectsNaN) {
  // Regression (found by the geohash fuzz harness): NaN compares false
  // against both range bounds, so NaN coordinates encoded to garbage
  // instead of throwing.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)encode({nan, 0.0}, 6), std::invalid_argument);
  EXPECT_THROW((void)encode({0.0, nan}, 6), std::invalid_argument);
  EXPECT_THROW((void)encode({nan, nan}, 6), std::invalid_argument);
}

// --- Integer kernel vs the string codec ----------------------------------

/// Random hashes at every precision, plus the cells at both poles and on
/// both sides of the antimeridian (where the neighbour arithmetic must cut
/// off or wrap).
std::vector<std::string> kernel_cases() {
  Rng rng(23);
  std::vector<std::string> out;
  for (int precision = 1; precision <= kMaxPrecision; ++precision) {
    for (int i = 0; i < 400; ++i) {
      std::string gh;
      for (int c = 0; c < precision; ++c)
        gh.push_back(kAlphabet[static_cast<std::size_t>(rng.uniform_int(0, 31))]);
      out.push_back(gh);
    }
    for (double lat : {-90.0, -89.9999999, -45.0, 0.0, 45.0, 89.9999999, 90.0})
      for (double lng : {-180.0, -179.9999999, 0.0, 179.9999999, 180.0})
        out.push_back(encode({lat, lng}, precision));
  }
  return out;
}

std::vector<std::uint64_t> packed(const std::vector<std::string>& hashes) {
  std::vector<std::uint64_t> out;
  for (const auto& gh : hashes) out.push_back(pack(gh));
  return out;
}

TEST(GeohashKernelTest, PackedPrecisionIsTheLength) {
  for (const auto& gh : kernel_cases())
    EXPECT_EQ(packed_precision(pack(gh)), static_cast<int>(gh.size())) << gh;
}

TEST(GeohashKernelTest, DecodePackedMatchesDecode) {
  for (const auto& gh : kernel_cases())
    EXPECT_EQ(decode_packed(pack(gh)), decode(gh)) << gh;  // bit-equal doubles
}

TEST(GeohashKernelTest, NeighborsPackedMatchNeighbors) {
  for (const auto& gh : kernel_cases()) {
    const PackedNeighbors actual = neighbors_packed(pack(gh));
    EXPECT_EQ(std::vector<std::uint64_t>(actual.begin(), actual.end()),
              packed(neighbors(gh)))
        << gh;
  }
}

TEST(GeohashKernelTest, PolarAndAntimeridianNeighborsMatch) {
  // The corner cells get their own assertions so a regression names them.
  for (int precision = 1; precision <= kMaxPrecision; ++precision) {
    for (const LatLng corner : {LatLng{90.0, 180.0}, LatLng{90.0, -180.0},
                                LatLng{-90.0, 180.0}, LatLng{-90.0, -180.0}}) {
      const std::string gh = encode(corner, precision);
      const PackedNeighbors actual = neighbors_packed(pack(gh));
      EXPECT_EQ(actual.size(), 5u) << gh;  // 3 cut off at the pole
      EXPECT_EQ(std::vector<std::uint64_t>(actual.begin(), actual.end()),
                packed(neighbors(gh)))
          << gh;
    }
  }
}

TEST(GeohashKernelTest, ParentPackedMatchesParent) {
  for (const auto& gh : kernel_cases()) {
    const auto expected = parent(gh);
    const auto actual = parent_packed(pack(gh));
    ASSERT_EQ(actual.has_value(), expected.has_value()) << gh;
    if (expected) {
      EXPECT_EQ(*actual, pack(*expected)) << gh;
    }
    for (int precision = 1; precision <= static_cast<int>(gh.size()); ++precision)
      EXPECT_EQ(ancestor_packed(pack(gh), precision),
                pack(gh.substr(0, static_cast<std::size_t>(precision))));
  }
}

TEST(GeohashKernelTest, ChildrenPackedMatchChildren) {
  for (const auto& gh : kernel_cases()) {
    if (gh.size() == static_cast<std::size_t>(kMaxPrecision)) {
      EXPECT_THROW((void)children_packed(pack(gh)), std::invalid_argument);
      continue;
    }
    const auto actual = children_packed(pack(gh));
    EXPECT_EQ(std::vector<std::uint64_t>(actual.begin(), actual.end()),
              packed(children(gh)))
        << gh;
  }
}

TEST(GeohashKernelTest, EncodePackedMatchesEncode) {
  Rng rng(24);
  std::vector<LatLng> points = {{90.0, 180.0},   {-90.0, -180.0}, {90.0, -180.0},
                                {-90.0, 180.0},  {0.0, 0.0},      {90.0, 0.0},
                                {0.0, 180.0},    {-0.0, -0.0},    {45.0, 90.0}};
  for (int i = 0; i < 2000; ++i)
    points.push_back({rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)});
  // Cell corners, exactly on bisection boundaries and one ulp either side.
  for (const auto& gh : kernel_cases()) {
    const BoundingBox box = decode(gh);
    for (const LatLng corner : {LatLng{box.lat_min, box.lng_min},
                                LatLng{box.lat_max, box.lng_max}}) {
      points.push_back(corner);
      points.push_back({std::nextafter(corner.lat, -90.0),
                        std::nextafter(corner.lng, -180.0)});
      points.push_back({std::nextafter(corner.lat, 90.0),
                        std::nextafter(corner.lng, 180.0)});
    }
  }
  for (const LatLng& p : points)
    for (int precision = 1; precision <= kMaxPrecision; ++precision)
      EXPECT_EQ(encode_packed(p, precision), pack(encode(p, precision)))
          << p.lat << "," << p.lng << " @" << precision;
}

TEST(GeohashKernelTest, CoveringPackedMatchesCovering) {
  Rng rng(25);
  for (int i = 0; i < 300; ++i) {
    const int precision = static_cast<int>(rng.uniform_int(1, kMaxPrecision));
    // Boxes spanning up to ~12 cells a side, anchored anywhere, clamped to
    // the globe so the polar and antimeridian rows and columns come up.
    const double h = cell_height_deg(precision) * rng.uniform(0.1, 12.0);
    const double w = cell_width_deg(precision) * rng.uniform(0.1, 12.0);
    const double lat = rng.uniform(-90.0, 90.0);
    const double lng = rng.uniform(-180.0, 180.0);
    const BoundingBox box{lat, std::min(90.0, lat + h), lng,
                          std::min(180.0, lng + w)};
    EXPECT_EQ(covering_packed(box, precision), packed(covering(box, precision)))
        << box.to_string() << " @" << precision;
  }
  for (int precision : {1, 2})
    EXPECT_EQ(covering_packed(BoundingBox::whole_world(), precision),
              packed(covering(BoundingBox::whole_world(), precision)));
  // Aligned to cell edges: the open-interior rule decides every boundary.
  const BoundingBox aligned = decode("9q8y");
  EXPECT_EQ(covering_packed(aligned, 5), packed(covering(aligned, 5)));
  EXPECT_EQ(covering_packed(aligned, 4), std::vector<std::uint64_t>{pack("9q8y")});
}

TEST(GeohashKernelTest, RejectsKeysPackCannotProduce) {
  EXPECT_THROW((void)decode_packed(0), std::invalid_argument);
  EXPECT_THROW((void)neighbors_packed(0xDULL << 60), std::invalid_argument);
  EXPECT_THROW((void)parent_packed(pack("9q") | (1ULL << 10)),
               std::invalid_argument);
  EXPECT_THROW((void)ancestor_packed(pack("9q"), 3), std::invalid_argument);
  EXPECT_THROW((void)encode_packed({91.0, 0.0}, 5), std::invalid_argument);
  EXPECT_THROW((void)encode_packed({0.0, 0.0}, 13), std::invalid_argument);
  EXPECT_THROW(
      (void)encode_packed({std::numeric_limits<double>::quiet_NaN(), 0.0}, 5),
      std::invalid_argument);
}

}  // namespace
}  // namespace stash::geohash
