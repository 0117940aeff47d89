#include "geo/geohash.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace stash::geohash {
namespace {

/// Reverse alphabet lookup: character -> value 0..31, or -1.
constexpr std::array<int, 128> build_reverse_table() {
  std::array<int, 128> table{};
  for (auto& v : table) v = -1;
  for (int i = 0; i < 32; ++i)
    table[static_cast<std::size_t>(kAlphabet[static_cast<std::size_t>(i)])] = i;
  return table;
}
constexpr auto kReverse = build_reverse_table();

int char_value(char c) {
  const auto uc = static_cast<unsigned char>(c);
  const int v = uc < 128 ? kReverse[uc] : -1;
  if (v < 0) throw std::invalid_argument("geohash: invalid character");
  return v;
}

void check_valid(std::string_view gh) {
  if (!is_valid(gh)) throw std::invalid_argument("geohash: malformed hash");
}

/// Number of longitude / latitude bits at a precision (bits alternate
/// starting with longitude).
constexpr int lng_bits(int precision) noexcept { return (5 * precision + 1) / 2; }
constexpr int lat_bits(int precision) noexcept { return (5 * precision) / 2; }

}  // namespace

bool is_valid(std::string_view gh) noexcept {
  if (gh.empty() || gh.size() > static_cast<std::size_t>(kMaxPrecision))
    return false;
  for (char c : gh) {
    const auto uc = static_cast<unsigned char>(c);
    if (uc >= 128 || kReverse[uc] < 0) return false;
  }
  return true;
}

std::string encode(const LatLng& point, int precision) {
  if (precision < 1 || precision > kMaxPrecision)
    throw std::invalid_argument("geohash::encode: precision out of range");
  // Negated range check so NaN coordinates fail it too (NaN compares false
  // against both bounds, so the direct form silently encoded garbage —
  // found by the geohash fuzz harness).
  if (!(point.lat >= -90.0 && point.lat <= 90.0 && point.lng >= -180.0 &&
        point.lng <= 180.0))
    throw std::invalid_argument("geohash::encode: point out of range");

  double lat_lo = -90.0, lat_hi = 90.0;
  double lng_lo = -180.0, lng_hi = 180.0;
  std::string out;
  out.reserve(static_cast<std::size_t>(precision));
  bool even = true;  // even bit positions refine longitude
  int bit = 0;
  int value = 0;
  while (out.size() < static_cast<std::size_t>(precision)) {
    if (even) {
      const double mid = (lng_lo + lng_hi) / 2.0;
      if (point.lng >= mid) {
        value = value * 2 + 1;
        lng_lo = mid;
      } else {
        value *= 2;
        lng_hi = mid;
      }
    } else {
      const double mid = (lat_lo + lat_hi) / 2.0;
      if (point.lat >= mid) {
        value = value * 2 + 1;
        lat_lo = mid;
      } else {
        value *= 2;
        lat_hi = mid;
      }
    }
    even = !even;
    if (++bit == 5) {
      out.push_back(kAlphabet[static_cast<std::size_t>(value)]);
      bit = 0;
      value = 0;
    }
  }
  return out;
}

BoundingBox decode(std::string_view gh) {
  check_valid(gh);
  double lat_lo = -90.0, lat_hi = 90.0;
  double lng_lo = -180.0, lng_hi = 180.0;
  bool even = true;
  for (char c : gh) {
    const int value = char_value(c);
    for (int b = 4; b >= 0; --b) {
      const int bit = (value >> b) & 1;
      if (even) {
        const double mid = (lng_lo + lng_hi) / 2.0;
        (bit != 0 ? lng_lo : lng_hi) = mid;
      } else {
        const double mid = (lat_lo + lat_hi) / 2.0;
        (bit != 0 ? lat_lo : lat_hi) = mid;
      }
      even = !even;
    }
  }
  return {lat_lo, lat_hi, lng_lo, lng_hi};
}

LatLng decode_center(std::string_view gh) { return decode(gh).center(); }

double cell_width_deg(int precision) noexcept {
  return 360.0 / std::exp2(lng_bits(precision));
}

double cell_height_deg(int precision) noexcept {
  return 180.0 / std::exp2(lat_bits(precision));
}

std::optional<std::string> parent(std::string_view gh) {
  check_valid(gh);
  if (gh.size() == 1) return std::nullopt;
  return std::string(gh.substr(0, gh.size() - 1));
}

std::vector<std::string> children(std::string_view gh) {
  check_valid(gh);
  if (gh.size() >= static_cast<std::size_t>(kMaxPrecision))
    throw std::invalid_argument("geohash::children: already at max precision");
  std::vector<std::string> out;
  out.reserve(kChildrenPerCell);
  for (char c : kAlphabet) {
    std::string child(gh);
    child.push_back(c);
    out.push_back(std::move(child));
  }
  return out;
}

std::optional<std::string> neighbor(std::string_view gh, Direction dir) {
  const BoundingBox box = decode(gh);
  const LatLng c = box.center();
  double dlat = 0.0;
  double dlng = 0.0;
  switch (dir) {
    case Direction::N: dlat = 1; break;
    case Direction::NE: dlat = 1; dlng = 1; break;
    case Direction::E: dlng = 1; break;
    case Direction::SE: dlat = -1; dlng = 1; break;
    case Direction::S: dlat = -1; break;
    case Direction::SW: dlat = -1; dlng = -1; break;
    case Direction::W: dlng = -1; break;
    case Direction::NW: dlat = 1; dlng = -1; break;
  }
  double lat = c.lat + dlat * box.height();
  if (lat > 90.0 || lat < -90.0) return std::nullopt;  // would cross a pole
  double lng = c.lng + dlng * box.width();
  if (lng >= 180.0) lng -= 360.0;
  if (lng < -180.0) lng += 360.0;
  return encode({lat, lng}, static_cast<int>(gh.size()));
}

std::vector<std::string> neighbors(std::string_view gh) {
  std::vector<std::string> out;
  out.reserve(8);
  for (Direction d : kAllDirections)
    if (auto n = neighbor(gh, d)) out.push_back(std::move(*n));
  return out;
}

std::string antipode(std::string_view gh) {
  const LatLng c = decode_center(gh);
  double lng = c.lng + 180.0;
  if (lng >= 180.0) lng -= 360.0;
  return encode({-c.lat, lng}, static_cast<int>(gh.size()));
}

namespace {

struct IndexRange {
  std::int64_t lo = 0;
  std::int64_t hi = -1;  // inclusive; empty when hi < lo
  [[nodiscard]] std::int64_t count() const noexcept {
    return hi < lo ? 0 : hi - lo + 1;
  }
};

/// Grid cells (size `step`, origin `origin`) whose interior intersects
/// [min, max], clamped to `max_index` cells.
IndexRange grid_range(double min, double max, double origin, double step,
                      std::int64_t max_index) {
  IndexRange r;
  r.lo = static_cast<std::int64_t>(std::floor((min - origin) / step));
  // Cell r.lo must have its top strictly above `min` to share interior.
  if (origin + static_cast<double>(r.lo + 1) * step <= min) ++r.lo;
  r.hi = static_cast<std::int64_t>(std::floor((max - origin) / step));
  // Cell r.hi must have its bottom strictly below `max`.
  if (origin + static_cast<double>(r.hi) * step >= max) --r.hi;
  r.lo = std::max<std::int64_t>(r.lo, 0);
  r.hi = std::min<std::int64_t>(r.hi, max_index - 1);
  return r;
}

/// The latitude and longitude index ranges of a covering; `who` names the
/// caller in the error message.
struct CoveringRanges {
  IndexRange lat;
  IndexRange lng;
  [[nodiscard]] std::size_t count() const noexcept {
    return static_cast<std::size_t>(lat.count()) *
           static_cast<std::size_t>(lng.count());
  }
};

CoveringRanges covering_ranges(const BoundingBox& box, int precision,
                               const char* who) {
  if (precision < 1 || precision > kMaxPrecision)
    throw std::invalid_argument(std::string(who) + ": precision out of range");
  if (!box.valid()) throw std::invalid_argument(std::string(who) + ": bad box");
  return {grid_range(box.lat_min, box.lat_max, -90.0, cell_height_deg(precision),
                     std::int64_t{1} << lat_bits(precision)),
          grid_range(box.lng_min, box.lng_max, -180.0, cell_width_deg(precision),
                     std::int64_t{1} << lng_bits(precision))};
}

}  // namespace

std::vector<std::string> covering(const BoundingBox& box, int precision) {
  const CoveringRanges r = covering_ranges(box, precision, "geohash::covering");
  const double h = cell_height_deg(precision);
  const double w = cell_width_deg(precision);
  std::vector<std::string> out;
  out.reserve(r.count());
  for (std::int64_t i = r.lat.lo; i <= r.lat.hi; ++i) {
    const double lat = -90.0 + (static_cast<double>(i) + 0.5) * h;
    for (std::int64_t j = r.lng.lo; j <= r.lng.hi; ++j) {
      const double lng = -180.0 + (static_cast<double>(j) + 0.5) * w;
      out.push_back(encode({lat, lng}, precision));
    }
  }
  return out;
}

std::size_t covering_size(const BoundingBox& box, int precision) {
  return covering_ranges(box, precision, "geohash::covering_size").count();
}

std::uint64_t pack(std::string_view gh) {
  check_valid(gh);
  std::uint64_t bits = 0;
  for (char c : gh) bits = (bits << 5) | static_cast<std::uint64_t>(char_value(c));
  return (static_cast<std::uint64_t>(gh.size()) << 60) | bits;
}

std::string unpack(std::uint64_t packed) {
  const auto len = static_cast<std::size_t>(packed >> 60);
  if (len == 0 || len > static_cast<std::size_t>(kMaxPrecision))
    throw std::invalid_argument("geohash::unpack: bad length nibble");
  std::string out(len, '0');
  std::uint64_t bits = packed & ((1ULL << 60) - 1);
  for (std::size_t i = len; i-- > 0;) {
    out[i] = kAlphabet[static_cast<std::size_t>(bits & 31)];
    bits >>= 5;
  }
  // Bits above the packed characters must be zero, or two different keys
  // alias the same hash (and pack(unpack(x)) != x) — rejecting them keeps
  // the wire decoder strict.  Found by the pack/unpack fuzz harness.
  if (bits != 0)
    throw std::invalid_argument("geohash::unpack: garbage bits above length");
  return out;
}

// --- Integer kernel ---------------------------------------------------------

namespace {

/// One character's share of the two grid indices.  A character at an even
/// position starts on a longitude bit (3 lng + 2 lat bits), one at an odd
/// position on a latitude bit (2 lng + 3 lat), since 5 is odd.
struct CharBits {
  std::uint8_t lng = 0;
  std::uint8_t lat = 0;
};

constexpr int lng_width(int parity) noexcept { return 3 - parity; }
constexpr int lat_width(int parity) noexcept { return 2 + parity; }

/// kSplit[parity][value]: the lng and lat bits of a character value.
constexpr std::array<std::array<CharBits, 32>, 2> build_split_table() {
  std::array<std::array<CharBits, 32>, 2> table{};
  for (int parity = 0; parity < 2; ++parity) {
    for (int value = 0; value < 32; ++value) {
      CharBits bits;
      bool lng_turn = parity == 0;
      for (int b = 4; b >= 0; --b) {
        const auto bit = static_cast<std::uint8_t>((value >> b) & 1);
        if (lng_turn) {
          bits.lng = static_cast<std::uint8_t>(bits.lng << 1 | bit);
        } else {
          bits.lat = static_cast<std::uint8_t>(bits.lat << 1 | bit);
        }
        lng_turn = !lng_turn;
      }
      table[static_cast<std::size_t>(parity)][static_cast<std::size_t>(value)] = bits;
    }
  }
  return table;
}
constexpr auto kSplit = build_split_table();

/// kJoin[parity][lng << lat_width | lat]: the inverse of kSplit.
constexpr std::array<std::array<std::uint8_t, 32>, 2> build_join_table() {
  std::array<std::array<std::uint8_t, 32>, 2> table{};
  for (int parity = 0; parity < 2; ++parity) {
    for (int value = 0; value < 32; ++value) {
      const CharBits bits =
          kSplit[static_cast<std::size_t>(parity)][static_cast<std::size_t>(value)];
      table[static_cast<std::size_t>(parity)]
           [static_cast<std::size_t>(bits.lng << lat_width(parity) | bits.lat)] =
               static_cast<std::uint8_t>(value);
    }
  }
  return table;
}
constexpr auto kJoin = build_join_table();

constexpr std::uint64_t kHashBitsMask = (std::uint64_t{1} << 60) - 1;

/// The cell encode()'s bisection picks for `v` on an axis of 2^bits cells
/// spanning [origin, -origin]: the k with origin + k·step <= v <
/// origin + (k+1)·step, the last cell closed above.  Every bisection
/// midpoint is such a boundary and every boundary is an exact double, so
/// comparing against the boundaries reproduces each bisection decision.
/// The quotient only estimates k (v - origin can round); one exact
/// comparison corrects it.
std::uint32_t axis_cell(double v, double origin, int bits) noexcept {
  const std::int64_t cells = std::int64_t{1} << bits;
  const double step = -2.0 * origin / static_cast<double>(cells);
  std::int64_t k = std::clamp<std::int64_t>(
      static_cast<std::int64_t>((v - origin) / step), 0, cells - 1);
  if (origin + static_cast<double>(k) * step > v) {
    --k;
  } else if (k + 1 < cells && origin + static_cast<double>(k + 1) * step <= v) {
    ++k;
  }
  return static_cast<std::uint32_t>(k);
}

std::uint64_t with_length(std::uint64_t bits, int precision) noexcept {
  return static_cast<std::uint64_t>(precision) << 60 | bits;
}

/// Cell indices on the grid of one precision: `lat` counts rows north from
/// -90°, `lng` columns east from -180°.
struct GridIndex {
  std::uint32_t lat = 0;
  std::uint32_t lng = 0;
};

GridIndex grid_index(std::uint64_t packed) {
  const int precision = packed_precision(packed);
  GridIndex out;
  for (int i = 0; i < precision; ++i) {
    const int parity = i & 1;
    const auto value = (packed >> (5 * (precision - 1 - i))) & 31;
    const CharBits bits = kSplit[static_cast<std::size_t>(parity)][value];
    out.lng = out.lng << lng_width(parity) | bits.lng;
    out.lat = out.lat << lat_width(parity) | bits.lat;
  }
  return out;
}

/// The packed hash of a grid cell; indices must lie on the precision's grid.
std::uint64_t pack_grid(GridIndex index, int precision) noexcept {
  std::uint64_t bits = 0;
  for (int i = precision - 1; i >= 0; --i) {
    const int parity = i & 1;
    const std::uint32_t lng = index.lng & ((1U << lng_width(parity)) - 1);
    const std::uint32_t lat = index.lat & ((1U << lat_width(parity)) - 1);
    index.lng >>= lng_width(parity);
    index.lat >>= lat_width(parity);
    bits |= std::uint64_t{kJoin[static_cast<std::size_t>(parity)]
                               [lng << lat_width(parity) | lat]}
            << (5 * (precision - 1 - i));
  }
  return with_length(bits, precision);
}

}  // namespace

int packed_precision(std::uint64_t packed) {
  const auto len = static_cast<int>(packed >> 60);
  if (len < 1 || len > kMaxPrecision)
    throw std::invalid_argument("geohash: bad packed length nibble");
  if (((packed & kHashBitsMask) >> (5 * len)) != 0)
    throw std::invalid_argument("geohash: garbage bits above packed length");
  return len;
}

BoundingBox decode_packed(std::uint64_t packed) {
  // Every bisection bound is -90 + k·h (or -180 + k·w) exactly, so the
  // closed form reproduces decode() bit for bit.
  const GridIndex g = grid_index(packed);
  const int precision = static_cast<int>(packed >> 60);
  const double h =
      180.0 / static_cast<double>(std::int64_t{1} << lat_bits(precision));
  const double w =
      360.0 / static_cast<double>(std::int64_t{1} << lng_bits(precision));
  return {-90.0 + static_cast<double>(g.lat) * h,
          -90.0 + static_cast<double>(g.lat + 1) * h,
          -180.0 + static_cast<double>(g.lng) * w,
          -180.0 + static_cast<double>(g.lng + 1) * w};
}

std::uint64_t encode_packed(const LatLng& point, int precision) {
  if (precision < 1 || precision > kMaxPrecision)
    throw std::invalid_argument("geohash::encode_packed: precision out of range");
  if (!(point.lat >= -90.0 && point.lat <= 90.0 && point.lng >= -180.0 &&
        point.lng <= 180.0))
    throw std::invalid_argument("geohash::encode_packed: point out of range");
  return pack_grid({axis_cell(point.lat, -90.0, lat_bits(precision)),
                    axis_cell(point.lng, -180.0, lng_bits(precision))},
                   precision);
}

std::uint64_t ancestor_packed(std::uint64_t packed, int precision) {
  const int own = packed_precision(packed);
  if (precision < 1 || precision > own)
    throw std::invalid_argument("geohash::ancestor_packed: bad precision");
  return with_length((packed & kHashBitsMask) >> (5 * (own - precision)),
                     precision);
}

std::optional<std::uint64_t> parent_packed(std::uint64_t packed) {
  const int precision = packed_precision(packed);
  if (precision == 1) return std::nullopt;
  return ancestor_packed(packed, precision - 1);
}

std::array<std::uint64_t, kChildrenPerCell> children_packed(
    std::uint64_t packed) {
  const int precision = packed_precision(packed);
  if (precision >= kMaxPrecision)
    throw std::invalid_argument(
        "geohash::children_packed: already at max precision");
  std::array<std::uint64_t, kChildrenPerCell> out{};
  const std::uint64_t first = (packed & kHashBitsMask) << 5;
  for (std::uint64_t c = 0; c < out.size(); ++c)
    out[c] = with_length(first | c, precision + 1);
  return out;
}

PackedNeighbors neighbors_packed(std::uint64_t packed) {
  const GridIndex g = grid_index(packed);
  const int precision = static_cast<int>(packed >> 60);
  const std::uint32_t lat_rows = 1U << lat_bits(precision);
  const std::uint32_t lng_mask = (1U << lng_bits(precision)) - 1;
  // {dlat, dlng} in kAllDirections order: N NE E SE S SW W NW.
  static constexpr std::array<std::array<int, 2>, 8> kSteps = {
      {{1, 0}, {1, 1}, {0, 1}, {-1, 1}, {-1, 0}, {-1, -1}, {0, -1}, {1, -1}}};
  PackedNeighbors out;
  for (const auto& [dlat, dlng] : kSteps) {
    // Unsigned wrap turns row -1 into a huge value, so one compare cuts
    // both poles.
    const std::uint32_t lat = g.lat + static_cast<std::uint32_t>(dlat);
    if (lat >= lat_rows) continue;
    const std::uint32_t lng = (g.lng + static_cast<std::uint32_t>(dlng)) & lng_mask;
    out.push_back(pack_grid({lat, lng}, precision));
  }
  return out;
}

std::vector<std::uint64_t> covering_packed(const BoundingBox& box,
                                           int precision) {
  const CoveringRanges r =
      covering_ranges(box, precision, "geohash::covering_packed");
  std::vector<std::uint64_t> out;
  out.reserve(r.count());
  for (std::int64_t i = r.lat.lo; i <= r.lat.hi; ++i)
    for (std::int64_t j = r.lng.lo; j <= r.lng.hi; ++j)
      out.push_back(pack_grid({static_cast<std::uint32_t>(i),
                               static_cast<std::uint32_t>(j)},
                              precision));
  return out;
}

}  // namespace stash::geohash
