// Geohash: hierarchical base-32 spatial encoding (Niemeyer 1999).
//
// STASH labels the spatial extent of every Cell with a geohash (§IV-A);
// hierarchical edges are derived by dropping/appending characters, lateral
// edges by the 8-neighborhood at equal precision (§IV-B), and the DHT
// partitions data on a geohash prefix (§VI-C).  Hotspot handling (§VII-B.3)
// needs the geohash *antipode*.
//
// Two forms of every operation the hot paths need: the string codec, for
// I/O (labels, JSON, the CLI, fuzzers, the cluster's Clique placement), and
// an integer kernel over pack() keys, for the per-chunk and per-Cell paths
// (freshness dispersion, Cell filters, roll-ups, storage binning).  The
// kernel agrees with the string codec bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/fixed_vector.hpp"
#include "geo/latlng.hpp"

namespace stash::geohash {

inline constexpr std::string_view kAlphabet = "0123456789bcdefghjkmnpqrstuvwxyz";
inline constexpr int kMaxPrecision = 12;
inline constexpr int kChildrenPerCell = 32;

/// 8 compass directions for lateral (spatial) neighbors.
enum class Direction { N, NE, E, SE, S, SW, W, NW };
inline constexpr std::array<Direction, 8> kAllDirections = {
    Direction::N, Direction::NE, Direction::E, Direction::SE,
    Direction::S, Direction::SW, Direction::W, Direction::NW};

/// True iff `gh` is a well-formed geohash (non-empty, valid alphabet,
/// length <= kMaxPrecision).
[[nodiscard]] bool is_valid(std::string_view gh) noexcept;

/// Encodes a point at the given precision (number of characters, 1..12).
[[nodiscard]] std::string encode(const LatLng& point, int precision);

/// Bounding box of a geohash cell. Throws std::invalid_argument on bad input.
[[nodiscard]] BoundingBox decode(std::string_view gh);

/// Center point of a geohash cell.
[[nodiscard]] LatLng decode_center(std::string_view gh);

/// Cell width/height in degrees at a precision.
[[nodiscard]] double cell_width_deg(int precision) noexcept;
[[nodiscard]] double cell_height_deg(int precision) noexcept;

/// Parent (one character shorter). Empty optional for precision-1 hashes.
[[nodiscard]] std::optional<std::string> parent(std::string_view gh);

/// The 32 children (one character longer), in alphabet order.
[[nodiscard]] std::vector<std::string> children(std::string_view gh);

/// Neighbor in a direction; empty optional when it would cross a pole.
[[nodiscard]] std::optional<std::string> neighbor(std::string_view gh,
                                                  Direction dir);

/// All existing neighbors (up to 8), paper Fig 1a.
[[nodiscard]] std::vector<std::string> neighbors(std::string_view gh);

/// Geohash of the diametrically opposite cell (§VII-B.3): latitude negated,
/// longitude rotated by 180°.
[[nodiscard]] std::string antipode(std::string_view gh);

/// All geohash cells at `precision` whose interiors intersect `box`.
/// Cells are returned in row-major (south→north, west→east) order.
[[nodiscard]] std::vector<std::string> covering(const BoundingBox& box,
                                                int precision);

/// Number of cells `covering` would return, without materialising them.
[[nodiscard]] std::size_t covering_size(const BoundingBox& box, int precision);

/// Packs a geohash into a 64-bit integer key (5 bits/char + length nibble);
/// stable and collision-free for precisions 1..12.
[[nodiscard]] std::uint64_t pack(std::string_view gh);
[[nodiscard]] std::string unpack(std::uint64_t packed);

// --- Integer kernel over pack() keys ---------------------------------------
//
// A packed key's 5·p hash bits interleave a longitude cell index
// (ceil(5p/2) bits) with a latitude cell index (floor(5p/2) bits),
// longitude first; the kernel splits them into the two grid indices, does
// its arithmetic there, and re-joins them, one character at a time through
// compile-time tables.  Every function throws std::invalid_argument on a
// key pack() cannot produce (see unpack).

/// Number of characters of a packed hash.
[[nodiscard]] int packed_precision(std::uint64_t packed);

/// decode() of a packed hash.
[[nodiscard]] BoundingBox decode_packed(std::uint64_t packed);
/// pack(encode(point, precision)): the cell encode()'s bisection picks, found
/// with one division per axis and an exact boundary check.
[[nodiscard]] std::uint64_t encode_packed(const LatLng& point, int precision);
/// The prefix of `precision` characters (1..the key's own): a 5-bit shift
/// per character dropped.
[[nodiscard]] std::uint64_t ancestor_packed(std::uint64_t packed, int precision);
/// parent() of a packed hash.
[[nodiscard]] std::optional<std::uint64_t> parent_packed(std::uint64_t packed);
/// children() of a packed hash, in the same (alphabet) order.
[[nodiscard]] std::array<std::uint64_t, kChildrenPerCell> children_packed(
    std::uint64_t packed);

/// neighbors() of a packed hash, same order and count: ±1 on the grid
/// indices, cut off at the poles and wrapped at the antimeridian.
using PackedNeighbors = FixedVector<std::uint64_t, 8>;
[[nodiscard]] PackedNeighbors neighbors_packed(std::uint64_t packed);

/// pack() of every covering() cell, in the same row-major order.
[[nodiscard]] std::vector<std::uint64_t> covering_packed(const BoundingBox& box,
                                                         int precision);

}  // namespace stash::geohash
