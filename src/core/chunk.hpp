// Chunks: the residency / fetch granularity of STASH.
//
// §IV-D: the summary data is stored as "a collection of identifiable
// blocks or chunks with specific spatiotemporal bounds ... that can be
// rummaged and reused from the in-memory store", and the PLM is consulted
// "to identify and retrieve missing chunks".  A chunk groups the Cells of
// one level that share a geohash prefix (default precision 4) and one
// temporal bin: fine-grained enough that panning reuses most of a query's
// footprint, coarse enough that a probe per chunk (not per Cell) keeps
// discovery O(1)-ish per region.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fixed_vector.hpp"
#include "common/hash.hpp"
#include "core/freshness.hpp"
#include "geo/cell_key.hpp"

namespace stash {

struct ChunkKey {
  std::uint64_t prefix = 0;    // geohash::pack of the chunk's spatial prefix
  std::uint32_t temporal = 0;  // TemporalBin::pack of the Cells' bin

  ChunkKey() = default;
  ChunkKey(std::string_view prefix_gh, const TemporalBin& bin)
      : prefix(geohash::pack(prefix_gh)), temporal(bin.pack()) {}
  ChunkKey(std::uint64_t packed_prefix, std::uint32_t packed_bin)
      : prefix(packed_prefix), temporal(packed_bin) {}

  [[nodiscard]] std::string prefix_str() const { return geohash::unpack(prefix); }
  [[nodiscard]] TemporalBin bin() const { return TemporalBin::unpack(temporal); }
  [[nodiscard]] BoundingBox bounds() const {
    return geohash::decode_packed(prefix);
  }
  [[nodiscard]] std::string label() const {
    return prefix_str() + "@" + bin().label();
  }

  /// Epoch days of the storage blocks contributing to this chunk
  /// (1 for Day/Hour bins, 28–31 for Month, 365/366 for Year).
  [[nodiscard]] std::int64_t first_day() const {
    return bin().range().begin / 86400;
  }
  [[nodiscard]] std::size_t day_count() const {
    const TimeRange r = bin().range();
    return static_cast<std::size_t>((r.end - r.begin) / 86400 +
                                    ((r.end - r.begin) % 86400 != 0 ? 1 : 0));
  }

  bool operator==(const ChunkKey&) const = default;
  auto operator<=>(const ChunkKey&) const = default;
};

struct ChunkKeyHash {
  [[nodiscard]] std::size_t operator()(const ChunkKey& k) const noexcept {
    std::uint64_t h = mix64(k.prefix);
    hash_combine(h, k.temporal);
    return static_cast<std::size_t>(h);
  }
};

/// Spatial precision of chunks holding Cells of spatial resolution
/// `cell_precision`: Cells coarser than the chunk precision are their own
/// chunks.
[[nodiscard]] constexpr int chunk_spatial_precision(int cell_precision,
                                                    int chunk_precision) noexcept {
  return cell_precision < chunk_precision ? cell_precision : chunk_precision;
}

/// The chunks covering `area` x `time` at `res`, prefix-major and
/// bin-minor: every chunk-precision geohash of the area crossed with every
/// temporal bin of the range.  The one enumeration behind partition
/// planning, the degraded fallback's per-level probe and routing lookups.
[[nodiscard]] std::vector<ChunkKey> chunk_covering(const BoundingBox& area,
                                                   const TimeRange& time,
                                                   const Resolution& res,
                                                   int chunk_precision);

/// The chunk a Cell belongs to.
[[nodiscard]] inline ChunkKey chunk_of(const CellKey& cell, int chunk_precision) {
  const int precision = chunk_spatial_precision(
      geohash::packed_precision(cell.spatial), chunk_precision);
  return ChunkKey(geohash::ancestor_packed(cell.spatial, precision), cell.temporal);
}

/// Lateral neighborhood of a chunk: up to 8 spatial neighbors at the same
/// bin (geohash::neighbors order) plus the previous and next bin — the grey
/// region of Fig 3 that receives dispersed freshness.
using ChunkNeighbors = FixedVector<ChunkKey, 10>;
[[nodiscard]] ChunkNeighbors chunk_neighbors(const ChunkKey& key);

/// Calls fn(key, summary) for each of `chunk`'s Cells that intersects
/// box × time.  Every Cell of a chunk shares the chunk's bin and lies in
/// its prefix's box, so the time test runs once per chunk and a chunk
/// inside the box needs no per-Cell spatial test.
template <typename Cells, typename Fn>
void for_each_cell_within(const ChunkKey& chunk, const Cells& cells,
                          const BoundingBox& box, const TimeRange& time,
                          Fn&& fn) {
  if (!chunk.bin().range().intersects(time)) return;
  const BoundingBox chunk_box = chunk.bounds();
  if (!chunk_box.intersects(box)) return;
  const bool inside = box.contains(chunk_box);
  for (const auto& [key, summary] : cells)
    if (inside || key.bounds().intersects(box)) fn(key, summary);
}

/// One hierarchically finer level whose chunks jointly cover `chunk`: the
/// candidate source of a §V-B roll-up synthesis.  `spatial` tells which
/// axis was refined (geohash children vs temporal-bin children) and hence
/// how a child Cell maps to its parent.
struct ChunkChildLevel {
  Resolution res;
  std::vector<ChunkKey> chunks;
  bool spatial = true;
};

/// The up-to-two child levels of a chunk at `res` (spatial first — the
/// common roll-up case).  Shared by QueryEngine::synthesize and the
/// GraphAuditor roll-up consistency check so the two can never disagree
/// about what "covered by children" means.
[[nodiscard]] std::vector<ChunkChildLevel> chunk_child_levels(
    const Resolution& res, const ChunkKey& chunk, int chunk_precision);

}  // namespace stash
