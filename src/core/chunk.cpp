#include "core/chunk.hpp"

namespace stash {

std::vector<ChunkKey> chunk_covering(const BoundingBox& area,
                                     const TimeRange& time,
                                     const Resolution& res,
                                     int chunk_precision) {
  const auto prefixes = geohash::covering_packed(
      area, chunk_spatial_precision(res.spatial, chunk_precision));
  const auto bins = temporal_covering(time, res.temporal);
  std::vector<ChunkKey> out;
  out.reserve(prefixes.size() * bins.size());
  for (const std::uint64_t prefix : prefixes)
    for (const auto& bin : bins) out.emplace_back(prefix, bin.pack());
  return out;
}

ChunkNeighbors chunk_neighbors(const ChunkKey& key) {
  ChunkNeighbors out;
  for (const std::uint64_t n : geohash::neighbors_packed(key.prefix))
    out.push_back(ChunkKey(n, key.temporal));
  const TemporalBin bin = key.bin();
  out.push_back(ChunkKey(key.prefix, bin.prev().pack()));
  out.push_back(ChunkKey(key.prefix, bin.next().pack()));
  return out;
}

std::vector<ChunkChildLevel> chunk_child_levels(const Resolution& res,
                                                const ChunkKey& chunk,
                                                int chunk_precision) {
  std::vector<ChunkChildLevel> out;
  if (res.spatial < geohash::kMaxPrecision) {
    ChunkChildLevel level{{res.spatial + 1, res.temporal}, {}, true};
    if (res.spatial < chunk_precision) {
      // Child chunks are the 32 finer prefixes.
      for (const std::uint64_t child : geohash::children_packed(chunk.prefix))
        level.chunks.emplace_back(child, chunk.temporal);
    } else {
      // Chunk precision saturated: the child level shares this chunk key.
      level.chunks.push_back(chunk);
    }
    out.push_back(std::move(level));
  }
  if (const auto finer_t = finer(res.temporal)) {
    ChunkChildLevel level{{res.spatial, *finer_t}, {}, false};
    for (const auto& child_bin : chunk.bin().children())
      level.chunks.emplace_back(chunk.prefix, child_bin.pack());
    out.push_back(std::move(level));
  }
  return out;
}

}  // namespace stash
