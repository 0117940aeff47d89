#include "core/chunk.hpp"

namespace stash {

std::vector<ChunkKey> chunk_covering(const BoundingBox& area,
                                     const TimeRange& time,
                                     const Resolution& res,
                                     int chunk_precision) {
  const auto prefixes = geohash::covering(
      area, chunk_spatial_precision(res.spatial, chunk_precision));
  const auto bins = temporal_covering(time, res.temporal);
  std::vector<ChunkKey> out;
  out.reserve(prefixes.size() * bins.size());
  for (const auto& prefix : prefixes)
    for (const auto& bin : bins) out.emplace_back(prefix, bin);
  return out;
}

std::vector<ChunkKey> chunk_neighbors(const ChunkKey& key) {
  std::vector<ChunkKey> out;
  out.reserve(10);
  const std::string prefix = key.prefix_str();
  const TemporalBin bin = key.bin();
  for (const auto& n : geohash::neighbors(prefix)) out.emplace_back(n, bin);
  out.emplace_back(prefix, bin.prev());
  out.emplace_back(prefix, bin.next());
  return out;
}

std::vector<ChunkChildLevel> chunk_child_levels(const Resolution& res,
                                                const ChunkKey& chunk,
                                                int chunk_precision) {
  const std::string prefix = chunk.prefix_str();
  const TemporalBin bin = chunk.bin();
  std::vector<ChunkChildLevel> out;
  if (res.spatial < geohash::kMaxPrecision) {
    ChunkChildLevel level{{res.spatial + 1, res.temporal}, {}, true};
    if (res.spatial < chunk_precision) {
      // Child chunks are the 32 finer prefixes.
      for (const auto& child : geohash::children(prefix))
        level.chunks.emplace_back(child, bin);
    } else {
      // Chunk precision saturated: the child level shares this chunk key.
      level.chunks.emplace_back(prefix, bin);
    }
    out.push_back(std::move(level));
  }
  if (const auto finer_t = finer(res.temporal)) {
    ChunkChildLevel level{{res.spatial, *finer_t}, {}, false};
    for (const auto& child_bin : bin.children())
      level.chunks.emplace_back(prefix, child_bin);
    out.push_back(std::move(level));
  }
  return out;
}

}  // namespace stash
