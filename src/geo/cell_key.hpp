// CellKey: the spatiotemporal label identifying one STASH Cell.
//
// Paper Table I: a Cell's label is its geohash plus its temporal range at a
// given resolution (e.g. geohash 9q8y7, month 2015-03).  The key packs both
// into 12 bytes so the per-level hash maps and the DHT work on value types
// instead of strings.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/hash.hpp"
#include "geo/geohash.hpp"
#include "geo/resolution.hpp"
#include "geo/temporal.hpp"

namespace stash {

struct CellKey {
  std::uint64_t spatial = 0;   // geohash::pack()
  std::uint32_t temporal = 0;  // TemporalBin::pack()

  CellKey() = default;
  CellKey(std::string_view gh, const TemporalBin& bin)
      : spatial(geohash::pack(gh)), temporal(bin.pack()) {}
  CellKey(std::uint64_t packed_gh, std::uint32_t packed_bin)
      : spatial(packed_gh), temporal(packed_bin) {}

  [[nodiscard]] std::string geohash_str() const { return geohash::unpack(spatial); }
  [[nodiscard]] TemporalBin bin() const { return TemporalBin::unpack(temporal); }

  [[nodiscard]] Resolution resolution() const {
    return {static_cast<int>(spatial >> 60), bin().res()};
  }

  [[nodiscard]] BoundingBox bounds() const { return geohash::decode_packed(spatial); }
  [[nodiscard]] TimeRange time_range() const { return bin().range(); }

  [[nodiscard]] std::string label() const {
    return geohash_str() + "@" + bin().label();
  }

  bool operator==(const CellKey&) const = default;
  /// Lexicographic on (spatial, temporal); gives deterministic iteration.
  auto operator<=>(const CellKey&) const = default;
};

struct CellKeyHash {
  [[nodiscard]] std::size_t operator()(const CellKey& k) const noexcept {
    std::uint64_t h = mix64(k.spatial);
    hash_combine(h, k.temporal);
    return static_cast<std::size_t>(h);
  }
};

}  // namespace stash
