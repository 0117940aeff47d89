// Fuzz harness: geohash encode/decode/pack round-trips and hierarchy laws.
//
// The entropy-maximizing-geohash literature shows how easy it is to get
// geohash bit-twiddling subtly wrong; this harness pins the invariants:
//   * is_valid(s)  =>  decode(s) succeeds, encode(center, |s|) == s,
//                      unpack(pack(s)) == s, parent is a prefix
//   * !is_valid(s) =>  decode(s) throws std::invalid_argument
//   * any in-range point encodes to a cell whose box contains it
//   * unpack accepts a u64 iff it is the pack() of some valid hash,
//     and then pack(unpack(x)) == x (strict wire validation)
//   * the integer kernel agrees with the string codec: decode_packed,
//     neighbors_packed, parent_packed, children_packed and encode_packed
//     against decode, neighbors, parent, children and pack(encode); it
//     rejects exactly the u64s unpack rejects
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz_util.hpp"
#include "geo/geohash.hpp"

using namespace stash;

namespace {

void check_valid_hash(const std::string& gh) {
  const BoundingBox box = geohash::decode(gh);
  FUZZ_CHECK(box.valid());
  FUZZ_CHECK(box.lat_min >= -90.0 && box.lat_max <= 90.0);
  FUZZ_CHECK(box.lng_min >= -180.0 && box.lng_max <= 180.0);
  // The cell's own center encodes back to the same hash.
  FUZZ_CHECK(geohash::encode(box.center(), static_cast<int>(gh.size())) == gh);
  // Pack is stable and strict.
  const std::uint64_t packed = geohash::pack(gh);
  FUZZ_CHECK(geohash::unpack(packed) == gh);
  // Parent is a strict prefix covering this cell.
  if (const auto parent = geohash::parent(gh)) {
    FUZZ_CHECK(gh.rfind(*parent, 0) == 0);
    FUZZ_CHECK(geohash::decode(*parent).contains(box));
  }
  // Neighbors are valid, same precision, and adjacent (share no interior).
  for (const auto& n : geohash::neighbors(gh)) {
    FUZZ_CHECK(geohash::is_valid(n));
    FUZZ_CHECK(n.size() == gh.size());
  }
  // The antipode is a valid hash at the same precision.
  FUZZ_CHECK(geohash::antipode(gh).size() == gh.size());

  // The integer kernel agrees with the string codec bit for bit.
  FUZZ_CHECK(geohash::decode_packed(packed) == box);
  const auto parent_key = geohash::parent_packed(packed);
  const auto parent = geohash::parent(gh);
  FUZZ_CHECK(parent_key.has_value() == parent.has_value());
  if (parent) FUZZ_CHECK(*parent_key == geohash::pack(*parent));
  if (gh.size() < static_cast<std::size_t>(geohash::kMaxPrecision)) {
    const auto child_keys = geohash::children_packed(packed);
    std::vector<std::uint64_t> children;
    for (const auto& c : geohash::children(gh)) children.push_back(geohash::pack(c));
    FUZZ_CHECK(std::vector<std::uint64_t>(child_keys.begin(), child_keys.end()) ==
               children);
  }
  const geohash::PackedNeighbors neighbor_keys = geohash::neighbors_packed(packed);
  std::vector<std::uint64_t> expected;
  for (const auto& n : geohash::neighbors(gh)) expected.push_back(geohash::pack(n));
  FUZZ_CHECK(std::vector<std::uint64_t>(neighbor_keys.begin(),
                                        neighbor_keys.end()) == expected);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Byte string as a hash candidate.
  const std::string candidate(reinterpret_cast<const char*>(data),
                              std::min<std::size_t>(size, 16));
  if (geohash::is_valid(candidate)) {
    check_valid_hash(candidate);
  } else {
    try {
      (void)geohash::decode(candidate);
      FUZZ_CHECK(false && "decode accepted an invalid hash");
    } catch (const std::invalid_argument&) {
      // expected
    }
  }

  // The same bytes folded into the alphabet: a valid hash on every input,
  // so the codec laws and the kernel comparisons run at every precision
  // even when the raw candidate above is garbage (it nearly always is).
  if (size > 0) {
    const std::size_t len =
        1 + data[0] % static_cast<std::size_t>(geohash::kMaxPrecision);
    std::string folded;
    for (std::size_t i = 1; i <= len; ++i)
      folded.push_back(geohash::kAlphabet[(i < size ? data[i] : 0) % 32]);
    check_valid_hash(folded);
  }

  fuzz::ByteReader in(data, size);

  // Arbitrary u64 through unpack: must either throw or round-trip exactly.
  const std::uint64_t packed = in.u64();
  try {
    const std::string unpacked = geohash::unpack(packed);
    FUZZ_CHECK(geohash::is_valid(unpacked));
    FUZZ_CHECK(geohash::pack(unpacked) == packed);
    FUZZ_CHECK(geohash::packed_precision(packed) ==
               static_cast<int>(unpacked.size()));
  } catch (const std::invalid_argument&) {
    // expected for malformed keys; the kernel must refuse them too
    try {
      (void)geohash::packed_precision(packed);
      FUZZ_CHECK(false && "the kernel accepted a key unpack rejects");
    } catch (const std::invalid_argument&) {
    }
  }

  // Arbitrary doubles through encode: garbage (NaN/out-of-range) must be
  // rejected, in-range points must land inside their cell.
  const double lat = in.f64();
  const double lng = in.f64();
  const int precision = 1 + in.u8() % geohash::kMaxPrecision;
  const bool in_range =
      lat >= -90.0 && lat <= 90.0 && lng >= -180.0 && lng <= 180.0;
  try {
    const std::string gh = geohash::encode({lat, lng}, precision);
    FUZZ_CHECK(in_range);
    FUZZ_CHECK(static_cast<int>(gh.size()) == precision);
    const BoundingBox box = geohash::decode(gh);
    // encode halves toward the upper bound, so boundary points sit on the
    // closed lower edges of their cell.
    FUZZ_CHECK(lat >= box.lat_min && lat <= box.lat_max);
    FUZZ_CHECK(lng >= box.lng_min && lng <= box.lng_max);
    FUZZ_CHECK(geohash::encode_packed({lat, lng}, precision) ==
               geohash::pack(gh));
  } catch (const std::invalid_argument&) {
    FUZZ_CHECK(!in_range);
  }
  try {
    (void)geohash::encode_packed({lat, lng}, precision);
    FUZZ_CHECK(in_range);
  } catch (const std::invalid_argument&) {
    FUZZ_CHECK(!in_range);
  }
  return 0;
}
