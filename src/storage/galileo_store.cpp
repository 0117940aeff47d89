#include "storage/galileo_store.hpp"

#include <algorithm>
#include <stdexcept>

namespace stash {

GalileoStore::GalileoStore(std::shared_ptr<const NamGenerator> generator,
                           int partition_prefix_length)
    : generator_(std::move(generator)), prefix_len_(partition_prefix_length) {
  if (!generator_) throw std::invalid_argument("GalileoStore: null generator");
  if (prefix_len_ < 1 || prefix_len_ > geohash::kMaxPrecision)
    throw std::invalid_argument("GalileoStore: bad partition prefix length");
}

ScanResult GalileoStore::scan_partition(std::string_view partition,
                                        const BoundingBox& region,
                                        const TimeRange& time,
                                        const Resolution& res) const {
  if (partition.size() != static_cast<std::size_t>(prefix_len_))
    throw std::invalid_argument("GalileoStore::scan_partition: bad partition key");
  if (!res.valid())
    throw std::invalid_argument("GalileoStore::scan_partition: bad resolution");
  ScanResult out;
  const BoundingBox clipped = region.intersection(geohash::decode(partition));
  if (!clipped.valid() || !time.valid() || time.begin >= time.end) return out;

  // One block file per (partition, day): each day touched costs one seek,
  // and each day's records reflect that block's current version.
  const std::int64_t first_day =
      time.begin / 86400 - (time.begin % 86400 < 0 ? 1 : 0);
  const std::int64_t last_day = (time.end - 1) / 86400;
  for (std::int64_t day = first_day; day <= last_day; ++day) {
    const TimeRange day_range{std::max(time.begin, day * 86400),
                              std::min(time.end, (day + 1) * 86400)};
    const BlockKey block{std::string(partition), day};
    auto [version, salt] = block_state(block);
    if (salt != 0) {
      if (verify_checksums_) {
        // The block's checksum no longer matches its contents: count the
        // failure, quarantine it for the scrubber, charge the seek that
        // discovered the rot, and withhold its records so the caller
        // answers degraded instead of wrong.  Scans run concurrently on
        // wall-clock worker threads; only this cold path takes the lock.
        {
          MutexLock lock(integrity_mutex_);
          ++integrity_.checksum_failures;
          if (quarantine_.insert(block).second)
            ++integrity_.blocks_quarantined;
        }
        ++out.stats.blocks_touched;
        ++out.stats.blocks_corrupt;
        out.corrupt_blocks.push_back(block);
        continue;
      }
      // Verification off: serve the rotted bytes.  The salt perturbs the
      // version, so the records are plausible but wrong — silent corruption.
      version ^= salt;
    }
    const ObservationList records =
        generator_->generate(clipped, day_range, version);
    ++out.stats.blocks_touched;
    out.stats.records_scanned += records.size();
    out.stats.bytes_read += records.size() * kObservationBytes;
    // A block's records come slot by slot, so consecutive records mostly
    // share a timestamp and hence a bin.  bin == 0 means "none yet": a
    // packed bin never is 0, as its month field is at least 1.
    std::int64_t binned_ts = 0;
    std::uint32_t bin = 0;
    for (const auto& obs : records) {
      if (bin == 0 || obs.timestamp != binned_ts) {
        bin = TemporalBin::of_timestamp(obs.timestamp, res.temporal).pack();
        binned_ts = obs.timestamp;
      }
      const CellKey key(geohash::encode_packed(obs.position, res.spatial), bin);
      auto [it, inserted] = out.cells.try_emplace(key, kNamAttributeCount);
      it->second.add_observation(obs.values.data(), obs.values.size());
    }
  }
  return out;
}

std::uint64_t GalileoStore::ingest_update(const BlockKey& key) {
  if (key.partition.size() != static_cast<std::size_t>(prefix_len_))
    throw std::invalid_argument("GalileoStore::ingest_update: bad partition key");
  // A rewrite replaces the block's bytes wholesale, healing any rot.
  WriterLock table(table_mutex_);
  rot_.erase(key);
  {
    MutexLock lock(integrity_mutex_);
    quarantine_.erase(key);
  }
  return ++versions_[key];
}

void GalileoStore::rot_block(const BlockKey& key) {
  if (key.partition.size() != static_cast<std::size_t>(prefix_len_))
    throw std::invalid_argument("GalileoStore::rot_block: bad partition key");
  // Fold the key into the salt so distinct blocks rot differently; keep it
  // non-zero so the version perturbation never degenerates to a no-op.
  std::uint64_t salt = fnv1a(key.partition);
  hash_combine(salt, static_cast<std::uint64_t>(key.day));
  if (salt == 0) salt = 1;
  WriterLock table(table_mutex_);
  rot_[key] = salt;
  MutexLock lock(integrity_mutex_);
  ++integrity_.blocks_rotted;
}

bool GalileoStore::repair_block(const BlockKey& key) {
  WriterLock table(table_mutex_);
  const bool was_bad = rot_.erase(key) > 0;
  MutexLock lock(integrity_mutex_);
  const bool was_quarantined = quarantine_.erase(key) > 0;
  if (was_bad || was_quarantined) ++integrity_.blocks_repaired;
  return was_bad || was_quarantined;
}

bool GalileoStore::block_rotted(const BlockKey& key) const {
  return block_state(key).second != 0;
}

bool GalileoStore::block_quarantined(const BlockKey& key) const {
  MutexLock lock(integrity_mutex_);
  return quarantine_.contains(key);
}

bool GalileoStore::verify_block(const BlockKey& key) const {
  return !block_rotted(key);
}

std::size_t GalileoStore::scrub() {
  std::size_t newly = 0;
  ReaderLock table(table_mutex_);
  MutexLock lock(integrity_mutex_);
  for (const auto& [key, salt] : rot_) {
    if (!quarantine_.insert(key).second) continue;
    ++integrity_.checksum_failures;
    ++integrity_.blocks_quarantined;
    ++newly;
  }
  return newly;
}

std::vector<BlockKey> GalileoStore::quarantine_list() const {
  MutexLock lock(integrity_mutex_);
  return {quarantine_.begin(), quarantine_.end()};
}

GalileoStore::IntegrityStats GalileoStore::integrity() const {
  MutexLock lock(integrity_mutex_);
  return integrity_;
}

std::uint64_t GalileoStore::block_version(const BlockKey& key) const {
  return block_state(key).first;
}

std::pair<std::uint64_t, std::uint64_t> GalileoStore::block_state(
    const BlockKey& key) const {
  ReaderLock table(table_mutex_);
  const auto version = versions_.find(key);
  const auto rot = rot_.find(key);
  return {version == versions_.end() ? 0 : version->second,
          rot == rot_.end() ? 0 : rot->second};
}

ScanResult GalileoStore::scan(const BoundingBox& region, const TimeRange& time,
                              const Resolution& res) const {
  ScanResult total;
  for (const auto& partition : geohash::covering(region, prefix_len_)) {
    ScanResult part = scan_partition(partition, region, time, res);
    total.stats += part.stats;
    total.corrupt_blocks.insert(total.corrupt_blocks.end(),
                                part.corrupt_blocks.begin(),
                                part.corrupt_blocks.end());
    for (auto& [key, summary] : part.cells) {
      auto [it, inserted] = total.cells.try_emplace(key, std::move(summary));
      if (!inserted) it->second.merge(summary);
    }
  }
  return total;
}

std::size_t GalileoStore::block_bytes(const BlockKey& key) const {
  const BoundingBox box = geohash::decode(key.partition);
  const TimeRange day{key.day * 86400, (key.day + 1) * 86400};
  return generator_->count(box, day) * kObservationBytes;
}

}  // namespace stash
