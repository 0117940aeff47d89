// Galileo-like back-end storage (paper §VI-C).
//
// "Galileo is a zero-hop DHT based storage system that uses Geohash to
// generate data partitions that store and colocate geospatially proximate
// data points."  One *block* holds the observations of one partition
// (geohash prefix) for one day.  Block contents are produced by the
// deterministic NAM-like generator, so the store behaves like a 1.1 TB
// on-disk dataset without materialising it; the ScanStats it returns feed
// the simulator's disk/CPU cost model.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/summary.hpp"
#include "common/thread_annotations.hpp"
#include "geo/cell_key.hpp"
#include "geo/resolution.hpp"
#include "model/nam_generator.hpp"

namespace stash {

/// Identifies one storage block: a partition's observations for one day.
struct BlockKey {
  std::string partition;   // geohash prefix (DHT partition key)
  std::int64_t day = 0;    // epoch day

  bool operator==(const BlockKey&) const = default;
};

struct BlockKeyHash {
  [[nodiscard]] std::size_t operator()(const BlockKey& k) const noexcept {
    std::uint64_t h = fnv1a(k.partition);
    hash_combine(h, static_cast<std::uint64_t>(k.day));
    return static_cast<std::size_t>(h);
  }
};

/// Resource usage of a scan; drives the virtual-time disk/CPU charges.
struct ScanStats {
  std::size_t blocks_touched = 0;   // one disk seek each
  std::size_t records_scanned = 0;
  std::size_t bytes_read = 0;
  std::size_t blocks_corrupt = 0;   // failed verification, yielded no records

  ScanStats& operator+=(const ScanStats& other) noexcept {
    blocks_touched += other.blocks_touched;
    records_scanned += other.records_scanned;
    bytes_read += other.bytes_read;
    blocks_corrupt += other.blocks_corrupt;
    return *this;
  }
};

/// Per-cell aggregates produced by a scan.
using CellSummaryMap = std::unordered_map<CellKey, Summary, CellKeyHash>;

struct ScanResult {
  CellSummaryMap cells;
  ScanStats stats;
  /// Blocks that failed checksum verification during this scan.  Their
  /// records are withheld (the caller must answer degraded, not wrong) and
  /// they are already quarantined for the scrubber to repair.
  std::vector<BlockKey> corrupt_blocks;
};

class GalileoStore {
 public:
  /// `partition_prefix_length` must match the DHT's (default 2).
  explicit GalileoStore(std::shared_ptr<const NamGenerator> generator,
                        int partition_prefix_length = 2);

  [[nodiscard]] const NamGenerator& generator() const noexcept { return *generator_; }
  [[nodiscard]] int partition_prefix_length() const noexcept { return prefix_len_; }

  /// Aggregates all observations of `partition` inside region × time into
  /// Cells at `res`.  The scanned region is clipped to the partition's own
  /// bounding box — a block never yields data outside its partition.
  [[nodiscard]] ScanResult scan_partition(std::string_view partition,
                                          const BoundingBox& region,
                                          const TimeRange& time,
                                          const Resolution& res) const;

  /// Convenience: a full query scan across every partition the region
  /// touches (what the basic, no-STASH system executes per query).
  [[nodiscard]] ScanResult scan(const BoundingBox& region, const TimeRange& time,
                                const Resolution& res) const;

  /// On-disk size of one block (drives read cost when a whole block streams).
  [[nodiscard]] std::size_t block_bytes(const BlockKey& key) const;

  // --- real-time ingest (paper §IV-D: "systems with real-time data") ---
  /// Simulates a data update rewriting one block: subsequent scans of that
  /// (partition, day) observe new attribute values.  Returns the block's
  /// new version.  Callers must invalidate dependent caches (the cluster's
  /// ingest path does this via the PLM).
  std::uint64_t ingest_update(const BlockKey& key);

  [[nodiscard]] std::uint64_t block_version(const BlockKey& key) const;

  // --- integrity (block checksums, bit-rot, scrub-and-repair) ---
  /// Lifetime integrity counters, fed to the cluster's metrics registry.
  struct IntegrityStats {
    std::uint64_t checksum_failures = 0;  ///< scans that hit a rotted block
    std::uint64_t blocks_quarantined = 0; ///< distinct blocks quarantined
    std::uint64_t blocks_repaired = 0;    ///< repair_block() on a rotted block
    std::uint64_t blocks_rotted = 0;      ///< rot_block() injections
  };

  /// Injects bit-rot into one block: its per-block checksum no longer
  /// matches its contents.  With verification on, the next scan detects
  /// the mismatch, quarantines the block and withholds its records; with
  /// verification off the scan serves silently-wrong records — exactly the
  /// failure mode checksums exist to prevent.
  void rot_block(const BlockKey& key);

  /// Rewrites one block from pristine data (the repair action): clears its
  /// rot and releases it from quarantine.  Returns true when the block was
  /// actually rotted or quarantined.
  bool repair_block(const BlockKey& key);

  [[nodiscard]] bool block_rotted(const BlockKey& key) const;
  [[nodiscard]] bool block_quarantined(const BlockKey& key) const;

  /// Recomputes one block's checksum against its contents — the scrubber's
  /// probe.  False means the block is rotted.
  [[nodiscard]] bool verify_block(const BlockKey& key) const;

  /// One scrubber pass over the block table (every block with explicit
  /// state: rewritten or rotted).  Verifies each checksum and quarantines
  /// failures without waiting for a query to trip over them.  Returns the
  /// number of blocks newly quarantined.
  std::size_t scrub();

  /// Blocks currently in quarantine, in no particular order.
  [[nodiscard]] std::vector<BlockKey> quarantine_list() const;

  /// Snapshot of the lifetime counters (copied under the integrity lock —
  /// scans on wall-clock worker threads update them concurrently).
  [[nodiscard]] IntegrityStats integrity() const;

  /// Toggles checksum verification on scans (on by default; off only to
  /// demonstrate the silently-wrong baseline in tests).
  void set_verify_checksums(bool on) noexcept { verify_checksums_ = on; }
  [[nodiscard]] bool verify_checksums() const noexcept { return verify_checksums_; }

 private:
  /// One block's (version, rot salt) under a reader lock on the table.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> block_state(
      const BlockKey& key) const;

  std::shared_ptr<const NamGenerator> generator_;
  int prefix_len_;
  // The block table.  Ingest, rot and repair rewrite it on the sim thread
  // while wall-clock workers scan it — deadline-cut stragglers included,
  // which outlive the evaluation that launched them — so scans look a
  // block up under a reader lock and writers take the writer lock.
  mutable SharedMutex table_mutex_;
  std::unordered_map<BlockKey, std::uint64_t, BlockKeyHash> versions_
      STASH_GUARDED_BY(table_mutex_);
  /// Rot salt per block: non-zero means the stored bytes no longer match
  /// the block's checksum.  The salt perturbs the generator version, so a
  /// rotted block read without verification yields plausible — but wrong —
  /// records rather than garbage, the worst case for a reader to detect.
  std::unordered_map<BlockKey, std::uint64_t, BlockKeyHash> rot_
      STASH_GUARDED_BY(table_mutex_);
  bool verify_checksums_ = true;
  // Detection happens inside const scans; quarantine state and counters
  // are bookkeeping about the store, not logical contents, hence mutable.
  // Wall-clock workers scan concurrently, so the bookkeeping is guarded:
  // the lock is taken only on the corruption-detection path and in the
  // (cold) accessors, never on a clean scan.  Lock order: table_mutex_
  // before integrity_mutex_.
  mutable Mutex integrity_mutex_;
  mutable std::unordered_set<BlockKey, BlockKeyHash> quarantine_
      STASH_GUARDED_BY(integrity_mutex_);
  mutable IntegrityStats integrity_ STASH_GUARDED_BY(integrity_mutex_);
};

}  // namespace stash
