// Backend state snapshots: the compaction half of the durability layer.
//
// A snapshot serializes the backend's complete mutable state — buffered
// sightings, count/decode report logs, the (readerId, seq) exactly-once
// dedup map with its gap accounting, and the speed-pairing angle tracks —
// plus the WAL offset the state already covers. Recovery loads the
// newest *valid* snapshot and replays only the WAL records past its
// offset, so restore cost is bounded by the snapshot period, not the
// lifetime of the log.
//
// Wire format (little-endian, CRC-32 trailer over everything before it):
//
//   [magic u16 = 0xCA5E] [version u16 = 1] [walOffset u64]
//   [readers u32] { readerId u32, maxSeq u32, n u32, seq u32 x n } ...
//   [sightings u32] { len u16, traceId u64, spanId u64, message } ...
//   [counts u32]    { same entry shape } ...
//   [decodes u32]   { same entry shape } ...
//   [speed u32] { readerId u32, t f64, cfo f64, cosAlpha f64,
//                 traceId u64 } ...
//   [crc32 u32]
//
// Report entries are net/framing's traced entries, written and read by
// the same codec as the batch envelope's, so the snapshot can never
// drift from the wire layout.
//
// Durability of the file itself: writeSnapshotFile writes to a `.tmp`
// sibling, fsyncs, renames into place, and fsyncs the directory — a
// crash mid-snapshot leaves either the old complete file set or the new
// one, never a half-renamed hybrid. loadNewestSnapshot walks candidates
// newest-first and falls back on CRC/parse failure, so one corrupt
// snapshot degrades recovery cost, not correctness.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "net/message.hpp"

namespace caraoke::net {

/// Snapshot file framing magic (registered in tools/caraoke_lint.py's
/// wireversion baseline alongside the batch envelope magic).
inline constexpr std::uint16_t kSnapshotMagic = 0xCA5E;
inline constexpr std::uint16_t kSnapshotVersion = 1;

/// One reader's exactly-once sequence accounting, flattened for the
/// wire (the in-RAM form is a std::set; `seen` is sorted ascending).
struct ReaderSeqRecord {
  std::uint32_t readerId = 0;
  std::uint32_t maxSeq = 0;
  std::vector<std::uint32_t> seen;
};

/// One speed-pairing angle sample (mirror of Backend's internal form).
struct SpeedSampleRecord {
  std::uint32_t readerId = 0;
  double timestamp = 0.0;
  double cfoHz = 0.0;
  double cosAlpha = 0.0;
  std::uint64_t traceId = 0;
};

/// The full serializable backend state. Reader geometry registrations
/// are deliberately absent: they are configuration (re-registered by the
/// operator at startup), not ingested state.
struct BackendSnapshot {
  std::uint64_t walOffset = 0;
  std::vector<ReaderSeqRecord> seq;  ///< Sorted by readerId.
  std::vector<SightingReport> sightings;
  std::vector<CountReport> counts;
  std::vector<DecodeReport> decodes;
  std::vector<SpeedSampleRecord> speedSamples;
};

/// Serialize (deterministic: equal states yield equal bytes, which is
/// what Backend::stateBytes' byte-identity checks ride on).
std::vector<std::uint8_t> encodeSnapshot(const BackendSnapshot& snapshot);

/// Parse + verify. Fails on bad magic/version, truncation, CRC mismatch,
/// or an undecodable inner report — a snapshot is all-or-nothing (unlike
/// the WAL, a half-good snapshot has no usable prefix semantics; the
/// loader falls back to an older file instead).
caraoke::Result<BackendSnapshot> decodeSnapshot(
    std::span<const std::uint8_t> bytes);

/// Canonical snapshot file name for `seq` ("snapshot-<seq>.snap",
/// zero-padded so lexical order equals numeric order).
std::string snapshotFileName(std::uint64_t seq);

/// Atomically publish `bytes` as `<dir>/snapshot-<seq>.snap` (write tmp,
/// fsync, rename, fsync dir). False on any I/O failure — the tmp file
/// may remain, which the loader ignores by construction.
bool writeSnapshotFile(const std::string& dir, std::uint64_t seq,
                       std::span<const std::uint8_t> bytes);

/// A snapshot successfully loaded from disk.
struct LoadedSnapshot {
  std::uint64_t seq = 0;  ///< From the file name.
  BackendSnapshot state;
};

/// Load the newest decodable snapshot in `dir` (falling back past
/// corrupt/truncated candidates, counting them in `rejected` when
/// non-null). An empty/missing dir yields an empty default state with
/// seq 0 — a fresh backend.
LoadedSnapshot loadNewestSnapshot(const std::string& dir,
                                  std::size_t* rejected = nullptr);

/// Highest snapshot-file seq present in `dir` (decodable or not) — the
/// next snapshot must be numbered past every file already there.
std::uint64_t newestSnapshotSeq(const std::string& dir);

}  // namespace caraoke::net
