// Write-ahead log for the backend durability layer.
//
// Backend::ingestBatch appends every accepted uplink frame here *before*
// mutating in-RAM state, so a crashed backend replays the log and arrives
// at the exact pre-crash state (see net/snapshot for the compaction
// half). The format is deliberately dumb — an append-only sequence of
// CRC-framed records, one per ingested batch frame:
//
//   record := [magic u16 = 0xCA1F] [len u32] [payload bytes x len]
//             [crc32 u32 over magic..payload]
//
// The reader's contract mirrors the salvage-decode posture of the
// batch envelope (and the collision-recovery philosophy in PAPERS.md):
// recover every intact record, never abort the whole log for one bad
// byte. A torn tail (the append in flight when the process died) or a
// corrupt record ends the replay *at that point* — everything before it
// is recovered, the damage is counted, and parsing never fails. That is
// exactly the right semantics for a WAL: a record that was not fully
// written was never acknowledged to the reader, so the reader's outbox
// still holds the batch and will retransmit it after restart.
//
// Fsync policy trades durability for ingest latency (measured in
// bench_backend_ingest_durable; see EXPERIMENTS.md):
//   kEveryAppend   fsync after every record — no acked batch can be lost.
//   kEveryN        fsync every N appends — bounded loss window.
//   kOnSnapshot    fsync only when a snapshot is cut — fastest; a crash
//                  loses the OS-buffered tail, which the readers'
//                  retransmit machinery repairs (acked-but-lost batches
//                  are re-ingested, then deduped by the restored seq map
//                  only if they made it to disk — so this policy weakens
//                  exactly-once to at-least-once-on-power-loss; process
//                  crashes with a live kernel lose nothing).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace caraoke::net {

/// WAL record framing magic (registered in tools/caraoke_lint.py's
/// wireversion baseline alongside the batch envelope magics).
inline constexpr std::uint16_t kWalMagic = 0xCA1F;

/// Bytes of framing around each payload: magic + len + crc32.
inline constexpr std::size_t kWalRecordOverheadBytes = 10;

/// When appends hit the platter.
enum class WalFsyncPolicy {
  kEveryAppend = 0,
  kEveryN = 1,
  kOnSnapshot = 2,
};

const char* walFsyncPolicyName(WalFsyncPolicy policy);

/// Append-only WAL writer over one file (created if absent, appended if
/// present — offset() resumes from the existing size, which is how a
/// restored backend continues its own log).
///
/// Not internally locked: Backend calls it under its state mutex, which
/// is also what keeps WAL order identical to state-mutation order. The
/// capability annotation lives at the owning side — `Backend::wal_` is
/// CARAOKE_GUARDED_BY(mutex_) (see net/backend.hpp and DESIGN.md §10) —
/// so every append/offset call is still statically tied to that mutex.
class WalWriter {
 public:
  WalWriter(std::string path, WalFsyncPolicy policy,
            std::size_t fsyncEveryN = 8);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// True when the file is open and the writer has not crashed.
  bool ok() const { return fd_ >= 0 && !dead_; }

  /// Frame `payload` into a record and append it. False on I/O failure
  /// or after an injected crash — the caller must then treat the process
  /// as dying (no ack, no state mutation).
  bool append(std::span<const std::uint8_t> payload);

  /// Explicit fsync (the kOnSnapshot policy's flush point). False when
  /// the writer is dead or fsync fails.
  bool sync();

  /// Bytes in the file = offset the next record starts at. Snapshots
  /// store this so replay begins exactly after the last state they
  /// already contain.
  std::uint64_t offset() const { return offset_; }

  std::uint64_t appends() const { return appends_; }
  std::uint64_t bytesWritten() const { return bytesWritten_; }
  std::uint64_t fsyncs() const { return fsyncs_; }

  /// Chaos injection: the `atAppend`-th append (1-based) writes only
  /// `keepBytes` of its encoded record (0 = half of it) and then the
  /// writer goes dead — every later append and sync fails. From the
  /// filesystem's point of view this is indistinguishable from SIGKILL
  /// landing mid-write: a real torn record on disk.
  void injectTear(std::uint64_t atAppend, std::size_t keepBytes = 0);

  /// Chaos injection: simulated process death between writes. The file
  /// is left exactly as-is; every later append and sync fails.
  void kill() { dead_ = true; }

 private:
  bool writeAll(const std::uint8_t* data, std::size_t size);

  std::string path_;
  WalFsyncPolicy policy_;
  std::size_t fsyncEveryN_;
  int fd_ = -1;
  bool dead_ = false;
  std::uint64_t offset_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t bytesWritten_ = 0;
  std::uint64_t fsyncs_ = 0;
  std::uint64_t sinceFsync_ = 0;
  std::uint64_t tearAtAppend_ = 0;
  std::size_t tearKeepBytes_ = 0;
};

/// What parseWal recovered. Parsing NEVER fails: damage ends recovery at
/// the damaged record and is counted, the intact prefix is always
/// returned (the salvage contract the crash suite fuzzes).
struct WalReadResult {
  std::vector<std::vector<std::uint8_t>> payloads;
  /// Byte offset just past the last intact record — where a writer
  /// resuming this log would truncate to (we never truncate; appends
  /// after a torn tail are unreachable by the parser and harmless).
  std::uint64_t intactBytes = 0;
  /// Records lost to a torn tail or corruption (0 or 1 per parse: damage
  /// ends the log, so at most the damaged record itself is counted here;
  /// bytes beyond it land in salvagedBytes).
  std::size_t corruptRecords = 0;
  /// Bytes past the intact prefix that were skipped (torn tail included).
  std::uint64_t salvagedBytes = 0;
};

/// Parse a WAL image from memory (the fuzz tests' entry point).
WalReadResult parseWal(std::span<const std::uint8_t> bytes);

/// Read + parse a WAL file. A missing file is an empty log, not an
/// error — a fresh durability dir restores to an empty backend.
WalReadResult readWalFile(const std::string& path);

}  // namespace caraoke::net
