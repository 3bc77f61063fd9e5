// Backend fusion service: the city-side endpoint readers report to.
//
// Readers upload sightings (CFO + AoA); the backend associates sightings
// of the same transponder across readers — CFO is the association key, the
// paper's stand-in for an id when decoding hasn't happened — and fuses
// pairs of AoA constraints from different readers into position fixes
// (§6: "by solving these two equations, one can find x and y").
//
// Two-reader speed pairing (§7): every ingested sighting also feeds a
// per-(reader, CFO cluster) angle track; pairSpeeds() finds the
// abeam-crossing time at each of two poles (cos(alpha) zero crossing)
// and estimates v = dx/dt from the pole spacing. Each SpeedFix carries
// the traceId of the sighting nearest its abeam crossing, so the backend
// speed-pairing span joins the originating reader's trace — the far end
// of the v3 envelope propagation (see net/framing).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/aoa.hpp"
#include "core/localizer.hpp"
#include "core/speed.hpp"
#include "net/framing.hpp"
#include "net/message.hpp"
#include "net/snapshot.hpp"
#include "net/wal.hpp"
#include "obs/expo.hpp"
#include "obs/flight.hpp"

namespace caraoke::net {

/// A fused cross-reader position estimate.
struct FusedFix {
  double cfoHz = 0.0;
  double timestamp = 0.0;  ///< Mean of the two sighting timestamps.
  phy::Vec3 position;
  std::uint32_t readerA = 0;
  std::uint32_t readerB = 0;
};

/// A two-reader speed estimate (§7: abeam-crossing times at two poles a
/// known along-road distance apart).
struct SpeedFix {
  double cfoHz = 0.0;      ///< Mean CFO of the two matched clusters.
  double speedMps = 0.0;   ///< Signed along-road speed.
  double abeamTimeA = 0.0; ///< Crossing time at readerA's pole.
  double abeamTimeB = 0.0;
  std::uint32_t readerA = 0;
  std::uint32_t readerB = 0;
  /// Trace of the readerA sighting nearest its abeam crossing (0 when
  /// the contributing sightings arrived without trace context).
  std::uint64_t traceId = 0;
};

/// Crash durability. Off by default (empty dir): the backend keeps its
/// state in RAM only, exactly as before. With a directory set, every
/// accepted uplink batch is appended to `<dir>/backend.wal` *before* any
/// state mutation, snapshots are cut into the same directory, and a
/// restarted backend must call restore() before ingesting (it reports
/// `recovering` on /healthz until then).
struct DurabilityConfig {
  /// Durability directory (WAL + snapshots). Empty = durability off.
  std::string dir;
  /// When appends reach the platter (see net/wal.hpp for the tradeoffs).
  WalFsyncPolicy fsyncPolicy = WalFsyncPolicy::kEveryAppend;
  /// Append count between fsyncs under WalFsyncPolicy::kEveryN.
  std::size_t fsyncEveryN = 8;
  /// Cut a snapshot every this-many WAL appends (0 = only on explicit
  /// snapshotNow() calls). Bounds replay length after a crash.
  std::size_t snapshotEveryAppends = 0;
  /// Chaos injection (crash suite only): the N-th WAL append (1-based)
  /// tears mid-record and the backend plays dead from then on. 0 = off.
  std::uint64_t tearWalAtAppend = 0;
  std::size_t tearWalKeepBytes = 0;  ///< 0 = half the record.
  /// Chaos injection: cutting snapshot number N dies after writing the
  /// tmp file, before the rename — the classic mid-snapshot crash.
  std::uint64_t tearSnapshotAtSeq = 0;
};

/// What Backend::restore recovered (for logs, tests, and ops).
struct RestoreStats {
  std::uint64_t snapshotSeq = 0;     ///< 0 = no snapshot, replayed from start.
  std::size_t snapshotsRejected = 0; ///< Corrupt candidates skipped over.
  std::size_t replayedRecords = 0;   ///< WAL records applied past the snapshot.
  std::size_t corruptRecords = 0;    ///< Torn/corrupt records salvaged past.
  std::uint64_t salvagedBytes = 0;   ///< Bytes discarded after the damage.
};

/// Association/fusion tuning.
struct BackendConfig {
  /// Sightings within this CFO distance are the same transponder. The
  /// paper's population spreads over 1.2 MHz, so a few kHz is selective.
  double cfoToleranceHz = 4e3;
  /// Maximum timestamp gap between the two sightings of a pair.
  double timeWindowSec = 0.5;
  core::RoadPlane road{};
  /// Optional prior: known lane centers / parking rows (y values). When
  /// the two cones intersect the road in more than one point, the
  /// candidate nearest one of these rows wins (city GIS knowledge the
  /// paper's footnote 10 appeals to).
  std::vector<double> preferredRowsY{};
  /// Speed-pairing sample retention: angle samples older than this are
  /// expired by pairSpeeds(). Long enough to ride out an uplink outage
  /// (retransmitted sightings arrive late but keep their timestamps).
  double speedWindowSec = 300.0;
  /// Minimum angle samples per (reader, CFO cluster) before an abeam
  /// crossing is trusted.
  std::size_t minAbeamSamples = 3;
  /// Live exposition: when >= 0, serve GET /metrics, /metrics.json,
  /// /healthz, /flight and /trace/<id> on 127.0.0.1:<expoPort>
  /// (0 = ephemeral). Negative (default) keeps the backend silent.
  int expoPort = -1;
  /// Flight-ring depth (backend.ingest / backend.speed_fix events).
  std::size_t flightCapacity = 512;
  /// Crash durability (WAL + snapshots). Off unless dir is set.
  DurabilityConfig durability{};
};

/// Outcome of ingesting one uplink batch frame.
struct BatchIngestStats {
  std::uint32_t readerId = 0;
  std::uint32_t seq = 0;
  /// The batch's seq was already seen: nothing ingested (the ack is
  /// still regenerated — the reader clearly missed the first one).
  bool deduplicated = false;
  std::size_t accepted = 0;         ///< Messages ingested.
  std::size_t droppedMessages = 0;  ///< Undecodable inner messages skipped.
  bool hasAck = false;              ///< Always true on success.
  std::vector<std::uint8_t> ack;    ///< Send this back to the reader.
};

/// Collects reports and produces fused fixes.
///
/// ingestBatch is the only way reports enter: every accepted batch is
/// deduplicated, logged to the WAL (when durable) and acked, and nothing
/// is taken while restore() is pending.
///
/// Thread-safe for the ingestion surface: registerReader, ingestBatch,
/// fuse, pairSpeeds, and the scalar accessors (gapCount, highestSeq,
/// pendingSightings, countsSize/decodesSize) all serialize on an
/// internal mutex, so one backend can ingest many readers' uplink
/// streams from concurrent threads. The by-reference accessors
/// (counts(), decodes(), sightings()) hand out views into live storage
/// and therefore require the caller to quiesce ingestion first — they
/// are audit/reporting APIs, not hot-path ones.
class Backend {
 public:
  explicit Backend(BackendConfig config = {});

  /// Register a reader's antenna calibration (world frame). Required
  /// before its sightings can be fused.
  void registerReader(std::uint32_t readerId, core::ArrayGeometry geometry);

  /// Ingest one uplink batch frame from the lossy link. Hardened: inner
  /// messages that fail to decode are skipped (salvage), batches are
  /// deduplicated by (readerId, seq) so retransmissions never double-count,
  /// out-of-order arrival is tolerated, and sequence gaps are accounted.
  /// Fails only when the whole frame is unusable (bad magic, CRC
  /// mismatch) — no ack is generated then, which is what triggers the
  /// reader's retransmission.
  caraoke::Result<BatchIngestStats> ingestBatch(
      const std::vector<std::uint8_t>& frame);

  /// Recover state from the configured durability directory: load the
  /// newest valid snapshot, replay the WAL tail past its offset
  /// (salvaging past a torn/corrupt trailing record), truncate the torn
  /// tail, and reopen the log for appending. Required before ingesting
  /// when durability is on — until it completes, /healthz reports
  /// `recovering` (503) and ingestBatch refuses frames (no ack, so
  /// readers keep retransmitting). Idempotent state-wise on a fresh
  /// directory (empty backend). Fails only when the directory cannot be
  /// used (unwritable WAL).
  caraoke::Result<RestoreStats> restore();

  /// restore() into `dir` (overrides config.durability.dir; the common
  /// call when the restarted process learns its directory late).
  caraoke::Result<RestoreStats> restore(const std::string& dir);

  /// Cut a snapshot now: serialize full state + current WAL offset,
  /// publish atomically. False when durability is off, the WAL is dead,
  /// or the write fails. Called automatically every
  /// durability.snapshotEveryAppends appends when that is non-zero.
  bool snapshotNow();

  /// Deterministic serialization of the complete mutable state (the
  /// snapshot codec with the WAL offset zeroed). Two backends with equal
  /// state produce equal bytes — the crash suite's byte-identity oracle.
  std::vector<std::uint8_t> stateBytes() const;

  /// True while durability is configured but restore() has not yet
  /// completed (mirrored by /healthz as a 503 `recovering` state).
  bool recovering() const {
    return recovering_.load(std::memory_order_acquire);
  }

  /// True when the durability layer is armed and the WAL is writable.
  bool durable() const;

  /// Associate + fuse everything currently buffered; consumed sightings
  /// are removed. Unpaired sightings stay buffered until they expire out
  /// of the time window. A sighting whose pairIndex is outside its
  /// reader's registered geometry is dropped and counted in
  /// `net.backend.rejected.pair_index`.
  std::vector<FusedFix> fuse(double now);

  /// Pair abeam crossings across readers into speed estimates (§7).
  /// Consumes the matched angle samples and expires ones older than
  /// config.speedWindowSec. Each fix emits a `backend.speed_fix` event
  /// carrying the fix's trace.
  std::vector<SpeedFix> pairSpeeds(double now);

  /// Angle samples currently buffered for speed pairing.
  std::size_t pendingSpeedSamples() const;

  /// Black-box ring of backend events (always recording; served at
  /// /flight and /trace/<id> when exposition is on).
  const obs::FlightRecorder& flight() const { return flight_; }
  obs::FlightRecorder& flight() { return flight_; }

  /// Bound exposition port, or 0 when exposition is off / bind failed.
  std::uint16_t expoPort() const {
    return expo_ != nullptr ? expo_->port() : 0;
  }

  /// Count time series per reader (traffic monitoring feed). Requires
  /// quiesced ingestion (see class comment).
  const std::vector<CountReport>& counts() const CARAOKE_NO_TSA {
    return counts_;  // lockcheck: allow(guard): audit API; caller quiesces ingestion (class contract)
  }

  /// Decoded identities seen so far. Requires quiesced ingestion.
  const std::vector<DecodeReport>& decodes() const CARAOKE_NO_TSA {
    return decodes_;  // lockcheck: allow(guard): audit API; caller quiesces ingestion (class contract)
  }

  /// Sightings currently buffered (not yet fused or expired). Requires
  /// quiesced ingestion.
  const std::vector<SightingReport>& sightings() const CARAOKE_NO_TSA {
    return sightings_;  // lockcheck: allow(guard): audit API; caller quiesces ingestion (class contract)
  }

  std::size_t pendingSightings() const;
  /// Count/decode report totals, safe under concurrent ingestion.
  std::size_t countsSize() const;
  std::size_t decodesSize() const;

  /// Sequence numbers from this reader still missing below its highest
  /// seen seq (a drop not yet repaired by retransmission). Zero once the
  /// link heals and the outbox drains.
  std::size_t gapCount(std::uint32_t readerId) const;

  /// Highest batch seq seen from a reader (0 = none yet).
  std::uint32_t highestSeq(std::uint32_t readerId) const;

 private:
  /// Per-reader uplink sequence accounting.
  struct ReaderSeqState {
    std::set<std::uint32_t> seen;
    std::uint32_t maxSeq = 0;
  };

  /// One speed-pairing input: a sighting reduced to its along-road
  /// direction cosine plus the trace it arrived under.
  struct SpeedSample {
    std::uint32_t readerId = 0;
    double timestamp = 0.0;
    double cfoHz = 0.0;
    double cosAlpha = 0.0;
    std::uint64_t traceId = 0;
  };

  /// Buffer one decoded report; assumes mutex_ is held.
  void ingestLocked(const Message& message) CARAOKE_REQUIRES(mutex_);
  /// Dedup/gap/seq accounting + message ingestion for one decoded batch;
  /// assumes mutex_ is held. Shared by the live ingest path (after the
  /// WAL append) and WAL replay (which must mutate state identically).
  /// False when the batch seq was already seen (nothing ingested).
  bool applyBatchLocked(const DecodedBatch& batch, BatchIngestStats& stats)
      CARAOKE_REQUIRES(mutex_);
  /// Flatten current state into the snapshot form; assumes mutex_ held.
  BackendSnapshot buildSnapshotLocked() const CARAOKE_REQUIRES(mutex_);
  /// Replace current state with a decoded snapshot; assumes mutex_ held.
  void applySnapshotLocked(const BackendSnapshot& snapshot)
      CARAOKE_REQUIRES(mutex_);
  /// snapshotNow() body; assumes mutex_ held.
  bool snapshotNowLocked() CARAOKE_REQUIRES(mutex_);
  std::string walPath() const;
  /// Record into the flight ring (always) and the process event sink
  /// (when attached). Called under mutex_ — the source of the
  /// Backend -> FlightRecorder/EventSink lock-order edges (DESIGN.md §10).
  void recordEvent(const char* type, std::vector<obs::Field> fields)
      CARAOKE_REQUIRES(mutex_);
  void startExposition();

  /// Guards all mutable state below (flight_ has its own lock).
  /// Lock order (DESIGN.md §10): while mutex_ is held the backend may
  /// acquire FlightRecorder/EventSink/Registry locks (events, metric
  /// resolution); it never acquires an Outbox lock.
  mutable std::mutex mutex_;
  BackendConfig config_;
  std::map<std::uint32_t, core::ArrayGeometry> readers_
      CARAOKE_GUARDED_BY(mutex_);
  std::map<std::uint32_t, ReaderSeqState> seqState_ CARAOKE_GUARDED_BY(mutex_);
  std::vector<SightingReport> sightings_ CARAOKE_GUARDED_BY(mutex_);
  std::vector<CountReport> counts_ CARAOKE_GUARDED_BY(mutex_);
  std::vector<DecodeReport> decodes_ CARAOKE_GUARDED_BY(mutex_);
  std::vector<SpeedSample> speedSamples_ CARAOKE_GUARDED_BY(mutex_);
  /// Durability: the open WAL (null when durability is off or restore()
  /// has not run yet). Accessed only under mutex_, which is what keeps
  /// WAL order identical to state-mutation order.
  std::unique_ptr<WalWriter> wal_ CARAOKE_GUARDED_BY(mutex_);
  /// Next snapshot file number (always past every file already on disk).
  std::uint64_t nextSnapshotSeq_ CARAOKE_GUARDED_BY(mutex_) = 1;
  std::uint64_t appendsSinceSnapshot_ CARAOKE_GUARDED_BY(mutex_) = 0;
  /// True from construction (durability configured) until restore()
  /// completes. Read lock-free by the expo /healthz thread.
  std::atomic<bool> recovering_ CARAOKE_LOCKFREE{false};
  /// Backend black box; written on every recordEvent, snapshotted by the
  /// expo thread.
  obs::FlightRecorder flight_;
  /// Declared last so its thread dies before the state it serves.
  std::unique_ptr<obs::ExpoServer> expo_;
};

}  // namespace caraoke::net
