#include "net/backend.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "net/outbox.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace caraoke::net {

namespace {

struct BackendMetrics {
  obs::Counter& counts =
      obs::globalRegistry().counter("net.backend.count_reports");
  obs::Counter& sightings =
      obs::globalRegistry().counter("net.backend.sighting_reports");
  obs::Counter& decodes =
      obs::globalRegistry().counter("net.backend.decode_reports");
  obs::Counter& fixes = obs::globalRegistry().counter("net.backend.fixes_fused");
  obs::Counter& rejectedPairIndex =
      obs::globalRegistry().counter("net.backend.rejected.pair_index");
  obs::Counter& batches =
      obs::globalRegistry().counter("net.backend.batches_ingested");
  obs::Counter& batchErrors =
      obs::globalRegistry().counter("net.backend.batch_errors");
  obs::Counter& duplicateBatches =
      obs::globalRegistry().counter("net.backend.duplicate_batches");
  obs::Counter& salvagedDrops =
      obs::globalRegistry().counter("net.backend.salvaged_message_drops");
  obs::Counter& gapsOpened =
      obs::globalRegistry().counter("net.backend.seq_gaps_opened");
  obs::Counter& gapsFilled =
      obs::globalRegistry().counter("net.backend.seq_gaps_filled");
  obs::Counter& acksSent =
      obs::globalRegistry().counter("net.backend.acks_sent");
  obs::Counter& speedSamples =
      obs::globalRegistry().counter("net.backend.speed_samples");
  obs::Counter& speedFixes =
      obs::globalRegistry().counter("net.backend.speed_fixes");
  // Durability layer (zero unless a durability dir is configured).
  obs::Counter& walAppends =
      obs::globalRegistry().counter("net.backend.wal.appends");
  obs::Counter& walBytes =
      obs::globalRegistry().counter("net.backend.wal.bytes");
  obs::Counter& walFsyncs =
      obs::globalRegistry().counter("net.backend.wal.fsyncs");
  obs::Counter& walReplayed =
      obs::globalRegistry().counter("net.backend.wal.replayed");
  obs::Counter& walSalvaged =
      obs::globalRegistry().counter("net.backend.wal.salvaged");
  obs::Counter& snapshotsWritten =
      obs::globalRegistry().counter("net.backend.snapshots_written");
  obs::Counter& snapshotsRejected =
      obs::globalRegistry().counter("net.backend.snapshots_rejected");
  obs::Counter& restores =
      obs::globalRegistry().counter("net.backend.restores");
  // Boundary timers: their quantiles land in every bench --json report
  // and BENCH_*.json trend.
  obs::Histogram& ingestBatchSec =
      obs::globalRegistry().histogram("net.backend.ingest_batch");
  obs::Histogram& restoreSec =
      obs::globalRegistry().histogram("net.backend.restore");
};

BackendMetrics& backendMetrics() {
  static BackendMetrics metrics;
  return metrics;
}

// Distinct non-zero trace ids aboard a decoded batch, first-appearance
// order — one backend.ingest event is emitted per journey, not per
// message.
std::vector<std::uint64_t> batchTraceIds(const std::vector<Message>& messages) {
  std::vector<std::uint64_t> out;
  for (const Message& m : messages) {
    const std::uint64_t id = messageTrace(m).traceId;
    if (id == 0) continue;
    if (std::find(out.begin(), out.end(), id) == out.end()) out.push_back(id);
  }
  return out;
}

}  // namespace

Backend::Backend(BackendConfig config)
    : config_(std::move(config)), flight_(config_.flightCapacity) {
  // With durability configured the backend starts in `recovering`: no
  // ingestion (and a 503 /healthz) until restore() replays the log.
  recovering_.store(!config_.durability.dir.empty(),
                    std::memory_order_release);
  if (config_.expoPort >= 0) startExposition();
}

void Backend::recordEvent(const char* type, std::vector<obs::Field> fields) {
  obs::Event event;
  event.ts = obs::monotonicSeconds();
  event.type = type;
  event.fields = std::move(fields);
  if (obs::eventsAttached()) obs::emitEvent(event.type, event.fields);
  flight_.record(std::move(event));
}

void Backend::startExposition() {
  obs::ExpoOptions options;
  options.port = static_cast<std::uint16_t>(config_.expoPort);
  // expo.* self-metrics join net.backend.* in the process registry —
  // Registry::counter/gauge/histogram are get-or-create, so multiple
  // exposing backends in one test process share the family.
  options.selfRegistry = &obs::globalRegistry();
  obs::ExpoHandlers handlers;
  handlers.slowClient = [this](const char* reason, double ageSec) {
    // Runs on the expo server thread: ExpoServer.mutex_ is held, so this
    // is the ExpoServer.mutex_ -> Backend.mutex_ edge in DESIGN.md §10.
    std::lock_guard<std::mutex> lock(mutex_);
    recordEvent("expo.slow_client", {{"reason", reason}, {"age_sec", ageSec}});
  };
  // Backend metrics live in the process-wide registry (net.backend.*).
  handlers.metricsText = [] { return obs::globalRegistry().expositionText(); };
  handlers.metricsJson = [] { return obs::globalRegistry().jsonText(); };
  handlers.healthz = [this] {
    // Distinct recovering state: the backend is up but must not take
    // traffic until restore() finishes replaying (503 keeps load
    // balancers away; readers retry through their outboxes anyway).
    if (recovering_.load(std::memory_order_acquire))
      return obs::HealthStatus{false, "recovering"};
    return obs::HealthStatus{true, "backend"};
  };
  handlers.flight = [this](const obs::FlightQuery& query) {
    return flight_.jsonLines(query.maxEntries, query.trace);
  };
  handlers.trace = [this](const std::string& traceIdHex) {
    return flight_.jsonLines(0, traceIdHex);
  };
  auto server =
      std::make_unique<obs::ExpoServer>(std::move(options), std::move(handlers));
  if (server->start()) expo_ = std::move(server);
}

void Backend::registerReader(std::uint32_t readerId,
                             core::ArrayGeometry geometry) {
  std::lock_guard<std::mutex> lock(mutex_);
  readers_[readerId] = std::move(geometry);
}

std::size_t Backend::pendingSightings() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sightings_.size();
}

std::size_t Backend::countsSize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counts_.size();
}

std::size_t Backend::decodesSize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return decodes_.size();
}

caraoke::Result<BatchIngestStats> Backend::ingestBatch(
    const std::vector<std::uint8_t>& frame) {
  using R = caraoke::Result<BatchIngestStats>;
  auto decoded = decodeBatch(frame);
  if (!decoded.ok()) {
    backendMetrics().batchErrors.inc();
    return R::failure(decoded.error());
  }
  const DecodedBatch& batch = decoded.value();
  BatchIngestStats stats;
  stats.droppedMessages = batch.droppedMessages;
  if (batch.droppedMessages > 0)
    backendMetrics().salvagedDrops.inc(batch.droppedMessages);

  // Trace provenance recovered from the v3 envelope: one backend.ingest
  // event per distinct trace marks the journey's arrival at the backend.
  const std::vector<std::uint64_t> traces = batchTraceIds(batch.messages);
  obs::ObsSpan ingestSpan(backendMetrics().ingestBatchSec);

  // Frame decoding above touched no shared state; the dedup/gap
  // accounting and report buffers below do.
  std::lock_guard<std::mutex> lock(mutex_);
  if (recovering_.load(std::memory_order_acquire)) {
    // No ack while replaying: the reader's outbox holds the batch and
    // retransmits once we're healthy again.
    backendMetrics().batchErrors.inc();
    return R::failure("backend recovering: restore() pending");
  }
  stats.readerId = batch.header.readerId;
  stats.seq = batch.header.seq;
  stats.hasAck = true;
  stats.ack = encodeAck({batch.header.readerId, batch.header.seq});
  backendMetrics().acksSent.inc();

  // Dedup peek before the WAL append: retransmissions are re-acked but
  // never logged (replay therefore never sees a duplicate, so replay
  // equivalence needs no idempotence argument). find(), not operator[],
  // so the peek itself mutates nothing un-logged.
  const auto it = seqState_.find(batch.header.readerId);
  if (it != seqState_.end() && it->second.seen.count(batch.header.seq) > 0) {
    stats.deduplicated = true;
    backendMetrics().duplicateBatches.inc();
    return stats;
  }

  if (wal_ != nullptr) {
    // Durability barrier: the frame reaches the log before any state
    // mutation. A failed append is treated as the process dying — no
    // ack, no mutation; the reader retransmits after our restart.
    const std::uint64_t bytesBefore = wal_->bytesWritten();
    const std::uint64_t fsyncsBefore = wal_->fsyncs();
    if (!wal_->append(frame)) {
      backendMetrics().batchErrors.inc();
      return R::failure("wal append failed");
    }
    backendMetrics().walAppends.inc();
    backendMetrics().walBytes.inc(wal_->bytesWritten() - bytesBefore);
    backendMetrics().walFsyncs.inc(wal_->fsyncs() - fsyncsBefore);
  }

  applyBatchLocked(batch, stats);
  backendMetrics().batches.inc();
  for (const std::uint64_t traceId : traces)
    recordEvent("backend.ingest", {{"reader_id", stats.readerId},
                                   {"seq", stats.seq},
                                   {"accepted", stats.accepted},
                                   {"trace", obs::traceHex(traceId)}});

  if (wal_ != nullptr && config_.durability.snapshotEveryAppends > 0 &&
      ++appendsSinceSnapshot_ >= config_.durability.snapshotEveryAppends)
    (void)snapshotNowLocked();
  return stats;
}

bool Backend::applyBatchLocked(const DecodedBatch& batch,
                               BatchIngestStats& stats) {
  ReaderSeqState& state = seqState_[batch.header.readerId];
  if (state.seen.count(batch.header.seq) > 0) {
    // Retransmission of a batch we already have: ingest nothing.
    stats.deduplicated = true;
    backendMetrics().duplicateBatches.inc();
    return false;
  }
  state.seen.insert(batch.header.seq);
  if (batch.header.seq > state.maxSeq) {
    const std::uint32_t expected = state.maxSeq + 1;
    if (batch.header.seq > expected)
      backendMetrics().gapsOpened.inc(batch.header.seq - expected);
    state.maxSeq = batch.header.seq;
  } else {
    // Out-of-order arrival below the high-water mark fills a gap.
    backendMetrics().gapsFilled.inc();
  }
  for (const auto& message : batch.messages) {
    ingestLocked(message);
    ++stats.accepted;
  }
  return true;
}

std::size_t Backend::gapCount(std::uint32_t readerId) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = seqState_.find(readerId);
  if (it == seqState_.end()) return 0;
  return static_cast<std::size_t>(it->second.maxSeq) - it->second.seen.size();
}

std::uint32_t Backend::highestSeq(std::uint32_t readerId) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = seqState_.find(readerId);
  return it == seqState_.end() ? 0 : it->second.maxSeq;
}

void Backend::ingestLocked(const Message& message) {
  if (const auto* count = std::get_if<CountReport>(&message)) {
    backendMetrics().counts.inc();
    counts_.push_back(*count);
  } else if (const auto* sighting = std::get_if<SightingReport>(&message)) {
    backendMetrics().sightings.inc();
    sightings_.push_back(*sighting);
    // Feed the §7 speed-pairing angle track: the sighting reduced to its
    // along-road direction cosine, keeping trace lineage.
    SpeedSample sample;
    sample.readerId = sighting->readerId;
    sample.timestamp = sighting->timestamp;
    sample.cfoHz = sighting->cfoHz;
    sample.cosAlpha = std::cos(sighting->angleRad);
    sample.traceId = sighting->traceId;
    speedSamples_.push_back(sample);
    backendMetrics().speedSamples.inc();
  } else if (const auto* decode = std::get_if<DecodeReport>(&message)) {
    backendMetrics().decodes.inc();
    decodes_.push_back(*decode);
  }
}

std::vector<FusedFix> Backend::fuse(double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  // A pairIndex naming no baseline of its reader's geometry can never be
  // fused, and baselineDirection() would throw on it on every call.
  const std::size_t badPairs =
      std::erase_if(sightings_, [this](const SightingReport& s) {
        const auto it = readers_.find(s.readerId);
        return it != readers_.end() && s.pairIndex >= it->second.pairs.size();
      });
  if (badPairs > 0) backendMetrics().rejectedPairIndex.inc(badPairs);

  std::vector<FusedFix> fixes;
  std::vector<bool> consumed(sightings_.size(), false);

  for (std::size_t i = 0; i < sightings_.size(); ++i) {
    if (consumed[i]) continue;
    for (std::size_t j = i + 1; j < sightings_.size(); ++j) {
      if (consumed[j]) continue;
      const SightingReport& a = sightings_[i];
      const SightingReport& b = sightings_[j];
      if (a.readerId == b.readerId) continue;
      if (std::abs(a.cfoHz - b.cfoHz) > config_.cfoToleranceHz) continue;
      if (std::abs(a.timestamp - b.timestamp) > config_.timeWindowSec)
        continue;
      const auto itA = readers_.find(a.readerId);
      const auto itB = readers_.find(b.readerId);
      if (itA == readers_.end() || itB == readers_.end()) continue;

      core::ConeConstraint coneA;
      coneA.apex = itA->second.center();
      coneA.axis = itA->second.baselineDirection(a.pairIndex);
      coneA.angleRad = a.angleRad;
      core::ConeConstraint coneB;
      coneB.apex = itB->second.center();
      coneB.axis = itB->second.baselineDirection(b.pairIndex);
      coneB.angleRad = b.angleRad;

      // Road-parallel baselines admit the paper's exact Eq. 15 method;
      // anything else falls back to the Newton grid.
      auto candidates = core::hyperbolaCandidates(coneA, coneB, config_.road);
      if (candidates.empty())
        candidates =
            core::localizeTwoReadersCandidates(coneA, coneB, config_.road);
      if (candidates.empty()) continue;
      const core::PositionFix* chosen = &candidates.front();
      if (!config_.preferredRowsY.empty()) {
        double bestRowGap = 1e18;
        for (const auto& c : candidates) {
          for (double rowY : config_.preferredRowsY) {
            const double gap = std::abs(c.position.y - rowY);
            if (gap < bestRowGap) {
              bestRowGap = gap;
              chosen = &c;
            }
          }
        }
      }

      FusedFix fused;
      fused.cfoHz = 0.5 * (a.cfoHz + b.cfoHz);
      fused.timestamp = 0.5 * (a.timestamp + b.timestamp);
      fused.position = chosen->position;
      fused.readerA = a.readerId;
      fused.readerB = b.readerId;
      fixes.push_back(fused);
      backendMetrics().fixes.inc();
      consumed[i] = consumed[j] = true;
      break;
    }
  }

  // Drop consumed and expired sightings.
  std::vector<SightingReport> keep;
  for (std::size_t i = 0; i < sightings_.size(); ++i) {
    if (consumed[i]) continue;
    if (now - sightings_[i].timestamp > config_.timeWindowSec) continue;
    keep.push_back(sightings_[i]);
  }
  sightings_ = std::move(keep);
  return fixes;
}

std::size_t Backend::pendingSpeedSamples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return speedSamples_.size();
}

std::vector<SpeedFix> Backend::pairSpeeds(double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpeedFix> fixes;

  // Cluster buffered samples by (reader, CFO): greedy assignment to the
  // first cluster whose mean CFO is within the association tolerance —
  // the same key fuse() uses, applied along the time axis.
  struct Cluster {
    std::uint32_t readerId = 0;
    double cfoSum = 0.0;
    std::vector<std::size_t> samples;  ///< Indices into speedSamples_.
    bool consumed = false;
    double meanCfo() const {
      return cfoSum / static_cast<double>(samples.size());
    }
  };
  std::vector<Cluster> clusters;
  for (std::size_t i = 0; i < speedSamples_.size(); ++i) {
    const SpeedSample& s = speedSamples_[i];
    Cluster* home = nullptr;
    for (Cluster& c : clusters) {
      if (c.readerId != s.readerId) continue;
      if (std::abs(c.meanCfo() - s.cfoHz) > config_.cfoToleranceHz) continue;
      home = &c;
      break;
    }
    if (home == nullptr) {
      clusters.push_back(Cluster{s.readerId, 0.0, {}, false});
      home = &clusters.back();
    }
    home->cfoSum += s.cfoHz;
    home->samples.push_back(i);
  }

  auto abeamOf = [this](const Cluster& c) -> std::optional<double> {
    if (c.samples.size() < config_.minAbeamSamples) return std::nullopt;
    std::vector<core::AngleSample> track;
    track.reserve(c.samples.size());
    for (std::size_t idx : c.samples)
      track.push_back({speedSamples_[idx].timestamp,
                       speedSamples_[idx].cosAlpha});
    std::sort(track.begin(), track.end(),
              [](const core::AngleSample& a, const core::AngleSample& b) {
                return a.time < b.time;
              });
    return core::findAbeamTime(track);
  };

  std::vector<bool> consumedSample(speedSamples_.size(), false);
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    if (clusters[i].consumed) continue;
    for (std::size_t j = i + 1; j < clusters.size(); ++j) {
      if (clusters[j].consumed) continue;
      Cluster& a = clusters[i];
      Cluster& b = clusters[j];
      if (a.readerId == b.readerId) continue;
      if (std::abs(a.meanCfo() - b.meanCfo()) > config_.cfoToleranceHz)
        continue;
      const auto itA = readers_.find(a.readerId);
      const auto itB = readers_.find(b.readerId);
      if (itA == readers_.end() || itB == readers_.end()) continue;
      const auto tA = abeamOf(a);
      const auto tB = abeamOf(b);
      if (!tA || !tB) continue;
      // Pole x positions along the road come from registered geometry.
      const double xA = itA->second.center().x;
      const double xB = itB->second.center().x;
      const auto speed = *tA <= *tB ? core::estimateSpeed(xA, *tA, xB, *tB)
                                    : core::estimateSpeed(xB, *tB, xA, *tA);
      if (!speed) continue;

      SpeedFix fix;
      fix.cfoHz = 0.5 * (a.meanCfo() + b.meanCfo());
      fix.speedMps = *speed;
      fix.abeamTimeA = *tA;
      fix.abeamTimeB = *tB;
      fix.readerA = a.readerId;
      fix.readerB = b.readerId;
      // Trace lineage: the readerA sighting nearest its abeam crossing.
      double bestGap = 1e18;
      for (std::size_t idx : a.samples) {
        const SpeedSample& s = speedSamples_[idx];
        if (s.traceId == 0) continue;
        const double gap = std::abs(s.timestamp - *tA);
        if (gap < bestGap) {
          bestGap = gap;
          fix.traceId = s.traceId;
        }
      }
      // The speed-fix event joins the originating reader's trace — the
      // end of the end-to-end journey.
      recordEvent("backend.speed_fix",
                  {{"reader_a", fix.readerA},
                   {"reader_b", fix.readerB},
                   {"cfo_hz", fix.cfoHz},
                   {"speed_mps", fix.speedMps},
                   {"t_abeam_a", fix.abeamTimeA},
                   {"t_abeam_b", fix.abeamTimeB},
                   {"trace", obs::traceHex(fix.traceId)}});
      backendMetrics().speedFixes.inc();
      fixes.push_back(fix);
      a.consumed = true;
      b.consumed = true;
      for (std::size_t idx : a.samples) consumedSample[idx] = true;
      for (std::size_t idx : b.samples) consumedSample[idx] = true;
      break;
    }
  }

  // Drop consumed and expired samples.
  std::vector<SpeedSample> keepSamples;
  for (std::size_t i = 0; i < speedSamples_.size(); ++i) {
    if (consumedSample[i]) continue;
    if (now - speedSamples_[i].timestamp > config_.speedWindowSec) continue;
    keepSamples.push_back(speedSamples_[i]);
  }
  speedSamples_ = std::move(keepSamples);
  return fixes;
}

std::string Backend::walPath() const {
  return config_.durability.dir + "/backend.wal";
}

BackendSnapshot Backend::buildSnapshotLocked() const {
  BackendSnapshot snap;
  for (const auto& [readerId, state] : seqState_) {
    ReaderSeqRecord record;
    record.readerId = readerId;
    record.maxSeq = state.maxSeq;
    record.seen.assign(state.seen.begin(), state.seen.end());
    snap.seq.push_back(std::move(record));
  }
  snap.sightings = sightings_;
  snap.counts = counts_;
  snap.decodes = decodes_;
  snap.speedSamples.reserve(speedSamples_.size());
  for (const SpeedSample& s : speedSamples_)
    snap.speedSamples.push_back(
        {s.readerId, s.timestamp, s.cfoHz, s.cosAlpha, s.traceId});
  return snap;
}

void Backend::applySnapshotLocked(const BackendSnapshot& snapshot) {
  seqState_.clear();
  for (const ReaderSeqRecord& record : snapshot.seq) {
    ReaderSeqState& state = seqState_[record.readerId];
    state.maxSeq = record.maxSeq;
    state.seen.insert(record.seen.begin(), record.seen.end());
  }
  sightings_ = snapshot.sightings;
  counts_ = snapshot.counts;
  decodes_ = snapshot.decodes;
  speedSamples_.clear();
  speedSamples_.reserve(snapshot.speedSamples.size());
  for (const SpeedSampleRecord& s : snapshot.speedSamples)
    speedSamples_.push_back(
        {s.readerId, s.timestamp, s.cfoHz, s.cosAlpha, s.traceId});
}

std::vector<std::uint8_t> Backend::stateBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  BackendSnapshot snap = buildSnapshotLocked();
  snap.walOffset = 0;  // Position in the log is not state.
  return encodeSnapshot(snap);
}

bool Backend::durable() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return wal_ != nullptr && wal_->ok();
}

bool Backend::snapshotNow() {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshotNowLocked();
}

bool Backend::snapshotNowLocked() {
  if (wal_ == nullptr || !wal_->ok()) return false;
  // The snapshot claims durable coverage of every log byte below its
  // offset, so flush first (this is the kOnSnapshot policy's flush
  // point; under the stricter policies it is nearly free).
  const std::uint64_t fsyncsBefore = wal_->fsyncs();
  if (!wal_->sync()) return false;
  backendMetrics().walFsyncs.inc(wal_->fsyncs() - fsyncsBefore);

  BackendSnapshot snap = buildSnapshotLocked();
  snap.walOffset = wal_->offset();
  const std::uint64_t seq = nextSnapshotSeq_;
  const std::vector<std::uint8_t> bytes = encodeSnapshot(snap);

  if (config_.durability.tearSnapshotAtSeq == seq) {
    // Chaos: die after writing the tmp file, before the rename — the
    // classic mid-snapshot crash. The loader must never surface this
    // file; the previous snapshot (or none) plus the WAL still covers
    // everything.
    const std::string tmpPath =
        config_.durability.dir + "/" + snapshotFileName(seq) + ".tmp";
    std::ofstream out(tmpPath, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size() / 2));
    wal_->kill();
    return false;
  }

  if (!writeSnapshotFile(config_.durability.dir, seq, bytes)) return false;
  ++nextSnapshotSeq_;
  appendsSinceSnapshot_ = 0;
  backendMetrics().snapshotsWritten.inc();
  recordEvent("backend.snapshot", {{"seq", seq},
                                   {"bytes", bytes.size()},
                                   {"wal_offset", snap.walOffset}});
  return true;
}

caraoke::Result<RestoreStats> Backend::restore(const std::string& dir) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    config_.durability.dir = dir;
  }
  recovering_.store(true, std::memory_order_release);
  return restore();
}

caraoke::Result<RestoreStats> Backend::restore() {
  using R = caraoke::Result<RestoreStats>;
  std::lock_guard<std::mutex> lock(mutex_);
  if (config_.durability.dir.empty())
    return R::failure("durability not configured (empty dir)");
  obs::ObsSpan span(backendMetrics().restoreSec);
  std::error_code ec;
  std::filesystem::create_directories(config_.durability.dir, ec);

  RestoreStats out;
  LoadedSnapshot snapshot =
      loadNewestSnapshot(config_.durability.dir, &out.snapshotsRejected);
  out.snapshotSeq = snapshot.seq;
  if (out.snapshotsRejected > 0)
    backendMetrics().snapshotsRejected.inc(out.snapshotsRejected);
  applySnapshotLocked(snapshot.state);

  // Replay the WAL tail: records entirely covered by the snapshot's
  // offset are already in the state; everything after is applied in log
  // order. Damage (torn tail from a crash mid-append, or corruption)
  // ends the replay at the damage point — those batches were never
  // acked, so the readers' outboxes still hold them.
  const std::string path = walPath();
  const WalReadResult log = readWalFile(path);
  std::uint64_t cursor = 0;
  for (const auto& payload : log.payloads) {
    const std::uint64_t end =
        cursor + kWalRecordOverheadBytes + payload.size();
    if (end > snapshot.state.walOffset) {
      auto decoded = decodeBatch(payload);
      if (decoded.ok()) {
        // Salvage drops what live ingest dropped, and counts it alike.
        if (decoded.value().droppedMessages > 0)
          backendMetrics().salvagedDrops.inc(decoded.value().droppedMessages);
        BatchIngestStats replayStats;
        applyBatchLocked(decoded.value(), replayStats);
        ++out.replayedRecords;
      }
    }
    cursor = end;
  }
  out.corruptRecords = log.corruptRecords;
  out.salvagedBytes = log.salvagedBytes;
  backendMetrics().walReplayed.inc(out.replayedRecords);
  if (out.salvagedBytes > 0)
    backendMetrics().walSalvaged.inc(out.salvagedBytes);

  // Truncate the torn tail before resuming appends: records written
  // after un-truncated damage would be unreachable (the parser stops at
  // the damage) and silently lost on the *next* restore.
  if (log.salvagedBytes > 0)
    (void)::truncate(path.c_str(), static_cast<off_t>(log.intactBytes));

  auto writer = std::make_unique<WalWriter>(
      path, config_.durability.fsyncPolicy, config_.durability.fsyncEveryN);
  if (!writer->ok()) return R::failure("cannot open wal for append");
  if (config_.durability.tearWalAtAppend > 0)
    writer->injectTear(config_.durability.tearWalAtAppend,
                       config_.durability.tearWalKeepBytes);
  wal_ = std::move(writer);
  nextSnapshotSeq_ = newestSnapshotSeq(config_.durability.dir) + 1;
  appendsSinceSnapshot_ = 0;
  backendMetrics().restores.inc();
  recordEvent("backend.restore",
              {{"snapshot_seq", out.snapshotSeq},
               {"replayed", out.replayedRecords},
               {"corrupt_records", out.corruptRecords},
               {"salvaged_bytes", out.salvagedBytes},
               {"snapshots_rejected", out.snapshotsRejected}});
  recovering_.store(false, std::memory_order_release);
  return out;
}

}  // namespace caraoke::net
