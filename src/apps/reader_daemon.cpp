#include "apps/reader_daemon.hpp"

#include <algorithm>
#include <cmath>

#include "common/units.hpp"
#include "obs/events.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "phy/protocol.hpp"

namespace caraoke::apps {

namespace {

core::ArrayGeometry geometryOf(const sim::ReaderNode& node) {
  core::ArrayGeometry g;
  g.elements = node.array().elements();
  g.pairs = sim::TriangleArray::pairs();
  return g;
}

net::OutboxConfig outboxConfigFor(const ReaderDaemonConfig& config) {
  net::OutboxConfig out = config.outbox;
  out.readerId = config.readerId;
  out.metricsPrefix = "daemon.outbox";
  return out;
}

}  // namespace

const char* uplinkHealthName(UplinkHealth health) {
  switch (health) {
    case UplinkHealth::kHealthy:
      return "healthy";
    case UplinkHealth::kDegraded:
      return "degraded";
    case UplinkHealth::kUplinkDown:
      return "uplink_down";
  }
  return "unknown";
}

ReaderDaemon::ReaderDaemon(ReaderDaemonConfig config, sim::Scene& scene,
                           std::size_t readerIndex, Rng rng)
    : config_(config),
      scene_(scene),
      readerIndex_(readerIndex),
      rng_(rng),
      traceRng_(0xca0e'77ac'0000'0000ull + config.readerId),
      window_(geometryOf(scene.reader(readerIndex)),
              scene.reader(readerIndex).frontEnd.sampling,
              [&] {
                config.counter.noiseSigma =
                    scene.reader(readerIndex).frontEnd.noiseSigma;
                return config.counter;
              }(),
              config.tracker, config.decoder),
      measurementsCtr_(registry_.counter("daemon.measurements")),
      queriesCtr_(registry_.counter("daemon.queries_sent")),
      decodedIdsCtr_(registry_.counter("daemon.decoded_ids")),
      uplinkFlushesCtr_(registry_.counter("daemon.uplink_flushes")),
      uplinkBytesCtr_(registry_.counter("daemon.uplink_bytes")),
      uplinkRetriesCtr_(registry_.counter("daemon.uplink_retries")),
      sightingsReportedCtr_(registry_.counter("daemon.sightings_reported")),
      countsReportedCtr_(registry_.counter("daemon.counts_reported")),
      healthChangesCtr_(registry_.counter("daemon.health_changes")),
      healthGauge_(registry_.gauge("daemon.health_state")),
      energyGauge_(registry_.gauge("daemon.energy_joules")),
      windowSec_(registry_.histogram("daemon.measurement_window.seconds")),
      // The outbox's jitter stream is seeded independently of rng_ so
      // attaching the fault-tolerant uplink does not perturb the scene's
      // noise draws (which seed-pinned tests depend on).
      outbox_(outboxConfigFor(config),
              Rng(0xca0c'b0c5'0000'0000ull + config.readerId), &registry_),
      flight_(config.flightCapacity),
      flightDumpsCtr_(registry_.counter("daemon.flight_dumps")) {
  clock_.ntpSync(0.0, net::kNtpResidualRmsSec, rng_);
  if (config_.expoPort >= 0) startExposition();
}

void ReaderDaemon::startExposition() {
  obs::ExpoOptions options;
  options.port = static_cast<std::uint16_t>(config_.expoPort);
  // The serving plane watches itself: expo.* self-metrics land in the
  // daemon registry, so the same /metrics scrape that reads dsp.* also
  // shows connection churn, shed counts, and per-route latency.
  options.selfRegistry = &registry_;
  obs::ExpoHandlers handlers;
  handlers.slowClient = [this](const char* reason, double ageSec) {
    recordEvent("expo.slow_client", {{"reason", reason},
                                     {"age_sec", ageSec},
                                     {"reader_id", config_.readerId}});
  };
  // The daemon's private registry first, then the process-wide one
  // (dsp.*, net.link.*, ...): one scrape sees the whole device. Both
  // snapshot under their own mutexes, so serving during a measurement
  // window is race-free.
  handlers.metricsText = [this] {
    return registry_.expositionText() + obs::globalRegistry().expositionText();
  };
  handlers.metricsJson = [this] {
    return "{\"daemon\":" + registry_.jsonText() +
           ",\"process\":" + obs::globalRegistry().jsonText() + "}";
  };
  handlers.healthz = [this] {
    const UplinkHealth state = health();
    obs::HealthStatus status;
    status.ok = state == UplinkHealth::kHealthy;
    status.body = uplinkHealthName(state);
    return status;
  };
  handlers.flight = [this](const obs::FlightQuery& query) {
    return flight_.jsonLines(query.maxEntries, query.trace);
  };
  handlers.trace = [this](const std::string& traceIdHex) {
    return flight_.jsonLines(0, traceIdHex);
  };
  handlers.profile = [](const std::string& format) {
    return format == "folded" ? obs::prof::foldedText()
                              : obs::prof::jsonText();
  };
  auto server =
      std::make_unique<obs::ExpoServer>(std::move(options), std::move(handlers));
  // A failed bind (port taken) must not kill the reader: log via the
  // event stream and carry on headless.
  if (server->start())
    expo_ = std::move(server);
  recordEvent("daemon.expo_start",
              {{"reader_id", config_.readerId},
               {"requested_port", config_.expoPort},
               {"bound_port", expo_ != nullptr ? expo_->port() : 0},
               {"ok", expo_ != nullptr}});
}

void ReaderDaemon::recordEvent(const char* type,
                               std::vector<obs::Field> fields) {
  // The flight ring records unconditionally (it IS the black box); the
  // process sink only sees the event when a test/tool attached one.
  obs::Event event;
  event.ts = obs::monotonicSeconds();
  event.type = type;
  event.fields = std::move(fields);
  if (obs::eventsAttached()) obs::emitEvent(event.type, event.fields);
  flight_.record(std::move(event));
}

void ReaderDaemon::accountActive(double activeSec) {
  energyGauge_.add(config_.power.activeWatts * activeSec);
}

void ReaderDaemon::measurementWindow(double now) {
  // Mint this window's trace context: every count/sighting/decode born
  // in this burst shares the traceId end to end — through the outbox, the
  // v3 wire envelope, and into the backend's ingest/speed-fix events.
  // The window's own events carry it as their last field, `trace`.
  // `| 1` keeps ids non-zero (0 is the "no trace" sentinel).
  const obs::TraceContext trace{traceRng_.next() | 1ull,
                                traceRng_.next() | 1ull};
  const std::string traceHex = obs::traceHex(trace.traceId);
  obs::ObsSpan windowSpan(windowSec_);

  // Fire the query burst.
  core::Burst burst;
  for (std::size_t q = 0; q < config_.queriesPerWindow; ++q)
    burst.push_back(scene_.query(readerIndex_, now, rng_).antennaSamples);
  queriesCtr_.inc(config_.queriesPerWindow);
  accountActive(static_cast<double>(config_.queriesPerWindow) *
                phy::kQueryInterval);
  recordEvent("daemon.query_burst",
              {{"t", now},
               {"reader_id", config_.readerId},
               {"queries", config_.queriesPerWindow},
               {"trace", traceHex}});

  // Count and report.
  const core::CountResult count = window_.count(burst);
  {
    std::size_t multiBins = 0;
    for (const auto occ : count.occupancy)
      if (occ == core::BinOccupancy::kMulti) ++multiBins;
    recordEvent("daemon.count",
                {{"t", now},
                 {"reader_id", config_.readerId},
                 {"spikes", count.spikes},
                 {"estimate", count.estimate},
                 {"multi_bins", multiBins},
                 {"trace", traceHex}});
  }
  outbox_.add(net::Message{net::CountReport{
      config_.readerId, clock_.localTime(now),
      static_cast<std::uint32_t>(count.estimate), trace.traceId,
      trace.spanId}});
  countsReportedCtr_.inc();

  // Observe, then report every confirmed track seen this window.
  window_.observe(now, burst, count);
  for (const core::Track& track : window_.tracker().tracks()) {
    if (!track.confirmed(config_.tracker.confirmHits)) continue;
    if (track.lastSeen < now) continue;  // not seen this window
    net::SightingReport sighting;
    sighting.readerId = config_.readerId;
    sighting.timestamp = clock_.localTime(now);
    sighting.cfoHz = track.cfoHz;
    sighting.pairIndex = static_cast<std::uint32_t>(window_.roadPair());
    sighting.angleRad = std::acos(std::clamp(track.cosAlpha, -1.0, 1.0));
    sighting.traceId = trace.traceId;
    sighting.spanId = trace.spanId;
    outbox_.add(net::Message{sighting});
    sightingsReportedCtr_.inc();
  }

  // Opportunistic decode on the strongest track that has no id yet.
  if (const auto attempt =
          window_.decode(burst, config_.decodeCollisionsPerWindow)) {
    if (attempt->id) {
      net::DecodeReport report;
      report.readerId = config_.readerId;
      report.timestamp = clock_.localTime(now);
      report.cfoHz = attempt->cfoHz;
      report.id = *attempt->id;
      report.traceId = trace.traceId;
      report.spanId = trace.spanId;
      outbox_.add(net::Message{report});
      decodedIdsCtr_.inc();
    }
    recordEvent("daemon.decode_attempt",
                {{"t", now},
                 {"reader_id", config_.readerId},
                 {"cfo_hz", attempt->cfoHz},
                 {"combines", attempt->combines},
                 {"crc_ok", attempt->id.has_value()},
                 {"trace", traceHex}});
  }

  // The window's reports are now queued in the outbox — the journey's
  // hand-off from the measurement pipeline to the uplink.
  recordEvent("daemon.enqueue",
              {{"t", now},
               {"reader_id", config_.readerId},
               {"queued", outbox_.openMessages()},
               {"trace", traceHex}});

  measurementsCtr_.inc();
}

void ReaderDaemon::attachUplink(net::UplinkLink* tx, net::UplinkLink* ackRx) {
  uplinkTx_ = tx;
  ackRx_ = ackRx;
}

void ReaderDaemon::shutdownFlush(double now) {
  // Graceful shutdown: seal whatever is batching (ignoring the flush
  // period — the modem wakes one last time) and push it plus any pending
  // retries at the backend, so a durable backend has every observation
  // in its WAL before the pole powers down.
  if (outbox_.openMessages() > 0) outbox_.seal(now);
  recordEvent("daemon.shutdown_flush",
              {{"t", now},
               {"reader_id", config_.readerId},
               {"pending", outbox_.pendingBatches()}});
  pumpUplink(now);
}

void ReaderDaemon::pumpUplink(double now) {
  // Drain acks that arrived over the downlink since the last tick.
  if (ackRx_ != nullptr)
    for (const auto& frame : ackRx_->deliver(now))
      outbox_.onAckFrame(frame, now);

  // Seal the open batch on the flush period (footnote 15: batch, then
  // wake the modem once).
  if (now >= nextUplink_ && outbox_.openMessages() > 0) {
    outbox_.seal(now);
    nextUplink_ = now + config_.uplinkPeriodSec;
  }

  // Transmit everything due: freshly sealed batches and expired-backoff
  // retries. One modem wake covers the burst. Without a link nothing
  // leaves the pole; the batches wait in the outbox.
  const auto transmissions = uplinkTx_ != nullptr
                                 ? outbox_.collectTransmissions(now)
                                 : std::vector<net::OutboxTransmission>{};
  if (!transmissions.empty()) {
    std::size_t bytes = 0;
    for (const auto& tx : transmissions) bytes += tx.frame.size();
    uplinkBytesCtr_.inc(bytes);
    uplinkFlushesCtr_.inc();
    // Modem burst: air time at ~1 Mbps plus wake overhead.
    const double airSec = net::batchAirTimeSec(bytes, 1e6) + 0.02;
    energyGauge_.add(config_.power.modemBurstWatts * airSec);
    recordEvent("daemon.uplink_flush",
                {{"t", now},
                 {"reader_id", config_.readerId},
                 {"bytes", bytes},
                 {"frames", transmissions.size()}});
    for (const auto& tx : transmissions) {
      if (tx.attempt > 1) {
        uplinkRetriesCtr_.inc();
        recordEvent("daemon.uplink_retry",
                    {{"t", now},
                     {"reader_id", config_.readerId},
                     {"seq", tx.seq},
                     {"attempt", tx.attempt}});
      }
      // Span links: one link_attempt per journey aboard this frame, so a
      // trace records every wire attempt (including retransmits) it rode.
      for (const std::uint64_t traceId : tx.traceIds)
        recordEvent("daemon.link_attempt",
                    {{"t", now},
                     {"reader_id", config_.readerId},
                     {"seq", tx.seq},
                     {"attempt", tx.attempt},
                     {"trace", obs::traceHex(traceId)}});
      uplinkTx_->send(tx.frame, now);
    }
  }

  updateHealth(now);
}

void ReaderDaemon::updateHealth(double now) {
  const std::size_t failures = outbox_.consecutiveFailures();
  UplinkHealth next = UplinkHealth::kHealthy;
  if (failures >= config_.downAfterFailures)
    next = UplinkHealth::kUplinkDown;
  else if (failures >= config_.degradedAfterFailures)
    next = UplinkHealth::kDegraded;
  const UplinkHealth previous = health_.load(std::memory_order_relaxed);
  if (next == previous) return;
  health_.store(next, std::memory_order_release);
  healthGauge_.set(static_cast<double>(static_cast<int>(next)));
  healthChangesCtr_.inc();
  recordEvent("daemon.health_change",
              {{"t", now},
               {"reader_id", config_.readerId},
               {"from", uplinkHealthName(previous)},
               {"to", uplinkHealthName(next)},
               {"consecutive_failures", failures}});
  // Watchdog trip: freeze the black box to disk while the evidence is
  // still in the ring. Recovering to healthy does not dump — the
  // interesting window is the run-up to the failure.
  if (next != UplinkHealth::kHealthy && !config_.flightDumpPath.empty()) {
    if (flight_.dumpToFile(config_.flightDumpPath)) {
      flightDumpsCtr_.inc();
      recordEvent("daemon.flight_dump",
                  {{"t", now},
                   {"reader_id", config_.readerId},
                   {"path", config_.flightDumpPath},
                   {"entries", flight_.size()}});
    }
  }
}

void ReaderDaemon::runUntil(double untilTime) {
  while (nextMeasurement_ <= untilTime) {
    const double now = nextMeasurement_;

    if (now >= nextNtp_) {
      clock_.ntpSync(now, net::kNtpResidualRmsSec, rng_);
      nextNtp_ = now + config_.ntpPeriodSec;
      recordEvent("daemon.ntp_sync",
                  {{"t", now},
                   {"reader_id", config_.readerId},
                   {"offset_sec", clock_.offsetSec()}});
    }

    measurementWindow(now);

    pumpUplink(now);

    // Sleep until the next measurement.
    energyGauge_.add(config_.power.sleepWatts * config_.measurementPeriodSec);
    nextMeasurement_ = now + config_.measurementPeriodSec;
  }
  now_ = untilTime;
}

const DaemonStats& ReaderDaemon::stats() const {
  statsView_.measurements = measurementsCtr_.value();
  statsView_.queriesSent = queriesCtr_.value();
  statsView_.decodedIds = decodedIdsCtr_.value();
  statsView_.uplinkFlushes = uplinkFlushesCtr_.value();
  statsView_.uplinkBytes = uplinkBytesCtr_.value();
  statsView_.uplinkRetries = uplinkRetriesCtr_.value();
  statsView_.energyJoules = energyGauge_.value();
  return statsView_;
}

}  // namespace caraoke::apps
