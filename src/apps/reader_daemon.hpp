// The reader "firmware" loop: what actually runs on the pole.
//
// Ties the whole system together the way §10 describes the device
// operating: the micro-controller duty-cycles between sleep and short
// active windows; each active window fires a burst of queries and hands
// it to core::MeasurementWindow (count, observe/track, opportunistic
// decode), turns the window's output into count, sighting and decode
// reports, batches them, and periodically wakes the modem to flush the
// batch upstream — while the energy ledger accounts for every phase
// against the §12.5 power model.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/measurement_window.hpp"
#include "net/clock.hpp"
#include "net/framing.hpp"
#include "net/link.hpp"
#include "net/outbox.hpp"
#include "obs/expo.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "power/model.hpp"
#include "sim/scene.hpp"

namespace caraoke::apps {

/// Uplink health as seen by the daemon's watchdog, driven by consecutive
/// unacknowledged retransmissions.
enum class UplinkHealth {
  kHealthy = 0,
  kDegraded = 1,    ///< Retries happening, but recent enough to recover.
  kUplinkDown = 2,  ///< Sustained failure: modem/backhaul presumed dead.
};

/// Human-readable health-state name (for events and logs).
const char* uplinkHealthName(UplinkHealth health);

/// Daemon configuration.
struct ReaderDaemonConfig {
  std::uint32_t readerId = 1;
  /// Queries per active window (§10: ~10 max in a 10 ms window).
  std::size_t queriesPerWindow = 8;
  /// One measurement per this period (the duty cycle).
  double measurementPeriodSec = 1.0;
  /// Modem flush period (footnote 15: batch, then sleep the modem).
  double uplinkPeriodSec = 30.0;
  /// NTP re-sync period.
  double ntpPeriodSec = 600.0;
  /// Decode budget: at most this many decode attempts (collision
  /// combines) per active window, spent on the strongest unidentified
  /// track.
  std::size_t decodeCollisionsPerWindow = 4;
  /// Watchdog: consecutive unacked retransmissions before the uplink is
  /// reported degraded / down.
  std::size_t degradedAfterFailures = 3;
  std::size_t downAfterFailures = 8;

  /// Live exposition (obs::ExpoServer): when >= 0, serve GET /metrics,
  /// /metrics.json, /healthz, /flight[?n=K&trace=ID] and /trace/<id>
  /// on 127.0.0.1:<expoPort>
  /// (0 = OS-assigned ephemeral port; read it back via expoPort()).
  /// Negative (default) keeps the daemon network-silent.
  int expoPort = -1;
  /// Flight recorder depth: the last this-many events survive for
  /// post-mortems.
  std::size_t flightCapacity = 256;
  /// When non-empty, every transition into degraded/uplink_down dumps
  /// the flight ring to this path (JSON lines, truncating).
  std::string flightDumpPath;

  core::MultiQueryCounterConfig counter{};
  core::TrackerConfig tracker{};
  core::DecoderConfig decoder{};
  power::PowerProfile power{};
  /// Store-and-forward uplink queue tuning. readerId and metricsPrefix
  /// are overridden by the daemon (readerId above; "daemon.outbox").
  net::OutboxConfig outbox{};
};

/// Cumulative operating statistics.
///
/// This is a *view* over the daemon's telemetry registry — every field is
/// read back from the `daemon.*` metrics, so the struct can never drift
/// from what the registry exports (the counters are the single source of
/// truth; there is no shadow accounting).
struct DaemonStats {
  std::size_t measurements = 0;
  std::size_t queriesSent = 0;
  std::size_t decodedIds = 0;
  std::size_t uplinkFlushes = 0;
  std::size_t uplinkBytes = 0;
  std::size_t uplinkRetries = 0;
  double energyJoules = 0.0;

  /// Average electrical power over the run.
  double averagePowerWatts(double elapsedSec) const {
    return elapsedSec > 0 ? energyJoules / elapsedSec : 0.0;
  }
};

/// The firmware loop, driven against a simulated scene.
class ReaderDaemon {
 public:
  /// readerIndex: which scene reader this daemon owns. The array
  /// geometry is taken from the scene's reader node.
  ReaderDaemon(ReaderDaemonConfig config, sim::Scene& scene,
               std::size_t readerIndex, Rng rng);

  /// Advance the daemon to `untilTime` (true time, seconds), performing
  /// every measurement/uplink/sync due in between.
  void runUntil(double untilTime);

  /// Graceful shutdown: seal the open batch immediately (no waiting for
  /// the flush period) and transmit everything pending, so a durable
  /// backend can log the pole's final observations before power-down.
  void shutdownFlush(double now);

  /// Route uplink traffic through a link pair: `tx` carries batch frames
  /// toward the backend, `ackRx` carries acks back. Both pointers are
  /// non-owning and must outlive the daemon (or be detached with
  /// nullptrs). With no link attached the daemon transmits nothing and
  /// acks nothing: sealed batches wait in the outbox, under its byte
  /// budget, and go out on the first tick after a link is attached.
  void attachUplink(net::UplinkLink* tx, net::UplinkLink* ackRx);

  /// Watchdog state of the uplink path. Atomic read: the expo server's
  /// /healthz handler polls this from its own thread.
  UplinkHealth health() const {
    return health_.load(std::memory_order_acquire);
  }

  /// The store-and-forward queue (pending batches, retry state).
  const net::Outbox& outbox() const { return outbox_; }

  /// Black-box ring of recent daemon events (always recording; dumped on
  /// watchdog trips, served at /flight when exposition is on).
  const obs::FlightRecorder& flight() const { return flight_; }
  obs::FlightRecorder& flight() { return flight_; }

  /// Bound exposition port, or 0 when exposition is disabled (or failed
  /// to bind — a daemon must keep reading the road either way).
  std::uint16_t expoPort() const {
    return expo_ != nullptr ? expo_->port() : 0;
  }

  /// Tear down the exposition server (idempotent; no-op when none is
  /// running). Fleet chaos tests use this to simulate a dead pole: the
  /// daemon's listen socket closes, so collector scrapes start failing
  /// the way they would against a powered-off reader.
  void stopExposition() {
    if (expo_ != nullptr) expo_->stop();
  }

  /// Cumulative stats, materialized from the telemetry registry on each
  /// call (see DaemonStats).
  const DaemonStats& stats() const;

  /// This daemon's private metrics registry (`daemon.*` names). Private
  /// per instance so two daemons in one process never alias counters;
  /// expose it to a scraper alongside obs::globalRegistry().
  const obs::Registry& registry() const { return registry_; }
  obs::Registry& registry() { return registry_; }

  const core::TransponderTracker& tracker() const {
    return window_.tracker();
  }
  const net::ReaderClock& clock() const { return clock_; }

 private:
  void measurementWindow(double now);
  void accountActive(double activeSec);
  void pumpUplink(double now);
  void updateHealth(double now);
  /// Record a structured event into the flight ring (always) and forward
  /// it to the process event sink (when one is attached).
  void recordEvent(const char* type, std::vector<obs::Field> fields);
  void startExposition();

  ReaderDaemonConfig config_;
  sim::Scene& scene_;
  std::size_t readerIndex_;
  Rng rng_;
  /// Mints per-window trace ids. Seeded independently of rng_ so trace
  /// propagation does not perturb the scene's noise draws (which
  /// seed-pinned tests depend on).
  Rng traceRng_;
  core::MeasurementWindow window_;
  net::ReaderClock clock_;
  net::UplinkLink* uplinkTx_ = nullptr;
  net::UplinkLink* ackRx_ = nullptr;
  /// Written by the daemon loop, read by the expo /healthz thread.
  /// Lock-free by design: a single enum word with no cross-field
  /// invariant to protect.
  std::atomic<UplinkHealth> health_ CARAOKE_LOCKFREE{UplinkHealth::kHealthy};
  /// Telemetry. The metric handles below alias registry_ entries and are
  /// resolved once here (registry_ must be declared before them).
  obs::Registry registry_;
  obs::Counter& measurementsCtr_;
  obs::Counter& queriesCtr_;
  obs::Counter& decodedIdsCtr_;
  obs::Counter& uplinkFlushesCtr_;
  obs::Counter& uplinkBytesCtr_;
  obs::Counter& uplinkRetriesCtr_;
  obs::Counter& sightingsReportedCtr_;
  obs::Counter& countsReportedCtr_;
  obs::Counter& healthChangesCtr_;
  obs::Gauge& healthGauge_;
  obs::Gauge& energyGauge_;
  obs::Histogram& windowSec_;
  /// Store-and-forward uplink queue. Declared after registry_ because its
  /// metrics live there (daemon.outbox.*).
  net::Outbox outbox_;
  /// Post-mortem black box; written on every recordEvent, snapshotted by
  /// the expo thread and by watchdog-trip dumps.
  obs::FlightRecorder flight_;
  obs::Counter& flightDumpsCtr_;
  /// Live exposition server; null unless config.expoPort >= 0 and the
  /// bind succeeded. Declared last so its thread dies before the state
  /// it serves.
  std::unique_ptr<obs::ExpoServer> expo_;
  mutable DaemonStats statsView_;
  double now_ = 0.0;
  double nextMeasurement_ = 0.0;
  double nextUplink_ = 0.0;
  double nextNtp_ = 0.0;
};

}  // namespace caraoke::apps
