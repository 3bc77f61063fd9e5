// Multi-transponder tracking across queries.
//
// A reader that queries continuously sees, per query, a set of anonymous
// observations (CFO + angle). The CFO is stable per device (up to slow
// drift) and spread over 1.2 MHz across devices, so it serves as the
// association key — the paper uses exactly this to follow cars without
// decoding them. The tracker maintains one track per device with an
// EWMA-followed CFO and an alpha-beta-filtered angle state. Each update
// returns the abeam crossings (the angle's cos passing zero) it saw.
#pragma once

#include <cstdint>
#include <vector>

namespace caraoke::core {

/// One per-query input to the tracker.
struct TrackerObservation {
  double cfoHz = 0.0;
  /// Direction cosine on the tracking baseline (road-parallel pair).
  double cosAlpha = 0.0;
  /// Spike magnitude (used to prefer stronger observations when two
  /// candidates gate to the same track).
  double magnitude = 0.0;
};

/// A tracked transponder.
struct Track {
  std::uint64_t trackId = 0;
  double cfoHz = 0.0;          ///< EWMA of the associated CFOs.
  double cosAlpha = 0.0;       ///< Filtered angle state.
  double cosAlphaRate = 0.0;   ///< Filtered d(cosAlpha)/dt [1/s].
  double magnitude = 0.0;      ///< EWMA of the spike magnitude.
  double firstSeen = 0.0;
  double lastSeen = 0.0;
  std::size_t hits = 0;
  /// An id was decoded on this track (see MeasurementWindow::decode).
  bool identified = false;

  /// Confirmed once it has accumulated enough hits (a spurious data-line
  /// detection rarely persists).
  bool confirmed(std::size_t confirmHits) const {
    return hits >= confirmHits;
  }
};

/// An abeam-crossing event: the tracked car passed the pole plane.
struct AbeamEvent {
  std::uint64_t trackId = 0;
  double cfoHz = 0.0;
  double crossingTime = 0.0;
  /// Filtered rate at the crossing — its sign gives the travel direction.
  double rate = 0.0;
};

/// Tracker tuning.
struct TrackerConfig {
  double cfoGateHz = 4e3;       ///< Association gate (2 bins).
  double cfoEwmaAlpha = 0.3;    ///< CFO drift-following weight.
  double filterAlpha = 0.5;     ///< alpha-beta position gain.
  double filterBeta = 0.3;      ///< alpha-beta rate gain.
  std::size_t confirmHits = 3;
  double dropAfterSec = 1.5;    ///< Track dropped after this silence.
};

/// Tracks transponders across queries and emits abeam events.
class TransponderTracker {
 public:
  explicit TransponderTracker(TrackerConfig config = {});

  /// Ingest one query's observations taken at time t (monotone).
  /// Returns the abeam crossings this update detected.
  std::vector<AbeamEvent> update(
      double t, const std::vector<TrackerObservation>& observations);

  /// Live tracks (tentative and confirmed).
  const std::vector<Track>& tracks() const { return tracks_; }

  /// The track currently associated with a CFO, if any.
  const Track* findByCfo(double cfoHz) const;

  /// Mark a live track identified; a no-op once the track is dropped.
  void markIdentified(std::uint64_t trackId);

  const TrackerConfig& config() const { return config_; }

 private:
  TrackerConfig config_;
  std::vector<Track> tracks_;
  std::uint64_t nextId_ = 1;
};

}  // namespace caraoke::core
