// One measurement window (paper §10): the reader fires a burst of queries,
// then counts (§5), takes AoA (§6) and decodes (§8) on those same
// collisions. This is the one place the reader's per-window DSP is put
// together; the reader daemon schedules windows and turns their output
// into reports, and the quickstart and toll_plaza examples drive it
// directly.
//
// The steps are separate calls, made in order on one burst, so a caller
// can time or trace each one: count() -> observe() -> decode(). The
// window keeps the state that outlives a burst: the CFO tracker, and
// which of its live tracks already have an id.
#pragma once

#include <optional>
#include <vector>

#include "core/aoa.hpp"
#include "core/counter.hpp"
#include "core/decoder.hpp"
#include "core/tracker.hpp"

namespace caraoke::core {

/// One window's captures: per query, one buffer per antenna. Antenna 0 is
/// the reference the counter and the decoder read.
using Burst = std::vector<std::vector<dsp::CVec>>;

/// What one window's decode step did.
struct DecodeAttempt {
  double cfoHz = 0.0;        ///< The target track's CFO.
  std::size_t combines = 0;  ///< Collisions combined.
  std::optional<phy::TransponderId> id;  ///< Set when the CRC passed.
};

/// One reader's window pipeline, reused for every burst it fires.
class MeasurementWindow {
 public:
  /// `sampling` is the front end's: its LO and bin width turn spikes into
  /// CFOs and wavelengths.
  MeasurementWindow(ArrayGeometry geometry, const phy::SamplingParams& sampling,
                    MultiQueryCounterConfig counter = {},
                    TrackerConfig tracker = {}, DecoderConfig decoder = {});

  /// §5: count the transponders in the burst's antenna-0 captures.
  CountResult count(const Burst& burst) const;

  /// §6: for each counted bin, fold each query's nearest observation
  /// (within 4 kHz) into a burst-averaged AoA, then feed the tracker the
  /// bin's mean CFO, cos(alpha) on the road pair and mean magnitude.
  /// Feeding only the counter's bins keeps the data lines it vetoed from
  /// spawning ghost tracks. Returns this update's abeam crossings.
  std::vector<AbeamEvent> observe(double t, const Burst& burst,
                                  const CountResult& count);

  /// §8: combine up to `budget` of the burst's antenna-0 captures on the
  /// strongest confirmed track with no id yet, stopping at the first CRC
  /// pass; that track is then identified. Empty when no track qualifies.
  std::optional<DecodeAttempt> decode(const Burst& burst, std::size_t budget);

  const TransponderTracker& tracker() const { return tracker_; }
  /// The pair cos(alpha) is measured on (ArrayGeometry::roadPair).
  std::size_t roadPair() const { return roadPair_; }

 private:
  MultiQueryCounter counter_;
  SpectrumAnalyzer analyzer_;
  ArrayGeometry geometry_;
  std::size_t roadPair_;
  phy::SamplingParams sampling_;
  TransponderTracker tracker_;
  DecoderConfig decoderConfig_;
};

}  // namespace caraoke::core
