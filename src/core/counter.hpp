// Transponder counting from collisions (paper §5).
//
// Count the FFT spikes in the CFO span; then, because two transponders can
// land in one 1.95 kHz bin, classify each spike as single- or
// multi-occupancy using the time-shift test: the FFT of a later window of
// the same collision keeps each single spike's magnitude (the spike comes
// from the DC term of the always-half-on Manchester baseband), while a
// shared bin's value is a sum whose components rotate by different phases
// and therefore changes magnitude. A multi spike is counted as two (the
// paper's rule; three-or-more per bin is the residual error analyzed by
// Eq. 9).
#pragma once

#include <vector>

#include "core/spectrum_analysis.hpp"

namespace caraoke::core {

/// Per-spike occupancy classification.
enum class BinOccupancy { kSingle, kMulti };

/// Counting diagnostics, reported alongside the estimate.
struct CountResult {
  std::size_t estimate = 0;            ///< Estimated transponder count.
  std::size_t spikes = 0;              ///< Raw spike count (Eq. 7 regime).
  std::vector<std::size_t> bins;       ///< Spike bins.
  std::vector<BinOccupancy> occupancy; ///< Per-spike classification.
};

/// Which time-shift test classifies a spike's occupancy.
enum class MultiTestMode {
  /// The paper's §5 test verbatim: compare the spike's magnitude in two
  /// shifted windows; a single tone keeps its magnitude, a shared bin
  /// changes it.
  kMagnitudeShift,
  /// Three windows at offsets {0, tau, 2tau}: a single tone's bin values
  /// form an exact geometric progression (v_b^2 == v_a * v_c) whatever
  /// its off-grid offset, so the residual |v_b^2 - v_a v_c| is a
  /// sharper multi detector that needs no frequency estimate.
  kGeometricConsistency,
};

/// Tuning for the counter.
struct CounterConfig {
  SpectrumAnalysisConfig analysis{};
  MultiTestMode multiTest = MultiTestMode::kGeometricConsistency;
  /// Time shift tau between analysis windows, in samples. The magnitude
  /// test uses two windows [0, n-tau) and [tau, n); the geometric test
  /// uses three windows of length n/2 at {0, tau, 2tau} with
  /// tau <= n/4.
  std::size_t shiftSamples = 512;
  /// Relative deviation above which a spike is declared multi.
  double multiThreshold = 0.6;
  /// When true, skip the occupancy test (naive spike counting — the
  /// Eq. 7 baseline used by the ablation bench).
  bool enableMultiDetection = true;
};

/// Counts colliding transponders in a single-antenna capture.
class TransponderCounter {
 public:
  explicit TransponderCounter(CounterConfig config = {});

  /// Estimate the number of transponders in a collision buffer.
  CountResult count(dsp::CSpan samples) const;

  const CounterConfig& config() const { return config_; }

 private:
  CounterConfig config_;
};

/// Multi-query counter: the production-mode estimator.
///
/// A reader's ~10 ms active window fires up to 10 queries (§10), and every
/// query returns a fresh collision in which each transponder keeps its CFO
/// but draws a new random oscillator phase (§8). That buys two things the
/// single-shot §5 test cannot have:
///  - averaging the magnitude spectra across queries shrinks the OOK
///    noise-floor variance by sqrt(Q), so weaker spikes clear a lower
///    CFAR threshold;
///  - a bin occupied by one transponder has a stable magnitude across
///    queries, while a shared bin is |h1 + h2 e^{j psi_q}| with psi_q
///    random per query — it flickers. The coefficient of variation of the
///    per-query bin magnitude is therefore a high-gain occupancy test
///    that works even for CFOs separated by far less than a bin.
struct MultiQueryCounterConfig {
  SpectrumAnalysisConfig analysis{};
  /// CFAR factor on the query-averaged spectrum (lower than the
  /// single-shot default because the averaged floor is tighter).
  double cfarFactor = 2.4;
  /// Receiver noise sigma (per I/Q component), as calibrated by the
  /// front-end. When set, detection also requires spikes to clear
  /// noiseFloorMultiplier * noiseSigma * sqrt(n) — an absolute floor that
  /// keeps pure-noise spectra (empty street) from producing candidates.
  double noiseSigma = 0.0;
  double noiseFloorMultiplier = 6.0;
  /// Coefficient-of-variation threshold separating stable (single-owner)
  /// bins from flickering ones.
  double cvThreshold = 0.3;
  /// Transponders retransmit the same bits every response, so their OOK
  /// sidelobes are deterministic: a data-floor bump can clear CFAR just
  /// like a real spike. Real spikes are strong relative to the scene's
  /// spike scale (the median magnitude of stable peaks); candidates below
  /// these fractions of that scale are treated as data lines and dropped
  /// rather than counted. Set to 0 to disable the veto.
  double weakSingleRatio = 0.3;   ///< Stable but weak -> data line of one
                                  ///< device, not a transponder.
  double weakMultiRatio = 0.45;   ///< Flickering but weak -> summed data
                                  ///< floor of several devices.
  /// Narrow-shoulder shape test for weak candidates: a real spike is a
  /// 1-2 bin Dirichlet needle, while a data-floor excursion rides on a
  /// neighborhood of similar-power bins. A candidate weaker than
  /// shapeWeakRatio times the strongest spike must exceed shapeFactor
  /// times the median of its close shoulders (|delta bin| in
  /// [shapeNearBins, shapeFarBins]) or it is dropped.
  double shapeWeakRatio = 0.25;
  double shapeFactor = 3.5;
  std::size_t shapeNearBins = 3;
  std::size_t shapeFarBins = 8;
  /// Dense scenes raise the OOK floor and push weak spikes toward it; a
  /// second detection pass with a lower CFAR factor recovers them once
  /// the first pass estimates at least denseSceneSpikes transponders.
  /// (The weak-line vetoes keep the lower threshold from admitting floor
  /// bumps.)
  std::size_t denseSceneSpikes = 22;
  double denseCfarFactor = 1.9;
  bool enableMultiDetection = true;
};

/// Counts transponders from a burst of collision captures (one per query).
class MultiQueryCounter {
 public:
  explicit MultiQueryCounter(MultiQueryCounterConfig config = {});

  /// Estimate from Q same-scene collisions (equal lengths).
  CountResult count(const std::vector<dsp::CVec>& collisions) const;

  const MultiQueryCounterConfig& config() const { return config_; }

 private:
  /// One detection+classification pass over the precomputed averaged
  /// spectrum at the given CFAR factor.
  CountResult countPass(const std::vector<dsp::CVec>& collisions,
                        const std::vector<double>& averagedSpectrum,
                        double cfarFactor) const;

  MultiQueryCounterConfig config_;
};

}  // namespace caraoke::core
