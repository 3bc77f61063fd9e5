// Spectral peak detection.
//
// A collision's FFT shows one spike per transponder riding on a wideband
// OOK floor (§5, Fig 4). The detector thresholds adaptively off that floor
// (CFAR: a multiple of the local median, robust to the spikes themselves),
// takes local maxima, and enforces a minimum bin separation so one spike's
// shoulders are not double-counted.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace caraoke::dsp {

/// One detected spectral peak.
struct Peak {
  std::size_t bin = 0;    ///< FFT bin index of the local maximum.
  double magnitude = 0.0; ///< |X[bin]|.
};

/// Tuning for findPeaks(). The threshold is CFAR: per-bin factor * local
/// median (a training window around the bin, excluding a guard region).
/// That suits the colored OOK sidelobe floor of a collision, where the
/// data spectrum humps near the chip rate would defeat a single global
/// threshold.
struct PeakDetectorConfig {
  /// One-sided training window, one-sided guard, and the factor over the
  /// local median a bin must exceed.
  std::size_t cfarWindowBins = 48;
  std::size_t cfarGuardBins = 3;
  double cfarFactor = 3.6;
  /// Peaks closer than this many bins are merged (strongest wins).
  std::size_t minSeparationBins = 2;
  /// Restrict the search to [searchBegin, searchEnd) bins; end==0 means
  /// "to the end of the spectrum". Caraoke searches only the 1.2 MHz CFO
  /// span, not the full Nyquist range.
  std::size_t searchBegin = 0;
  std::size_t searchEnd = 0;
  /// Hard floor on the threshold; guards against an all-noise spectrum
  /// whose local median underestimates the floor.
  double absoluteFloor = 0.0;
};

/// Detect peaks in a magnitude spectrum. Results are sorted by bin index.
std::vector<Peak> findPeaks(std::span<const double> magnitudeSpectrum,
                            const PeakDetectorConfig& config = {});

/// The per-bin CFAR threshold curve (factor * local median), exposed for
/// diagnostics and tests.
std::vector<double> cfarThreshold(std::span<const double> magnitudeSpectrum,
                                  const PeakDetectorConfig& config = {});

/// Quadratic (three-point) interpolation of the true peak position around
/// a bin; returns the fractional bin offset in [-0.5, 0.5]. Sharpens CFO
/// estimates beyond the 1.95 kHz bin resolution.
double interpolatePeakOffset(std::span<const double> magnitudeSpectrum,
                             std::size_t bin);

}  // namespace caraoke::dsp
