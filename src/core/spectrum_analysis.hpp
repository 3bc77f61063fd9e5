// Collision spectrum analysis: from raw antenna buffers to per-transponder
// observations (CFO + per-antenna channel).
//
// This implements the paper's §3 observation that powers everything else:
// the FFT of a collision shows one spike per transponder at its CFO, and the
// complex value of the spike *is* the channel (R(df) = h/2, so with an
// M-sample window the bin value is h*M/2).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "dsp/peaks.hpp"
#include "dsp/sfft.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/types.hpp"
#include "dsp/window.hpp"
#include "phy/protocol.hpp"

namespace caraoke::core {

/// One transponder seen in a collision.
struct TransponderObservation {
  double cfoHz = 0.0;          ///< Estimated CFO relative to the reader LO.
  double fractionalBin = 0.0;  ///< CFO in (possibly fractional) FFT bins.
  std::size_t bin = 0;         ///< Integer FFT bin of the spike.
  double peakMagnitude = 0.0;  ///< |X[bin]| on the reference antenna.
  /// Channel coefficient to each reader antenna (h_i in the paper).
  std::vector<dsp::cdouble> channels;
};

/// Configuration for the analyzer.
struct SpectrumAnalysisConfig {
  phy::SamplingParams sampling{};
  dsp::PeakDetectorConfig peaks{};
  /// Manchester clock-image rejection. The periodic half of the
  /// Manchester waveform puts deterministic lines at +-bitRate (and
  /// odd harmonics) around every transponder's CFO spike, ~15-20% of the
  /// spike's amplitude. A detected peak that sits at such an offset from
  /// a stronger peak and is below imageRatio of it is discarded.
  double imageRatio = 0.35;
  std::size_t imageToleranceBins = 4;

  /// Sparse-FFT detection parameters (used by detectSpikesSparse only).
  /// The bucket threshold doubles as the detection threshold, so weak
  /// spikes need more buckets/rounds.
  dsp::SparseFftConfig sparse{};

  SpectrumAnalysisConfig();
};

/// Extracts transponder observations from one capture.
class SpectrumAnalyzer {
 public:
  explicit SpectrumAnalyzer(SpectrumAnalysisConfig config = {});

  /// FFT magnitude spectrum of one antenna buffer (power-of-two length
  /// required, which the default sampling parameters guarantee). The FFT
  /// is Hann-windowed, which keeps an off-grid spike's leakage 31 dB down
  /// so its shoulders cannot masquerade as additional transponders.
  std::vector<double> magnitudeSpectrum(dsp::CSpan samples) const;

  /// Peak detection with Manchester clock-image rejection: the spike list
  /// both analyze() and the counter build on.
  std::vector<dsp::Peak> detectSpikes(
      std::span<const double> magnitudeSpectrum) const;

  /// Detect spikes on the reference antenna (index 0) and estimate the
  /// channel to every antenna at each spike: on the raw (rectangular)
  /// samples, where h = 2X/M is exact, at the spike's quadratic-refined
  /// fractional bin (sharper than the raw 1.95 kHz grid). All buffers
  /// must be equal length and sampled synchronously (shared LO), as in
  /// the real reader.
  std::vector<TransponderObservation> analyze(
      const std::vector<dsp::CVec>& antennaSamples) const;

  /// Channel estimate for a known CFO (fractional bin) on one buffer:
  /// h = 2 * X(bin) / M. Used by the decoder, which tracks a target.
  dsp::cdouble channelAt(dsp::CSpan samples, double fractionalBin) const;

  /// §10's low-power alternative: locate the CFO spikes with the sparse
  /// FFT (sublinear in the buffer length) instead of a full FFT + CFAR
  /// sweep. Returns the same Peak list detectSpikes() would, with clock
  /// images rejected. The Rng drives the sFFT's random strides.
  std::vector<dsp::Peak> detectSpikesSparse(dsp::CSpan samples,
                                            Rng& rng) const;

  const SpectrumAnalysisConfig& config() const { return config_; }

  /// The bin mapper for the configured sampling parameters.
  dsp::BinMapper binMapper() const;

 private:
  SpectrumAnalysisConfig config_;
};

}  // namespace caraoke::core
