#include "core/counter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.hpp"
#include "dsp/filter.hpp"
#include "dsp/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/prof_stages.hpp"

namespace caraoke::core {

namespace {

// Counting telemetry: spike totals and the per-spike ambiguity-test
// verdicts (the §5 phase-rotation / cross-query CV tests).
struct CounterMetrics {
  obs::Counter& counts =
      obs::globalRegistry().counter("counter.count_calls");
  obs::Counter& spikes = obs::globalRegistry().counter("counter.spikes");
  obs::Counter& singleBins =
      obs::globalRegistry().counter("counter.phase_test.single");
  obs::Counter& multiBins =
      obs::globalRegistry().counter("counter.phase_test.multi");
  obs::Counter& adaptiveRepasses =
      obs::globalRegistry().counter("counter.adaptive_cfar_repasses");
};

CounterMetrics& counterMetrics() {
  static CounterMetrics metrics;
  return metrics;
}

void recordCountResult(const CountResult& result) {
  CounterMetrics& m = counterMetrics();
  m.counts.inc();
  m.spikes.inc(result.spikes);
  for (const BinOccupancy occ : result.occupancy) {
    if (occ == BinOccupancy::kMulti)
      m.multiBins.inc();
    else
      m.singleBins.inc();
  }
}

}  // namespace

TransponderCounter::TransponderCounter(CounterConfig config)
    : config_(config) {}

namespace {

// Tapered sub-window of `samples` starting at `offset`, length m,
// zero-padded back to the full length so every sub-window shares the
// full-resolution bin grid.
dsp::CVec paddedWindowFft(dsp::CSpan samples, std::size_t offset,
                          std::size_t m, std::span<const double> taper) {
  dsp::CVec buf(samples.size(), dsp::cdouble{});
  for (std::size_t t = 0; t < m; ++t)
    buf[t] = samples[offset + t] * taper[t];
  dsp::fftInPlace(buf);
  return buf;
}

}  // namespace

CountResult TransponderCounter::count(dsp::CSpan samples) const {
  CARAOKE_PROF_BURST();
  CARAOKE_PROF_SCOPE(obs::prof::stage::kCount);
  const SpectrumAnalyzer analyzer(config_.analysis);
  const std::vector<double> mag = analyzer.magnitudeSpectrum(samples);
  const std::vector<dsp::Peak> peaks = analyzer.detectSpikes(mag);

  CountResult result;
  result.spikes = peaks.size();
  for (const dsp::Peak& p : peaks) result.bins.push_back(p.bin);

  if (!config_.enableMultiDetection || peaks.empty()) {
    result.occupancy.assign(peaks.size(), BinOccupancy::kSingle);
    result.estimate = peaks.size();
    recordCountResult(result);
    return result;
  }

  const std::size_t n = samples.size();
  const bool geometric =
      config_.multiTest == MultiTestMode::kGeometricConsistency;
  const std::size_t tau =
      std::min(config_.shiftSamples, geometric ? n / 4 : n / 2);
  const std::size_t m = geometric ? n / 2 : n - tau;
  const auto taper = dsp::makeWindow(dsp::WindowKind::kHann, m);

  // All tests compare the same full-grid bin across time-shifted windows
  // of one collision (§5, Eq. 8): a single transponder's spike value only
  // rotates under the shift; a bin shared by two transponders changes in
  // a detectable way because its components rotate at different rates.
  const dsp::CVec wa = paddedWindowFft(samples, 0, m, taper);
  const dsp::CVec wb = paddedWindowFft(samples, tau, m, taper);
  const dsp::CVec wc = geometric ? paddedWindowFft(samples, 2 * tau, m, taper)
                                 : dsp::CVec{};

  // The shorter windows have a wider main lobe (n/m full-grid bins); for
  // spikes the full-resolution FFT already resolves as separate
  // neighbors, the sub-window values mix both spikes and the test would
  // misfire. Trust full-resolution separation there instead.
  const std::size_t lobeGuardBins = 2 * (n / m) + 1;

  result.occupancy.reserve(peaks.size());
  std::size_t estimate = 0;
  for (std::size_t i = 0; i < peaks.size(); ++i) {
    const std::size_t bin = peaks[i].bin;
    bool hasCloseNeighbor = false;
    if (i > 0 && bin - peaks[i - 1].bin <= lobeGuardBins)
      hasCloseNeighbor = true;
    if (i + 1 < peaks.size() && peaks[i + 1].bin - bin <= lobeGuardBins)
      hasCloseNeighbor = true;

    BinOccupancy occ = BinOccupancy::kSingle;
    if (!hasCloseNeighbor) {
      double deviation = 0.0;
      if (geometric) {
        const dsp::cdouble va = wa[bin], vb = wb[bin], vc = wc[bin];
        const double scale =
            std::max({std::norm(vb), std::abs(va * vc), 1e-30});
        deviation = std::abs(vb * vb - va * vc) / scale;
      } else {
        const double a = std::abs(wa[bin]);
        const double b = std::abs(wb[bin]);
        const double avg = 0.5 * (a + b);
        deviation = avg > 0 ? std::abs(a - b) / avg : 0.0;
      }
      if (deviation > config_.multiThreshold) occ = BinOccupancy::kMulti;
    }
    result.occupancy.push_back(occ);
    estimate += occ == BinOccupancy::kMulti ? 2 : 1;
  }
  result.estimate = estimate;
  recordCountResult(result);
  return result;
}

MultiQueryCounter::MultiQueryCounter(MultiQueryCounterConfig config)
    : config_(config) {}

CountResult MultiQueryCounter::count(
    const std::vector<dsp::CVec>& collisions) const {
  if (collisions.empty()) return {};
  CARAOKE_PROF_SCOPE(obs::prof::stage::kCount);

  // Query-averaged magnitude spectrum: spikes stay put, the floor's
  // random component shrinks by sqrt(Q). Computed once; both detection
  // passes reuse it.
  const SpectrumAnalyzer magAnalyzer(config_.analysis);
  std::vector<double> avg;
  for (const dsp::CVec& c : collisions) {
    const std::vector<double> mag = magAnalyzer.magnitudeSpectrum(c);
    if (avg.empty())
      avg = mag;
    else
      for (std::size_t i = 0; i < avg.size(); ++i) avg[i] += mag[i];
  }
  const double inv = 1.0 / static_cast<double>(collisions.size());
  for (double& v : avg) v *= inv;

  CountResult result = countPass(collisions, avg, config_.cfarFactor);
  if (result.estimate >= config_.denseSceneSpikes &&
      config_.denseCfarFactor < config_.cfarFactor) {
    counterMetrics().adaptiveRepasses.inc();
    result = countPass(collisions, avg, config_.denseCfarFactor);
  }
  recordCountResult(result);
  return result;
}

CountResult MultiQueryCounter::countPass(
    const std::vector<dsp::CVec>& collisions, const std::vector<double>& avg,
    double cfarFactor) const {
  CountResult result;
  SpectrumAnalysisConfig analysisConfig = config_.analysis;
  analysisConfig.peaks.cfarFactor = cfarFactor;
  if (config_.noiseSigma > 0.0)
    analysisConfig.peaks.absoluteFloor =
        config_.noiseFloorMultiplier * config_.noiseSigma *
        std::sqrt(static_cast<double>(avg.size()));
  // The averaged spectrum is smooth enough to resolve twin maxima just
  // 2 bins apart; anything closer falls to the per-query variance test.
  analysisConfig.peaks.minSeparationBins = 2;
  const SpectrumAnalyzer analyzer(analysisConfig);

  std::vector<dsp::Peak> peaks = analyzer.detectSpikes(avg);

  // Shape veto on weak candidates: real spikes are 1-2 bin needles,
  // data-floor excursions have shoulders of comparable power.
  if (config_.shapeFactor > 0 && !peaks.empty()) {
    double maxMag = 0.0;
    for (const dsp::Peak& p : peaks) maxMag = std::max(maxMag, p.magnitude);
    std::vector<dsp::Peak> kept;
    for (const dsp::Peak& p : peaks) {
      if (p.magnitude >= config_.shapeWeakRatio * maxMag) {
        kept.push_back(p);
        continue;
      }
      std::vector<double> shoulders;
      for (std::size_t d = config_.shapeNearBins; d <= config_.shapeFarBins;
           ++d) {
        if (p.bin >= d) shoulders.push_back(avg[p.bin - d]);
        if (p.bin + d < avg.size()) shoulders.push_back(avg[p.bin + d]);
      }
      if (p.magnitude > config_.shapeFactor * dsp::median(shoulders))
        kept.push_back(p);
    }
    peaks = std::move(kept);
  }

  result.spikes = peaks.size();
  for (const dsp::Peak& p : peaks) result.bins.push_back(p.bin);

  if (!config_.enableMultiDetection || collisions.size() < 3) {
    result.occupancy.assign(peaks.size(), BinOccupancy::kSingle);
    result.estimate = peaks.size();
    return result;
  }

  // Per-candidate coefficient of variation of the bin magnitude across
  // queries. One owner -> stable; two owners -> |h1 + h2 e^{j psi_q}|
  // flickers with the per-query random phases.
  std::vector<double> cvs(peaks.size());
  for (std::size_t i = 0; i < peaks.size(); ++i) {
    const double fractionalBin =
        static_cast<double>(peaks[i].bin) +
        dsp::interpolatePeakOffset(avg, peaks[i].bin);
    dsp::RunningStats stats;
    for (const dsp::CVec& c : collisions)
      stats.add(std::abs(dsp::goertzel(c, fractionalBin)));
    cvs[i] = stats.mean() > 0 ? stats.stddev() / stats.mean() : 0.0;
  }

  // Scene spike scale: median magnitude of the stable candidates. Used to
  // veto data-floor bumps, which are weak relative to real spikes.
  std::vector<double> stableMags;
  for (std::size_t i = 0; i < peaks.size(); ++i)
    if (cvs[i] <= config_.cvThreshold) stableMags.push_back(peaks[i].magnitude);
  const double spikeScale =
      stableMags.empty()
          ? (peaks.empty() ? 0.0 : peaks.front().magnitude)
          : dsp::median(stableMags);

  CountResult final;
  final.spikes = 0;
  std::size_t estimate = 0;
  for (std::size_t i = 0; i < peaks.size(); ++i) {
    const bool stable = cvs[i] <= config_.cvThreshold;
    if (stable) {
      if (config_.weakSingleRatio > 0 &&
          peaks[i].magnitude < config_.weakSingleRatio * spikeScale)
        continue;  // one device's deterministic data line
      final.bins.push_back(peaks[i].bin);
      final.occupancy.push_back(BinOccupancy::kSingle);
      estimate += 1;
    } else {
      if (config_.weakMultiRatio > 0 &&
          peaks[i].magnitude < config_.weakMultiRatio * spikeScale)
        continue;  // flickering data floor of several devices
      final.bins.push_back(peaks[i].bin);
      final.occupancy.push_back(BinOccupancy::kMulti);
      estimate += 2;
    }
  }
  final.spikes = final.bins.size();
  final.estimate = estimate;
  return final;
}

}  // namespace caraoke::core
