#include "core/spectrum_analysis.hpp"

#include <stdexcept>

#include "dsp/fft.hpp"
#include "dsp/filter.hpp"
#include "obs/prof.hpp"
#include "obs/prof_stages.hpp"

namespace caraoke::core {

SpectrumAnalysisConfig::SpectrumAnalysisConfig() {
  // Restrict the search to the CFO span: [0, 1.2 MHz] maps to bins
  // [0, cfoBins] at the default 4 MHz / 2048-point configuration.
  peaks.searchBegin = 1;
  peaks.searchEnd = sampling.cfoBins() + 2;
  // The Hann main lobe is 4 bins wide; spikes closer than that are
  // unresolvable here and fall to the §5 multi-occupancy test.
  peaks.minSeparationBins = 4;
  peaks.cfarGuardBins = 4;
}

SpectrumAnalyzer::SpectrumAnalyzer(SpectrumAnalysisConfig config)
    : config_(config) {}

dsp::BinMapper SpectrumAnalyzer::binMapper() const {
  return dsp::BinMapper(config_.sampling.responseSamples(),
                        config_.sampling.sampleRateHz);
}

std::vector<double> SpectrumAnalyzer::magnitudeSpectrum(
    dsp::CSpan samples) const {
  CARAOKE_PROF_SCOPE(obs::prof::stage::kSpectrum);
  const auto window = dsp::makeWindow(dsp::WindowKind::kHann, samples.size());
  // Rescale so a spike's magnitude matches the rectangular convention
  // (|h| * M / 2) regardless of the window's coherent gain.
  const double scale =
      static_cast<double>(samples.size()) / dsp::windowGain(window);
  auto mag = dsp::magnitude(dsp::fft(dsp::applyWindow(samples, window)));
  for (double& m : mag) m *= scale;
  return mag;
}

dsp::cdouble SpectrumAnalyzer::channelAt(dsp::CSpan samples,
                                         double fractionalBin) const {
  // X(f) at the (fractional) CFO bin; h = 2 X / M because the Manchester
  // baseband has mean exactly 1/2.
  const dsp::cdouble x = dsp::goertzel(samples, fractionalBin);
  return 2.0 * x / static_cast<double>(samples.size());
}

namespace {

// Shared clock-image rejection over an arbitrary peak list.
std::vector<dsp::Peak> rejectImages(std::vector<dsp::Peak> peaks,
                                    const SpectrumAnalysisConfig& config) {
  if (peaks.size() < 2) return peaks;
  const double bitRateHz = 1.0 / phy::kBitDuration;
  const double binWidth = config.sampling.sampleRateHz /
                          static_cast<double>(config.sampling
                                                  .responseSamples());
  const std::size_t offset1 =
      static_cast<std::size_t>(bitRateHz / binWidth + 0.5);
  const std::size_t offsets[2] = {offset1, 2 * offset1};
  std::vector<dsp::Peak> kept;
  for (const dsp::Peak& p : peaks) {
    bool isImage = false;
    for (const dsp::Peak& parent : peaks) {
      if (parent.magnitude <= p.magnitude / config.imageRatio) continue;
      const std::size_t gap =
          p.bin > parent.bin ? p.bin - parent.bin : parent.bin - p.bin;
      for (std::size_t off : offsets) {
        const std::size_t tol = config.imageToleranceBins;
        if (gap + tol >= off && gap <= off + tol) {
          isImage = true;
          break;
        }
      }
      if (isImage) break;
    }
    if (!isImage) kept.push_back(p);
  }
  return kept;
}

}  // namespace

std::vector<dsp::Peak> SpectrumAnalyzer::detectSpikes(
    std::span<const double> mag) const {
  return rejectImages(dsp::findPeaks(mag, config_.peaks), config_);
}

std::vector<dsp::Peak> SpectrumAnalyzer::detectSpikesSparse(
    dsp::CSpan samples, Rng& rng) const {
  const auto components = dsp::sparseFft(samples, config_.sparse, rng);
  const std::size_t searchEnd =
      config_.peaks.searchEnd == 0 ? samples.size() : config_.peaks.searchEnd;
  std::vector<dsp::Peak> peaks;
  for (const auto& c : components) {
    if (c.bin < config_.peaks.searchBegin || c.bin >= searchEnd) continue;
    peaks.push_back({c.bin, std::abs(c.value)});
  }
  return rejectImages(std::move(peaks), config_);
}

std::vector<TransponderObservation> SpectrumAnalyzer::analyze(
    const std::vector<dsp::CVec>& antennaSamples) const {
  CARAOKE_PROF_SCOPE(obs::prof::stage::kAnalyze);
  if (antennaSamples.empty())
    throw std::invalid_argument("SpectrumAnalyzer::analyze: no antennas");
  const dsp::CVec& reference = antennaSamples.front();
  for (const auto& buf : antennaSamples)
    if (buf.size() != reference.size())
      throw std::invalid_argument(
          "SpectrumAnalyzer::analyze: antenna buffer length mismatch");

  const std::vector<double> mag = magnitudeSpectrum(reference);
  const std::vector<dsp::Peak> peaks = detectSpikes(mag);
  const dsp::BinMapper mapper = binMapper();

  std::vector<TransponderObservation> observations;
  observations.reserve(peaks.size());
  for (const dsp::Peak& p : peaks) {
    TransponderObservation obs;
    obs.bin = p.bin;
    obs.peakMagnitude = p.magnitude;
    obs.fractionalBin =
        static_cast<double>(p.bin) + dsp::interpolatePeakOffset(mag, p.bin);
    obs.cfoHz = obs.fractionalBin * mapper.binWidthHz();
    obs.channels.reserve(antennaSamples.size());
    for (const dsp::CVec& buf : antennaSamples)
      obs.channels.push_back(channelAt(buf, obs.fractionalBin));
    observations.push_back(std::move(obs));
  }
  return observations;
}

}  // namespace caraoke::core
