#include "dsp/peaks.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/stats.hpp"
#include "obs/prof.hpp"
#include "obs/prof_stages.hpp"

namespace caraoke::dsp {

namespace {

// Search range [begin, end) clamped to the spectrum and excluding the
// outermost bins (local-maximum tests need both neighbors).
std::pair<std::size_t, std::size_t> searchRange(
    std::size_t size, const PeakDetectorConfig& config) {
  const std::size_t begin = std::max<std::size_t>(config.searchBegin, 1);
  const std::size_t end =
      std::min(config.searchEnd == 0 ? size : config.searchEnd, size);
  return {begin, end > 0 ? end - 1 : 0};
}

}  // namespace

std::vector<double> cfarThreshold(std::span<const double> mag,
                                  const PeakDetectorConfig& config) {
  const std::size_t n = mag.size();
  std::vector<double> threshold(n, config.absoluteFloor);
  std::vector<double> training;
  for (std::size_t i = 0; i < n; ++i) {
    training.clear();
    const std::size_t guard = config.cfarGuardBins;
    const std::size_t window = config.cfarWindowBins;
    // Left training cells.
    for (std::size_t k = guard + 1; k <= guard + window; ++k) {
      if (k > i) break;
      training.push_back(mag[i - k]);
    }
    // Right training cells.
    for (std::size_t k = guard + 1; k <= guard + window; ++k) {
      if (i + k >= n) break;
      training.push_back(mag[i + k]);
    }
    if (training.empty()) continue;
    threshold[i] = std::max(config.cfarFactor * median(training),
                            config.absoluteFloor);
  }
  return threshold;
}

std::vector<Peak> findPeaks(std::span<const double> mag,
                            const PeakDetectorConfig& config) {
  CARAOKE_PROF_SCOPE(obs::prof::stage::kPeak);
  std::vector<Peak> peaks;
  if (mag.size() < 3) return peaks;

  const auto [begin, end] = searchRange(mag.size(), config);

  const std::vector<double> cfar = cfarThreshold(mag, config);
  for (std::size_t i = begin; i < end; ++i) {
    if (mag[i] < cfar[i]) continue;
    if (mag[i] < mag[i - 1] || mag[i] < mag[i + 1]) continue;
    // Plateau tie-break: only accept the left edge of a flat top.
    if (mag[i] == mag[i - 1]) continue;
    peaks.push_back({i, mag[i]});
  }

  if (config.minSeparationBins > 1 && peaks.size() > 1) {
    // Greedy merge: strongest peak claims its neighborhood.
    std::vector<Peak> byStrength = peaks;
    std::sort(byStrength.begin(), byStrength.end(),
              [](const Peak& a, const Peak& b) {
                return a.magnitude > b.magnitude;
              });
    std::vector<Peak> kept;
    for (const Peak& p : byStrength) {
      const bool tooClose = std::any_of(
          kept.begin(), kept.end(), [&](const Peak& k) {
            const std::size_t d = p.bin > k.bin ? p.bin - k.bin : k.bin - p.bin;
            return d < config.minSeparationBins;
          });
      if (!tooClose) kept.push_back(p);
    }
    std::sort(kept.begin(), kept.end(),
              [](const Peak& a, const Peak& b) { return a.bin < b.bin; });
    return kept;
  }
  return peaks;
}

double interpolatePeakOffset(std::span<const double> mag, std::size_t bin) {
  if (bin == 0 || bin + 1 >= mag.size()) return 0.0;
  const double a = mag[bin - 1];
  const double b = mag[bin];
  const double c = mag[bin + 1];
  const double denom = a - 2.0 * b + c;
  if (std::abs(denom) < 1e-12) return 0.0;
  const double offset = 0.5 * (a - c) / denom;
  return std::clamp(offset, -0.5, 0.5);
}

}  // namespace caraoke::dsp
