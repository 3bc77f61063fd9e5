#include "core/speed.hpp"

#include <cmath>

namespace caraoke::core {

std::optional<double> findAbeamTime(const std::vector<AngleSample>& samples) {
  // below[i]: how many of the first i samples have cos(alpha) < 0.
  const std::size_t n = samples.size();
  std::vector<std::size_t> below(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    below[i + 1] = below[i] + (samples[i].cosAlpha < 0.0 ? 1 : 0);

  std::optional<double> best;
  std::size_t bestVotes = 0;
  double bestSlope = 0.0;
  for (std::size_t i = 1; i < n; ++i) {
    const AngleSample& a = samples[i - 1];
    const AngleSample& b = samples[i];
    if (a.cosAlpha == 0.0) return a.time;
    if ((a.cosAlpha < 0.0) == (b.cosAlpha < 0.0)) continue;
    const double dt = b.time - a.time;
    if (dt <= 0.0) continue;
    // Samples consistent with a single crossing here: every one before it
    // on a's side of zero, every one from b on, on b's side.
    const std::size_t belowBefore = below[i];
    const std::size_t belowAfter = below[n] - below[i];
    const std::size_t votes =
        a.cosAlpha < 0.0 ? belowBefore + (n - i - belowAfter)
                         : (i - belowBefore) + belowAfter;
    const double slope = std::abs(b.cosAlpha - a.cosAlpha) / dt;
    if (votes > bestVotes || (votes == bestVotes && slope > bestSlope)) {
      bestVotes = votes;
      bestSlope = slope;
      // Linear interpolation of the zero crossing.
      best = a.time + dt * (0.0 - a.cosAlpha) / (b.cosAlpha - a.cosAlpha);
    }
  }
  return best;
}

std::optional<double> estimateSpeed(double x1, double t1, double x2,
                                    double t2) {
  const double dt = t2 - t1;
  if (dt <= 0.0) return std::nullopt;
  return (x2 - x1) / dt;
}

double worstCasePositionError(double heightB, int lanesSameDirection,
                              double laneWidth, double alphaRad) {
  const double lw = static_cast<double>(lanesSameDirection) * laneWidth;
  const double numerator =
      std::sqrt(heightB * heightB) - std::sqrt(heightB * heightB + lw * lw);
  const double t = std::tan(alphaRad);
  if (t == 0.0) return 0.0;
  return std::abs(numerator / t);
}

}  // namespace caraoke::core
