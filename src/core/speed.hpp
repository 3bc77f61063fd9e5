// Speed estimation from two pole passages (paper §7).
//
// Two readers a known distance apart each record when the car passes
// abeam: as the car drives by, the spatial angle on the road-parallel
// baseline sweeps through 90 degrees, i.e. cos(alpha) crosses zero. The
// crossing times t1, t2 (corrupted by inter-reader clock error — the
// readers sync over NTP) and the pole spacing give v = dx / dt.
#pragma once

#include <optional>
#include <utility>
#include <vector>

namespace caraoke::core {

/// One timestamped along-road direction cosine observation of a target
/// transponder at a reader.
struct AngleSample {
  double time = 0.0;      ///< Reader-local timestamp [s].
  double cosAlpha = 0.0;  ///< cos(angle to road-parallel baseline).
};

/// Time at which cos(alpha) crosses zero (car abeam of the pole), from a
/// time-ordered series of samples. Each sign change is scored by the
/// samples consistent with a single crossing there (before it on one side
/// of zero, after it on the other), so one outlier, which makes two sign
/// changes, loses to the car's real sweep. Ties go to the steepest local
/// slope (robust against noise wiggles far from the pole). The winner is
/// linearly interpolated. Empty when no crossing exists.
std::optional<double> findAbeamTime(const std::vector<AngleSample>& samples);

/// v = (x2 - x1) / (t2 - t1); returns nullopt for non-positive dt.
std::optional<double> estimateSpeed(double x1, double t1, double x2,
                                    double t2);

/// Paper §7's worst-case cross-road position error (footnote 11):
/// (sqrt(b^2) - sqrt(b^2 + (l*w)^2)) / tan(alpha), reported as a
/// magnitude. b: antenna height above the transponder plane; l: lanes in
/// one direction; w: lane width; alpha: spatial angle.
double worstCasePositionError(double heightB, int lanesSameDirection,
                              double laneWidth, double alphaRad);

}  // namespace caraoke::core
