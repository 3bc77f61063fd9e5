// Angle-of-arrival estimation from collision spectra (paper §6).
//
// For each transponder spike, the ratio of the spike's complex value across
// two antennas gives the inter-antenna phase difference of that transponder
// alone (Fourier linearity separates the colliders), and
// cos(alpha) = dphi * lambda / (2 pi d) recovers the spatial angle between
// the antenna baseline and the transponder. The reader carries three
// antennas in an equilateral triangle and trusts the pair whose angle is
// closest to 90 degrees, where the acos is least sensitive to phase noise.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/spectrum_analysis.hpp"
#include "phy/channel.hpp"

namespace caraoke::core {

/// Reader array calibration data: element positions in world coordinates
/// (or any frame shared with the localizer).
struct ArrayGeometry {
  std::vector<phy::Vec3> elements;
  /// Index pairs usable as interferometer baselines.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  /// Per-element residual phase corrections [rad], subtracted from each
  /// measured channel's phase before angle estimation. Produced by
  /// calibrateArray(); empty = assume a calibrated front end.
  std::vector<double> phaseCorrectionsRad;

  /// Unit vector from pair.first to pair.second.
  phy::Vec3 baselineDirection(std::size_t pairIndex) const;
  /// Baseline length d of a pair [m].
  double baselineLength(std::size_t pairIndex) const;
  /// Geometric center of the elements.
  phy::Vec3 center() const;
  /// The pair whose baseline runs most nearly along the road (the x
  /// axis): its cos(alpha) sweeps through zero as a car passes abeam
  /// (§7), so trackers, speed traps and sightings measure on it.
  std::size_t roadPair() const;
};

/// AoA measured on one baseline pair.
struct PairAngle {
  std::size_t pairIndex = 0;
  double angleRad = 0.0;       ///< alpha in [0, pi].
  double phaseDiffRad = 0.0;   ///< Measured dphi, wrapped to (-pi, pi].
  bool valid = false;          ///< False when |cos| clamped at 1 (endfire).
};

/// Full AoA result for one transponder observation.
struct AoaResult {
  std::vector<PairAngle> perPair;
  std::size_t bestPair = 0;    ///< Pair whose angle is closest to 90 deg.
  double bestAngleRad = 0.0;
};

/// Estimates AoA from per-antenna channel observations.
class AoaEstimator {
 public:
  explicit AoaEstimator(ArrayGeometry geometry);

  /// Angle on one pair, given the channels h (one per array element) and
  /// the transponder's carrier wavelength.
  PairAngle pairAngle(const std::vector<dsp::cdouble>& channels,
                      std::size_t pairIndex, double wavelength) const;

  /// Angles on all pairs plus the best (closest-to-broadside) pick.
  AoaResult estimate(const TransponderObservation& obs,
                     double loFrequencyHz) const;

  const ArrayGeometry& geometry() const { return geometry_; }

 private:
  ArrayGeometry geometry_;
};

/// Estimate per-element phase corrections from observations of a
/// reference transponder at a *known* position (how a crew calibrates a
/// freshly mounted pole: park a known tag in a surveyed spot and let the
/// reader solve for its own cable offsets). For each element, the
/// correction is the circular mean over the burst of
///   arg(h_i) - arg(h_0) - predictedPhase_i + predictedPhase_0,
/// i.e. element 0 anchors the (irrelevant) common phase. Returns one
/// correction per element; fold into ArrayGeometry::phaseCorrectionsRad.
std::vector<double> calibrateArray(
    const ArrayGeometry& geometry,
    const std::vector<TransponderObservation>& burst,
    const phy::Vec3& knownPosition, double loFrequencyHz);

/// Burst-averaged AoA: the reader fires several queries per measurement
/// window (§10), and while each response carries a fresh random oscillator
/// phase, that phase is common to all antennas — so the per-query
/// cross-product h_b * conj(h_a) has a stable angle. Summing the
/// cross-products over the burst (a circular mean of the phase
/// difference) suppresses per-query interference and noise outliers
/// before the acos.
class AoaAggregator {
 public:
  explicit AoaAggregator(ArrayGeometry geometry);

  /// Fold in one query's observation of the target transponder.
  void add(const TransponderObservation& obs);

  /// Number of observations folded in so far.
  std::size_t samples() const { return samples_; }

  /// Aggregate AoA (valid once samples() > 0).
  AoaResult result(double loFrequencyHz) const;

  void reset();

 private:
  ArrayGeometry geometry_;
  std::vector<dsp::cdouble> crossSums_;  ///< One per pair.
  double cfoSumHz_ = 0.0;
  std::size_t samples_ = 0;
};

}  // namespace caraoke::core
