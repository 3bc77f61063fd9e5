#include "core/aoa.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/units.hpp"

namespace caraoke::core {

phy::Vec3 ArrayGeometry::baselineDirection(std::size_t pairIndex) const {
  const auto& p = pairs.at(pairIndex);
  return phy::direction(elements.at(p.first), elements.at(p.second));
}

double ArrayGeometry::baselineLength(std::size_t pairIndex) const {
  const auto& p = pairs.at(pairIndex);
  return phy::distance(elements.at(p.first), elements.at(p.second));
}

phy::Vec3 ArrayGeometry::center() const {
  phy::Vec3 c{};
  for (const auto& e : elements) c = c + e;
  return c * (1.0 / static_cast<double>(elements.size()));
}

std::size_t ArrayGeometry::roadPair() const {
  std::size_t best = 0;
  double bestAlign = -1.0;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const double align = std::abs(baselineDirection(p).x);
    if (align > bestAlign) {
      bestAlign = align;
      best = p;
    }
  }
  return best;
}

AoaEstimator::AoaEstimator(ArrayGeometry geometry)
    : geometry_(std::move(geometry)) {
  if (geometry_.elements.size() < 2 || geometry_.pairs.empty())
    throw std::invalid_argument("AoaEstimator: need >= 2 elements and pairs");
}

PairAngle AoaEstimator::pairAngle(const std::vector<dsp::cdouble>& channels,
                                  std::size_t pairIndex,
                                  double wavelength) const {
  const auto& p = geometry_.pairs.at(pairIndex);
  PairAngle result;
  result.pairIndex = pairIndex;
  dsp::cdouble hA = channels.at(p.first);
  dsp::cdouble hB = channels.at(p.second);
  if (p.first < geometry_.phaseCorrectionsRad.size())
    hA *= std::polar(1.0, -geometry_.phaseCorrectionsRad[p.first]);
  if (p.second < geometry_.phaseCorrectionsRad.size())
    hB *= std::polar(1.0, -geometry_.phaseCorrectionsRad[p.second]);
  if (std::abs(hA) <= 0.0 || std::abs(hB) <= 0.0) return result;

  // dphi = angle(h_second / h_first); Eq. 10: cos(alpha) = dphi/(2 pi) *
  // lambda / d.
  result.phaseDiffRad = std::arg(hB / hA);
  const double d = geometry_.baselineLength(pairIndex);
  const double cosAlpha =
      result.phaseDiffRad * wavelength / (kTwoPi * d);
  result.valid = std::abs(cosAlpha) <= 1.0;
  result.angleRad = std::acos(std::clamp(cosAlpha, -1.0, 1.0));
  return result;
}

AoaResult AoaEstimator::estimate(const TransponderObservation& obs,
                                 double loFrequencyHz) const {
  if (obs.channels.size() != geometry_.elements.size())
    throw std::invalid_argument(
        "AoaEstimator::estimate: channel count does not match array");
  // The transponder's true carrier is LO + CFO; using it (rather than the
  // nominal 915 MHz) removes a systematic wavelength error.
  const double lambda = wavelength(loFrequencyHz + obs.cfoHz);

  AoaResult result;
  result.perPair.reserve(geometry_.pairs.size());
  double bestDistanceTo90 = 1e9;
  for (std::size_t i = 0; i < geometry_.pairs.size(); ++i) {
    PairAngle pa = pairAngle(obs.channels, i, lambda);
    const double to90 = std::abs(pa.angleRad - kPi / 2.0);
    if (pa.valid && to90 < bestDistanceTo90) {
      bestDistanceTo90 = to90;
      result.bestPair = i;
      result.bestAngleRad = pa.angleRad;
    }
    result.perPair.push_back(pa);
  }
  if (bestDistanceTo90 >= 1e9 && !result.perPair.empty()) {
    // Every pair clamped (deeply end-fire geometry): fall back to pair 0.
    result.bestPair = 0;
    result.bestAngleRad = result.perPair[0].angleRad;
  }
  return result;
}

std::vector<double> calibrateArray(
    const ArrayGeometry& geometry,
    const std::vector<TransponderObservation>& burst,
    const phy::Vec3& knownPosition, double loFrequencyHz) {
  const std::size_t n = geometry.elements.size();
  std::vector<dsp::cdouble> residualSums(n, dsp::cdouble{});
  for (const TransponderObservation& obs : burst) {
    if (obs.channels.size() != n)
      throw std::invalid_argument("calibrateArray: channel count mismatch");
    const double lambda = wavelength(loFrequencyHz + obs.cfoHz);
    // Reference everything to element 0: the tag's random per-response
    // phase and its absolute range drop out of the differences.
    for (std::size_t i = 0; i < n; ++i) {
      const double predicted =
          -kTwoPi *
          (phy::distance(geometry.elements[i], knownPosition) -
           phy::distance(geometry.elements[0], knownPosition)) /
          lambda;
      const dsp::cdouble measured =
          obs.channels[i] * std::conj(obs.channels[0]);
      const double mag = std::abs(measured);
      if (mag <= 0) continue;
      residualSums[i] +=
          (measured / mag) * std::polar(1.0, -predicted);
    }
  }
  std::vector<double> corrections(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    corrections[i] =
        residualSums[i] == dsp::cdouble{} ? 0.0 : std::arg(residualSums[i]);
  return corrections;
}

AoaAggregator::AoaAggregator(ArrayGeometry geometry)
    : geometry_(std::move(geometry)),
      crossSums_(geometry_.pairs.size(), dsp::cdouble{}) {}

void AoaAggregator::add(const TransponderObservation& obs) {
  if (obs.channels.size() != geometry_.elements.size())
    throw std::invalid_argument("AoaAggregator::add: channel count mismatch");
  for (std::size_t i = 0; i < geometry_.pairs.size(); ++i) {
    const auto& pair = geometry_.pairs[i];
    // Normalized cross-product: unit-magnitude phasor of the phase
    // difference, so a strong query does not dominate the circular mean.
    dsp::cdouble cross =
        obs.channels[pair.second] * std::conj(obs.channels[pair.first]);
    if (pair.second < geometry_.phaseCorrectionsRad.size() &&
        pair.first < geometry_.phaseCorrectionsRad.size())
      cross *= std::polar(1.0, geometry_.phaseCorrectionsRad[pair.first] -
                                   geometry_.phaseCorrectionsRad[pair.second]);
    const double mag = std::abs(cross);
    if (mag > 0) crossSums_[i] += cross / mag;
  }
  cfoSumHz_ += obs.cfoHz;
  ++samples_;
}

AoaResult AoaAggregator::result(double loFrequencyHz) const {
  AoaResult out;
  if (samples_ == 0) return out;
  const double cfo = cfoSumHz_ / static_cast<double>(samples_);
  const double lambda = wavelength(loFrequencyHz + cfo);
  double bestDistanceTo90 = 1e9;
  for (std::size_t i = 0; i < geometry_.pairs.size(); ++i) {
    PairAngle pa;
    pa.pairIndex = i;
    pa.phaseDiffRad = std::arg(crossSums_[i]);
    const double d = geometry_.baselineLength(i);
    const double cosAlpha = pa.phaseDiffRad * lambda / (kTwoPi * d);
    pa.valid = std::abs(cosAlpha) <= 1.0;
    pa.angleRad = std::acos(std::clamp(cosAlpha, -1.0, 1.0));
    const double to90 = std::abs(pa.angleRad - kPi / 2.0);
    if (pa.valid && to90 < bestDistanceTo90) {
      bestDistanceTo90 = to90;
      out.bestPair = i;
      out.bestAngleRad = pa.angleRad;
    }
    out.perPair.push_back(pa);
  }
  if (bestDistanceTo90 >= 1e9 && !out.perPair.empty()) {
    out.bestPair = 0;
    out.bestAngleRad = out.perPair[0].angleRad;
  }
  return out;
}

void AoaAggregator::reset() {
  crossSums_.assign(geometry_.pairs.size(), dsp::cdouble{});
  cfoSumHz_ = 0.0;
  samples_ = 0;
}

}  // namespace caraoke::core
