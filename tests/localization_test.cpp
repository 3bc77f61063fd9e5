// Localization-chain tests: AoA math, the aggregator, cone/hyperbola
// geometry, the two-reader fix, and speed estimation primitives.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/aoa.hpp"
#include "core/localizer.hpp"
#include "core/speed.hpp"
#include "phy/channel.hpp"

namespace caraoke::core {
namespace {

using phy::Vec3;

// A two-element array along x with ideal channels for a target direction.
ArrayGeometry linearPair(double d) {
  ArrayGeometry g;
  g.elements = {Vec3{0, 0, 0}, Vec3{d, 0, 0}};
  g.pairs = {{0, 1}};
  return g;
}

TransponderObservation idealObservation(const ArrayGeometry& g,
                                        const Vec3& target, double carrier) {
  TransponderObservation obs;
  obs.cfoHz = carrier - 914.3e6;
  const double lambda = wavelength(carrier);
  for (const Vec3& e : g.elements) {
    const double dist = phy::distance(e, target);
    const double phase = -kTwoPi * dist / lambda;
    obs.channels.push_back(0.01 * dsp::cdouble(std::cos(phase),
                                               std::sin(phase)));
  }
  return obs;
}

TEST(Aoa, RecoverAngleFromIdealChannels) {
  const double carrier = 915.0e6;
  const double d = wavelength(carrier) / 2.0;
  const ArrayGeometry g = linearPair(d);
  const AoaEstimator estimator(g);

  for (double angleDeg : {30.0, 60.0, 90.0, 120.0, 150.0}) {
    // Far-field target in the x-y plane at the given angle to the x axis.
    const double r = 200.0;
    const Vec3 target{r * std::cos(deg2rad(angleDeg)),
                      r * std::sin(deg2rad(angleDeg)), 0.0};
    const auto obs = idealObservation(g, target, carrier);
    const auto pa = estimator.pairAngle(obs.channels, 0,
                                        wavelength(carrier));
    EXPECT_NEAR(rad2deg(pa.angleRad), angleDeg, 0.2) << angleDeg;
  }
}

TEST(Aoa, BestPairPrefersBroadside) {
  // Triangle-ish geometry: three elements, three pairs.
  const double carrier = 915.0e6;
  const double d = wavelength(carrier) / 2.0;
  ArrayGeometry g;
  g.elements = {Vec3{0, 0, 0}, Vec3{d, 0, 0}, Vec3{d / 2, 0, d * 0.866}};
  g.pairs = {{0, 1}, {1, 2}, {2, 0}};
  const AoaEstimator estimator(g);

  const Vec3 target{50.0, 120.0, 0.0};
  const auto obs = idealObservation(g, target, carrier);
  const auto result = estimator.estimate(obs, 914.3e6);
  ASSERT_EQ(result.perPair.size(), 3u);
  // The chosen pair's angle must be the closest to 90 degrees.
  for (const auto& pa : result.perPair) {
    if (!pa.valid) continue;
    EXPECT_LE(std::abs(result.bestAngleRad - kPi / 2),
              std::abs(pa.angleRad - kPi / 2) + 1e-12);
  }
}

TEST(Aoa, AggregatorAveragesOutPhaseNoise) {
  Rng rng(1);
  const double carrier = 915.0e6;
  const double d = wavelength(carrier) / 2.0;
  const ArrayGeometry g = linearPair(d);
  const Vec3 target{80.0, 60.0, 0.0};

  AoaAggregator aggregator(g);
  for (int q = 0; q < 32; ++q) {
    auto obs = idealObservation(g, target, carrier);
    // Common random phase (oscillator) plus small per-antenna noise.
    const double common = rng.phase();
    for (auto& h : obs.channels) {
      h *= std::polar(1.0, common + rng.gaussian(0.0, 0.15));
    }
    aggregator.add(obs);
  }
  const auto result = aggregator.result(914.3e6);
  const AoaEstimator estimator(g);
  const auto clean = estimator.estimate(
      idealObservation(g, target, carrier), 914.3e6);
  EXPECT_NEAR(rad2deg(result.bestAngleRad), rad2deg(clean.bestAngleRad),
              1.5);
}

TEST(Aoa, AggregatorResetClears) {
  const ArrayGeometry g = linearPair(0.16);
  AoaAggregator aggregator(g);
  auto obs = idealObservation(g, {10, 10, 0}, 915.0e6);
  aggregator.add(obs);
  EXPECT_EQ(aggregator.samples(), 1u);
  aggregator.reset();
  EXPECT_EQ(aggregator.samples(), 0u);
}


TEST(Aoa, CalibrationRecoversCableOffsets) {
  // A reference tag at a surveyed position lets the reader solve for its
  // own per-antenna phase offsets; applying them restores AoA accuracy.
  Rng rng(2);
  const double carrier = 915.0e6;
  ArrayGeometry g;
  g.elements = {Vec3{0, 0, 4}, Vec3{0.165, 0, 4}, Vec3{0.08, 0.1, 4.1}};
  g.pairs = {{0, 1}, {1, 2}, {2, 0}};
  const std::vector<double> trueOffsets{0.0, 0.35, -0.5};

  const Vec3 reference{12.0, 5.0, 1.2};
  std::vector<TransponderObservation> burst;
  for (int q = 0; q < 16; ++q) {
    auto obs = idealObservation(g, reference, carrier);
    const double common = rng.phase();
    for (std::size_t i = 0; i < obs.channels.size(); ++i)
      obs.channels[i] *= std::polar(
          1.0, common + trueOffsets[i] + rng.gaussian(0.0, 0.03));
    burst.push_back(std::move(obs));
  }
  const auto corrections = calibrateArray(g, burst, reference, 914.3e6);
  ASSERT_EQ(corrections.size(), 3u);
  // Corrections are relative to element 0.
  EXPECT_NEAR(corrections[1] - corrections[0], 0.35, 0.05);
  EXPECT_NEAR(corrections[2] - corrections[0], -0.5, 0.05);

  // With corrections installed, a *different* target measures correctly
  // despite the offsets.
  g.phaseCorrectionsRad = corrections;
  const AoaEstimator estimator(g);
  const Vec3 target{-20.0, 14.0, 1.2};
  auto obs = idealObservation(g, target, carrier);
  for (std::size_t i = 0; i < obs.channels.size(); ++i)
    obs.channels[i] *= std::polar(1.0, trueOffsets[i]);
  const auto result = estimator.estimate(obs, 914.3e6);
  ArrayGeometry clean = g;
  clean.phaseCorrectionsRad.clear();
  const AoaEstimator cleanEstimator(clean);
  const auto truth =
      cleanEstimator.estimate(idealObservation(g, target, carrier),
                              914.3e6);
  EXPECT_NEAR(rad2deg(result.bestAngleRad), rad2deg(truth.bestAngleRad),
              1.0);
}

TEST(Localizer, ConeResidualZeroOnCone) {
  ConeConstraint cone;
  cone.apex = {0, 0, 4};
  cone.axis = {1, 0, 0};
  cone.angleRad = deg2rad(60.0);
  // A point at 60 degrees from the +x axis as seen from the apex.
  const double r = 10.0;
  const Vec3 p{r * std::cos(deg2rad(60.0)),
               r * std::sin(deg2rad(60.0)), 4.0};
  EXPECT_NEAR(cone.residual(p), 0.0, 1e-12);
  EXPECT_GT(std::abs(cone.residual({5, 0, 4})), 0.1);
}

TEST(Localizer, HyperbolaMatchesEq15) {
  // Eq. 15: (tan(alpha) x)^2 - y^2 = b^2. For alpha = 45 deg, b = 3:
  // x = 5 gives y = 4.
  EXPECT_NEAR(hyperbolaY(deg2rad(45.0), 3.0, 5.0), 4.0, 1e-9);
  // Inside the vertex there is no solution.
  EXPECT_TRUE(std::isnan(hyperbolaY(deg2rad(45.0), 3.0, 1.0)));
}

TEST(Localizer, ConeAgreesWithHyperbola) {
  // The general cone residual restricted to the road plane must vanish on
  // the Eq. 15 hyperbola (untilted road-parallel baseline).
  const double b = 3.8;  // apex height above the target plane
  ConeConstraint cone;
  cone.apex = {0, 0, b};
  cone.axis = {1, 0, 0};
  cone.angleRad = deg2rad(35.0);
  for (double x = 6.0; x < 30.0; x += 3.0) {
    const double y = hyperbolaY(cone.angleRad, b, x);
    if (std::isnan(y)) continue;
    EXPECT_NEAR(cone.residual({x, y, 0.0}), 0.0, 1e-9) << x;
  }
}

TEST(Localizer, TwoReaderFixRecoversPosition) {
  // Two readers on opposite sides of the road; ground-truth car position;
  // perfect angles -> the fix should land on the car.
  const Vec3 car{12.0, 1.5, 1.2};
  ConeConstraint a, b;
  a.apex = {0.0, -6.0, 3.8};
  a.axis = {1, 0, 0};
  a.angleRad = std::acos(phy::dot(phy::direction(a.apex, car), a.axis));
  b.apex = {30.0, 6.0, 3.8};
  b.axis = {1, 0, 0};
  b.angleRad = std::acos(phy::dot(phy::direction(b.apex, car), b.axis));

  RoadPlane road;
  road.zHeight = 1.2;
  road.halfWidth = 5.0;
  const auto fix = localizeTwoReaders(a, b, road);
  ASSERT_TRUE(fix.ok()) << fix.error();
  EXPECT_NEAR(fix.value().position.x, car.x, 0.05);
  EXPECT_NEAR(fix.value().position.y, car.y, 0.05);
}

TEST(Localizer, TwoReaderFixWithTiltedBaselines) {
  const Vec3 car{18.0, -2.0, 1.2};
  const Vec3 tiltedAxis{std::cos(deg2rad(30.0)), 0.0,
                        -std::sin(deg2rad(30.0))};
  ConeConstraint a, b;
  a.apex = {0.0, -6.0, 3.8};
  a.axis = tiltedAxis;
  a.angleRad = std::acos(phy::dot(phy::direction(a.apex, car), a.axis));
  b.apex = {40.0, 6.0, 3.8};
  b.axis = {1, 0, 0};
  b.angleRad = std::acos(phy::dot(phy::direction(b.apex, car), b.axis));

  RoadPlane road;
  road.zHeight = 1.2;
  road.halfWidth = 5.0;
  const auto fix = localizeTwoReaders(a, b, road);
  ASSERT_TRUE(fix.ok()) << fix.error();
  EXPECT_NEAR(fix.value().position.x, car.x, 0.1);
  EXPECT_NEAR(fix.value().position.y, car.y, 0.1);
}

TEST(Localizer, LocalizeOnLineFindsParkedCar) {
  const double rowY = -4.7, z = 1.2;
  const Vec3 car{15.0, rowY, z};
  ConeConstraint cone;
  cone.apex = {0.0, -6.0, 3.8};
  cone.axis = {1, 0, 0};
  cone.angleRad = std::acos(phy::dot(phy::direction(cone.apex, car),
                                     cone.axis));
  const auto roots = localizeOnLine(cone, rowY, z, 0.0, 40.0);
  ASSERT_FALSE(roots.empty());
  bool found = false;
  for (double r : roots)
    if (std::abs(r - car.x) < 0.05) found = true;
  EXPECT_TRUE(found);
}

TEST(Speed, AbeamTimeInterpolatesZeroCrossing) {
  std::vector<AngleSample> samples{
      {0.0, 0.5}, {1.0, 0.25}, {2.0, -0.25}, {3.0, -0.5}};
  const auto t = findAbeamTime(samples);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 1.5, 1e-12);
}

TEST(Speed, AbeamTimePicksSteepestCrossing) {
  // A shallow noise wiggle before the true steep crossing.
  std::vector<AngleSample> samples{
      {0.0, 0.02}, {1.0, -0.02}, {2.0, 0.01},  // noise near zero
      {3.0, 0.8},  {4.0, -0.8}};               // the real pass
  const auto t = findAbeamTime(samples);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 3.5, 1e-9);
}

TEST(Speed, AbeamTimeIgnoresOneOutlierSample) {
  // A corridor pole's cluster for one car, sampled every 0.25 s, with
  // elided samples filled in by a smooth sweep. At 8.02 s another car's
  // data line, abeam of the pole at that moment, landed in the cluster:
  // it makes two sign changes, and the first is steeper than the car's
  // own crossing near 6.17 s.
  std::vector<AngleSample> samples{
      {4.77, -0.75}, {5.02, -0.66}, {5.27, -0.55}, {5.52, -0.45},
      {5.77, -0.34}, {6.02, -0.22}, {6.27, 0.15},  {6.52, 0.38},
      {6.77, 0.58},  {7.02, 0.74},  {7.27, 0.85},  {7.52, 0.93},
      {7.77, 0.98},  {8.02, -0.01}, {8.27, 0.15}};
  const auto t = findAbeamTime(samples);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 6.02 + 0.25 * 0.22 / 0.37, 1e-9);
}

TEST(Speed, NoCrossingReturnsEmpty) {
  std::vector<AngleSample> samples{{0, 0.5}, {1, 0.4}, {2, 0.3}};
  EXPECT_FALSE(findAbeamTime(samples).has_value());
}

TEST(Speed, EstimateSpeedBasics) {
  const auto v = estimateSpeed(0.0, 10.0, 61.0, 14.0);
  ASSERT_TRUE(v.has_value());
  EXPECT_NEAR(*v, 15.25, 1e-12);
  EXPECT_FALSE(estimateSpeed(0.0, 10.0, 61.0, 10.0).has_value());
}

TEST(Speed, WorstCaseErrorFormula) {
  // Paper footnote 11 example: 13 ft pole, 2 lanes each direction, 12 ft
  // lanes -> maximum error 8.5 feet. The formula's units work in any
  // consistent length unit; use feet directly and check the order.
  const double err = worstCasePositionError(13.0, 2, 12.0, deg2rad(60.0));
  EXPECT_GT(err, 5.0);
  EXPECT_LT(err, 15.0);
  // At 90 degrees the tan diverges and the error collapses.
  EXPECT_NEAR(worstCasePositionError(13.0, 2, 12.0, deg2rad(90.0)), 0.0,
              1e-9);
}

}  // namespace
}  // namespace caraoke::core
