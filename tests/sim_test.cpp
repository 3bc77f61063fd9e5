// Unit tests for the simulation substrate: geometry, antenna arrays,
// transponders, the medium, mobility, traffic lights, the intersection
// model, and the event queue.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "dsp/spectrum.hpp"
#include "sim/geometry.hpp"
#include "sim/intersection.hpp"
#include "sim/medium.hpp"
#include "sim/mobility.hpp"
#include "sim/scene.hpp"
#include "sim/traffic_light.hpp"

namespace caraoke::sim {
namespace {

TEST(Geometry, LaneCentersAreSymmetric) {
  Road road;
  road.lanesPerDirection = 2;
  EXPECT_DOUBLE_EQ(road.laneCenterY(0, true), -road.laneCenterY(0, false));
  EXPECT_GT(road.laneCenterY(1, true), road.laneCenterY(0, true));
  EXPECT_THROW(road.laneCenterY(2, true), std::invalid_argument);
}

TEST(Geometry, ParkingRowSpacing) {
  const auto spots = makeParkingRow(0.0, 6, true, 6.0);
  ASSERT_EQ(spots.size(), 6u);
  EXPECT_DOUBLE_EQ(spots[0].centerX, 3.0);
  EXPECT_DOUBLE_EQ(spots[5].centerX, 33.0);
  const Road road;
  const Vec3 p = parkedTransponderPosition(spots[0], road);
  EXPECT_LT(p.y, -road.laneWidthMeters);  // outside the traveled lane
  EXPECT_GT(p.z, 0.0);
}

TEST(Geometry, TriangleArrayIsEquilateral) {
  const TriangleArray array({0, 0, 3.8}, 0.1651, 0.0);
  const auto& e = array.elements();
  ASSERT_EQ(e.size(), 3u);
  for (auto [a, b] : TriangleArray::pairs())
    EXPECT_NEAR(phy::distance(e[a], e[b]), 0.1651, 1e-12);
  // Centroid at the array center.
  const Vec3 centroid = (e[0] + e[1] + e[2]) * (1.0 / 3.0);
  EXPECT_NEAR(phy::distance(centroid, {0, 0, 3.8}), 0.0, 1e-12);
}

TEST(Geometry, TiltRotatesOutOfVerticalPlane) {
  const TriangleArray flat({0, 0, 3.8}, 0.1651, 0.0);
  const TriangleArray tilted({0, 0, 3.8}, 0.1651, deg2rad(60.0));
  // Untilted: all elements have y == 0. Tilted: some spread in y.
  for (const auto& e : flat.elements()) EXPECT_NEAR(e.y, 0.0, 1e-12);
  double ySpread = 0.0;
  for (const auto& e : tilted.elements())
    ySpread = std::max(ySpread, std::abs(e.y));
  EXPECT_GT(ySpread, 0.05);
}

TEST(Geometry, TrueAngleMatchesHandComputation) {
  const TriangleArray array({0, 0, 0}, 0.2, 0.0);
  // Pair baselines are unit vectors; angle to a far target along +x for a
  // horizontal baseline should be near 0 or 180.
  for (std::size_t p = 0; p < 3; ++p) {
    const Vec3 u = array.baselineDirection(p);
    const double expected = std::acos(std::clamp(u.x, -1.0, 1.0));
    EXPECT_NEAR(array.trueAngle(p, {1000.0, 0, 0}), expected, 1e-6);
  }
}

TEST(Transponder, RespondAppliesFreshPhaseEachQuery) {
  Rng rng(1);
  phy::EmpiricalCfoModel model;
  Transponder device = Transponder::random(model, rng);
  device.setDriftModel({0.0});
  const phy::SamplingParams params;
  const auto w1 = device.respond(params);
  const double phase1 = device.lastInitialPhase();
  const auto w2 = device.respond(params);
  const double phase2 = device.lastInitialPhase();
  EXPECT_NE(phase1, phase2);
  // Same bits, same CFO: the two waveforms differ by a global phase.
  // Find a sample where both are non-zero and compare ratios.
  for (std::size_t i = 0; i < w1.size(); ++i) {
    if (std::abs(w1[i]) > 0.5 && std::abs(w2[i]) > 0.5) {
      const auto ratio = w2[i] / w1[i];
      EXPECT_NEAR(std::abs(ratio), 1.0, 1e-9);
      EXPECT_NEAR(std::remainder(std::arg(ratio) - (phase2 - phase1),
                                 kTwoPi), 0.0, 1e-6);
      break;
    }
  }
}

TEST(Transponder, CarrierDriftsBetweenQueries) {
  Rng rng(2);
  phy::UniformCfoModel model;
  Transponder device = Transponder::random(model, rng);
  const double before = device.carrierHz();
  const phy::SamplingParams params;
  device.respond(params);
  EXPECT_NE(device.carrierHz(), before);
  EXPECT_LT(std::abs(device.carrierHz() - before), 200.0);
}

TEST(Medium, SuperpositionIsLinear) {
  Rng rngA(3), rngB(3);
  const phy::SamplingParams params;
  FrontEndConfig frontEnd;
  frontEnd.noiseSigma = 0.0;
  frontEnd.enableAdc = false;
  MultipathConfig multipath;
  const std::vector<Vec3> antennas{{0, 0, 4}};

  Transponder devA(phy::Packet::randomId(rngA), 914.5e6, Rng(10));
  Transponder devB(phy::Packet::randomId(rngA), 915.2e6, Rng(11));
  Transponder devA2(devA.id(), 914.5e6, Rng(10));
  Transponder devB2(devB.id(), 915.2e6, Rng(11));

  std::vector<ActiveDevice> both{{&devA, {5, 2, 1}}, {&devB, {-7, 3, 1}}};
  const auto combined =
      captureAtAntennas(frontEnd, antennas, both, multipath, rngA);

  std::vector<ActiveDevice> onlyA{{&devA2, {5, 2, 1}}};
  const auto capA =
      captureAtAntennas(frontEnd, antennas, onlyA, multipath, rngB);
  std::vector<ActiveDevice> onlyB{{&devB2, {-7, 3, 1}}};
  const auto capB =
      captureAtAntennas(frontEnd, antennas, onlyB, multipath, rngB);

  for (std::size_t t = 0; t < combined.antennaSamples[0].size(); ++t) {
    const auto sum = capA.antennaSamples[0][t] + capB.antennaSamples[0][t];
    EXPECT_NEAR(std::abs(combined.antennaSamples[0][t] - sum), 0.0, 1e-12);
  }
}

TEST(Medium, InterAntennaPhaseMatchesGeometry) {
  // Far-field: the phase difference between two antennas d apart must be
  // ~ 2 pi d cos(angle) / lambda (Eq. 10's premise).
  Rng rng(4);
  FrontEndConfig frontEnd;
  frontEnd.noiseSigma = 0.0;
  frontEnd.enableAdc = false;
  MultipathConfig multipath;
  multipath.groundReflection = false;

  const double d = 0.1651;
  const std::vector<Vec3> antennas{{0, 0, 4}, {d, 0, 4}};
  Transponder device(phy::Packet::randomId(rng), 915.0e6, Rng(5));
  const Vec3 target{30.0, 10.0, 1.2};
  std::vector<ActiveDevice> active{{&device, target}};
  const auto capture =
      captureAtAntennas(frontEnd, antennas, active, multipath, rng);

  // The carrier drifted after respond(); use the capture's recorded truth.
  const dsp::BinMapper mapper(2048, frontEnd.sampling.sampleRateHz);
  const auto s0 = dsp::fft(capture.antennaSamples[0]);
  const auto s1 = dsp::fft(capture.antennaSamples[1]);
  const std::size_t k = mapper.freqToBin(capture.trueCfosHz[0]);
  const double measured = std::arg(s1[k] / s0[k]);

  const Vec3 center{d / 2, 0, 4};
  const double cosAlpha = phy::dot(phy::direction(center, target),
                                   Vec3{1, 0, 0});
  const double lambda = wavelength(frontEnd.sampling.loFrequencyHz +
                                   capture.trueCfosHz[0]);
  const double expected = kTwoPi * d * cosAlpha / lambda;
  EXPECT_NEAR(std::remainder(measured - expected, kTwoPi), 0.0, 0.05);
}

TEST(Medium, TurnaroundJitterShiftsResponse) {
  Rng rng(6);
  FrontEndConfig frontEnd;
  frontEnd.noiseSigma = 0.0;
  frontEnd.enableAdc = false;
  frontEnd.turnaroundJitterMaxSamples = 8;
  MultipathConfig multipath;
  Transponder device(phy::Packet::randomId(rng), 915.0e6, Rng(7));
  std::vector<ActiveDevice> active{{&device, {5, 2, 1}}};
  const auto capture = captureAtAntennas(frontEnd, {{0, 0, 4}}, active,
                                         multipath, rng);
  EXPECT_EQ(capture.antennaSamples[0].size(), 2048u);
}

TEST(Mobility, ConstantSpeedAdvances) {
  ConstantSpeedMobility car(0.0, 1.8, 1.2, 10.0);
  EXPECT_DOUBLE_EQ(car.positionAt(0.0).x, 0.0);
  EXPECT_DOUBLE_EQ(car.positionAt(2.5).x, 25.0);
  EXPECT_DOUBLE_EQ(car.speedAt(1.0), 10.0);
}

TEST(Mobility, TrapezoidalRampsToCruise) {
  TrapezoidalMobility car(0.0, 1.8, 1.2, 2.0, 10.0, 0.0);
  EXPECT_DOUBLE_EQ(car.speedAt(1.0), 2.0);
  EXPECT_DOUBLE_EQ(car.speedAt(100.0), 10.0);
  // Position continuous at the ramp end (t = 5 s, x = 25 m).
  EXPECT_NEAR(car.positionAt(5.0).x, 25.0, 1e-9);
  EXPECT_NEAR(car.positionAt(6.0).x, 35.0, 1e-9);
}

TEST(TrafficLight, PhaseCycle) {
  const TrafficLight light(30.0, 4.0, 26.0);
  EXPECT_EQ(light.phaseAt(0.0), LightPhase::kGreen);
  EXPECT_EQ(light.phaseAt(29.9), LightPhase::kGreen);
  EXPECT_EQ(light.phaseAt(31.0), LightPhase::kYellow);
  EXPECT_EQ(light.phaseAt(35.0), LightPhase::kRed);
  EXPECT_EQ(light.phaseAt(60.0), LightPhase::kGreen);  // next cycle
  EXPECT_NEAR(light.timeToPhaseEnd(0.0), 30.0, 1e-12);
  EXPECT_NEAR(light.timeToPhaseEnd(59.0), 1.0, 1e-12);
}

TEST(TrafficLight, OffsetShiftsPhases) {
  const TrafficLight light(30.0, 4.0, 26.0, 30.0);
  // Offset 30 s: the cycle starts (green) at t = 30.
  EXPECT_EQ(light.phaseAt(30.0), LightPhase::kGreen);
  // t = 0 is 30 s into the previous cycle: the yellow phase.
  EXPECT_EQ(light.phaseAt(0.0), LightPhase::kYellow);
  // t = 65 is 35 s into the cycle: red.
  EXPECT_EQ(light.phaseAt(65.0), LightPhase::kRed);
}

TEST(Intersection, QueueBuildsOnRedAndDrainsOnGreen) {
  Rng rng(8);
  phy::UniformCfoModel cfoModel;
  ApproachConfig config;
  config.arrivalRatePerSec = 0.25;
  config.transponderRate = 1.0;
  // Long red first (offset 57 puts t=0 at the start of red), then green.
  const TrafficLight light(40.0, 3.0, 57.0, 57.0);
  ApproachSim approach(config, light, cfoModel, rng);
  ASSERT_EQ(light.phaseAt(0.0), LightPhase::kRed);

  for (double t = 0; t < 50.0; t += 0.1) approach.step(0.1);
  const std::size_t duringRed = approach.carsInRange(0.0, 40.0);
  // All queued cars are stopped before the line.
  for (const SimCar& car : approach.cars())
    EXPECT_LE(car.position, 0.0);

  // Deep into the green (it starts at t = 57): the queue has discharged
  // and only through-traffic remains in range.
  for (double t = 0; t < 45.0; t += 0.1) approach.step(0.1);
  const std::size_t afterGreen = approach.carsInRange(0.0, 40.0);
  EXPECT_GT(duringRed, 2u);
  EXPECT_LT(afterGreen, duringRed);
}

TEST(Intersection, NoCarPassesStopLineOnRed) {
  Rng rng(9);
  phy::UniformCfoModel cfoModel;
  ApproachConfig config;
  config.arrivalRatePerSec = 0.5;
  const TrafficLight light(20.0, 3.0, 77.0);
  ApproachSim approach(config, light, cfoModel, rng);
  for (double t = 0; t < 300.0; t += 0.1) {
    approach.step(0.1);
    if (light.phaseAt(approach.now()) == LightPhase::kRed) {
      for (const SimCar& car : approach.cars()) {
        // Cars that crossed before red may be past the line; cars behind
        // the line must not cross during red. We check no car sits just
        // past the line at low speed (i.e., crossed while stopped).
        if (car.position > 0.0 && car.position < 2.0) {
          EXPECT_GT(car.speed, 1.0);
        }
      }
    }
  }
}

TEST(Intersection, CarsKeepMinimumSpacing) {
  Rng rng(10);
  phy::UniformCfoModel cfoModel;
  ApproachConfig config;
  config.arrivalRatePerSec = 0.6;
  const TrafficLight light(10.0, 3.0, 87.0);
  ApproachSim approach(config, light, cfoModel, rng);
  for (double t = 0; t < 200.0; t += 0.1) {
    approach.step(0.1);
    const auto& cars = approach.cars();
    for (std::size_t i = 1; i < cars.size(); ++i) {
      const double gap =
          std::abs(cars[i - 1].position - cars[i].position);
      EXPECT_GE(gap, config.queueGap - 0.5) << "at t=" << approach.now();
    }
  }
}

TEST(Scene, RangeFilterAndQuery) {
  Rng rng(11);
  Scene scene(Road{});
  ReaderNode reader;
  reader.pole.base = {0, -6, 0};
  reader.pole.heightMeters = 3.8;
  scene.addReader(reader);

  phy::UniformCfoModel cfoModel;
  scene.addCar(Transponder::random(cfoModel, rng),
               std::make_unique<ParkedMobility>(Vec3{5, 2, 1.2}));
  scene.addCar(Transponder::random(cfoModel, rng),
               std::make_unique<ParkedMobility>(Vec3{500, 2, 1.2}));
  scene.addCar(Transponder::random(cfoModel, rng),
               std::make_unique<ConstantSpeedMobility>(-100.0, 1.8, 1.2,
                                                       10.0));

  EXPECT_EQ(scene.trueCount(0, 0.0), 1u);   // parked near only
  EXPECT_EQ(scene.trueCount(0, 9.0), 2u);   // mover arrives in range
  const Capture capture = scene.query(0, 9.0, rng);
  EXPECT_EQ(capture.antennaSamples.size(), 3u);
  EXPECT_EQ(capture.trueCfosHz.size(), 2u);
}


TEST(Scene, LinkBudgetTriggerMatchesGeometricRangeInLoS) {
  Rng rng(12);
  Scene scene(Road{});
  ReaderNode reader;
  reader.pole.base = {0, -6, 0};
  reader.pole.heightMeters = 3.8;
  scene.addReader(reader);
  scene.multipath().groundReflection = false;  // pure LoS calibration

  phy::UniformCfoModel cfoModel;
  // One car near the range edge, one well inside, one far outside.
  scene.addCar(Transponder::random(cfoModel, rng),
               std::make_unique<ParkedMobility>(Vec3{25.0, 2.0, 1.2}));
  scene.addCar(Transponder::random(cfoModel, rng),
               std::make_unique<ParkedMobility>(Vec3{5.0, 2.0, 1.2}));
  scene.addCar(Transponder::random(cfoModel, rng),
               std::make_unique<ParkedMobility>(Vec3{200.0, 2.0, 1.2}));

  const auto geometric = scene.carsInRange(0, 0.0);
  scene.enableLinkBudgetTrigger(true);
  const auto budget = scene.carsInRange(0, 0.0);
  EXPECT_EQ(geometric, budget);  // LoS: the calibrated threshold agrees
  EXPECT_EQ(budget.size(), 2u);
}

TEST(Scene, LinkBudgetTriggerSeesMultipathFading) {
  Rng rng(13);
  Scene scene(Road{});
  ReaderNode reader;
  reader.pole.base = {0, -6, 0};
  reader.pole.heightMeters = 3.8;
  scene.addReader(reader);
  scene.enableLinkBudgetTrigger(true);
  // With a ground bounce, receive power deviates from free space: scan a
  // line of positions and check the power is not monotone in distance
  // (constructive/destructive fading).
  bool sawNonMonotone = false;
  double prev = scene.queryPowerAt(0, {3.0, 2.0, 1.2});
  double prevDelta = 0.0;
  for (double x = 3.5; x < 30.0; x += 0.5) {
    const double p = scene.queryPowerAt(0, {x, 2.0, 1.2});
    const double delta = p - prev;
    if (delta > 0 && prevDelta < 0) sawNonMonotone = true;
    prevDelta = delta;
    prev = p;
  }
  EXPECT_TRUE(sawNonMonotone);
}

}  // namespace
}  // namespace caraoke::sim
