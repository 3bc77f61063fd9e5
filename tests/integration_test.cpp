// End-to-end integration tests: whole scenes driven through capture ->
// spectrum -> count/AoA/decode -> network -> application, exercising the
// public API the way the examples do.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "apps/parking.hpp"
#include "apps/red_light.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/measurement_window.hpp"
#include "net/backend.hpp"
#include "net/clock.hpp"
#include "scenes_helpers.hpp"
#include "sim/scene.hpp"

namespace caraoke {
namespace {

TEST(Integration, ParkedCarLocalizedToSpotAndBilled) {
  Rng rng(11);
  const sim::Road road{};
  sim::ReaderNode readerNode = testhelpers::makeReader(0.0, -6.0, 60.0);
  const auto spots = sim::makeParkingRow(1.0, 6, true);
  phy::EmpiricalCfoModel cfoModel;
  sim::MultipathConfig multipath;

  // Car parks in spot 2 — close enough to the pole that a single-reader
  // fix resolves the 6.1 m spot pitch (far spots need the second pole).
  sim::Transponder car = sim::Transponder::random(cfoModel, rng);
  const phy::TransponderId carId = car.id();
  const phy::Vec3 carPos = sim::parkedTransponderPosition(spots[1], road);

  // Reader pipeline: burst AoA + decode.
  core::SpectrumAnalyzer analyzer;
  core::AoaAggregator aggregator(testhelpers::geometryFor(readerNode));
  core::CollisionDecoder decoder;
  const double targetCfo =
      car.carrierHz() - readerNode.frontEnd.sampling.loFrequencyHz;
  decoder.reset(targetCfo);

  std::optional<phy::TransponderId> decoded;
  for (int q = 0; q < 12; ++q) {
    std::vector<sim::ActiveDevice> active{{&car, carPos}};
    const auto capture =
        sim::captureCollision(readerNode, active, multipath, rng);
    for (const auto& obs : analyzer.analyze(capture.antennaSamples))
      if (std::abs(obs.cfoHz - targetCfo) < 3e3) aggregator.add(obs);
    if (!decoded)
      if (auto id = decoder.addCollision(capture.antennaSamples.front()))
        decoded = *id;
  }
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, carId);
  ASSERT_GT(aggregator.samples(), 6u);

  // Map the AoA cone to a parking spot and open a session.
  const auto aoa =
      aggregator.result(readerNode.frontEnd.sampling.loFrequencyHz);
  const core::ArrayGeometry geometry = testhelpers::geometryFor(readerNode);
  core::ConeConstraint cone;
  cone.apex = geometry.center();
  cone.axis = geometry.baselineDirection(aoa.bestPair);
  cone.angleRad = aoa.bestAngleRad;

  apps::ParkingConfig parkingConfig;
  parkingConfig.spots = spots;
  parkingConfig.rowY = carPos.y;
  apps::ParkingService parking(parkingConfig);
  const auto spot = parking.spotForCone(cone, 12.0);
  ASSERT_TRUE(spot.has_value());
  EXPECT_EQ(*spot, 1u);

  parking.vehicleSeen(*decoded, *spot, 0.0);
  const auto charge = parking.vehicleLeft(*decoded, 1800.0);
  ASSERT_TRUE(charge.has_value());
  EXPECT_NEAR(charge->amount, 2.50 * 0.5, 1e-9);
}

TEST(Integration, BackendFusesLiveSightingsIntoPositionFix) {
  Rng rng(12);
  sim::MultipathConfig multipath;
  phy::EmpiricalCfoModel cfoModel;

  sim::ReaderNode nodeA = testhelpers::makeReader(0.0, -6.0);
  sim::ReaderNode nodeB = testhelpers::makeReader(26.0, 6.0);

  sim::Transponder car = sim::Transponder::random(cfoModel, rng);
  const phy::Vec3 carPos{14.0, 1.5, 1.2};

  net::BackendConfig backendConfig;
  backendConfig.road.zHeight = 1.2;
  backendConfig.road.halfWidth = 6.0;
  net::Backend backend(backendConfig);
  backend.registerReader(1, testhelpers::geometryFor(nodeA));
  backend.registerReader(2, testhelpers::geometryFor(nodeB));

  core::SpectrumAnalyzer analyzer;
  auto report = [&](std::uint32_t readerId, sim::ReaderNode& node,
                    double timestamp) {
    core::AoaAggregator aggregator(testhelpers::geometryFor(node));
    for (int q = 0; q < 8; ++q) {
      std::vector<sim::ActiveDevice> active{{&car, carPos}};
      const auto capture =
          sim::captureCollision(node, active, multipath, rng);
      for (const auto& obs : analyzer.analyze(capture.antennaSamples))
        aggregator.add(obs);
    }
    ASSERT_GT(aggregator.samples(), 0u);
    const auto aoa =
        aggregator.result(node.frontEnd.sampling.loFrequencyHz);
    net::SightingReport sighting;
    sighting.readerId = readerId;
    sighting.timestamp = timestamp;
    sighting.cfoHz = car.carrierHz() - node.frontEnd.sampling.loFrequencyHz;
    sighting.pairIndex = static_cast<std::uint32_t>(aoa.bestPair);
    sighting.angleRad = aoa.bestAngleRad;
    // Through the wire protocol, as a real reader would.
    ASSERT_TRUE(backend
                    .ingestBatch(net::encodeBatchV3({readerId, 1},
                                                    {net::Message{sighting}}))
                    .ok());
  };
  report(1, nodeA, 5.0);
  report(2, nodeB, 5.05);

  const auto fixes = backend.fuse(5.1);
  ASSERT_EQ(fixes.size(), 1u);
  // Along-road accuracy is tight; cross-road is the weak axis — the
  // paper's own worst case (footnote 11) is 8.5 ft (~2.6 m) per reader.
  EXPECT_NEAR(fixes[0].position.x, carPos.x, 2.5);
  EXPECT_NEAR(fixes[0].position.y, carPos.y, 5.0);
}

TEST(Integration, RedLightRunnerCaughtWithDecodedId) {
  Rng rng(13);
  sim::MultipathConfig multipath;
  phy::EmpiricalCfoModel cfoModel;
  sim::ReaderNode node = testhelpers::makeReader(0.0, -6.0);

  // Light turns red at t = 34; the car barrels through at t = 40.
  const sim::TrafficLight light(30.0, 4.0, 60.0);
  sim::Transponder car = sim::Transponder::random(cfoModel, rng);
  const double v = mph(35.0);
  const double crossTime = 40.0;

  core::SpectrumAnalyzer analyzer;
  const core::ArrayGeometry geometry = testhelpers::geometryFor(node);
  const core::AoaEstimator estimator(geometry);
  // Road-parallel pair for the crossing detector.
  const std::size_t roadPair = geometry.roadPair();

  std::vector<core::AngleSample> track;
  const double targetCfo =
      car.carrierHz() - node.frontEnd.sampling.loFrequencyHz;
  for (double t = crossTime - 1.2; t <= crossTime + 1.2; t += 0.08) {
    const double x = v * (t - crossTime);
    std::vector<sim::ActiveDevice> active{{&car, {x, 1.8, 1.2}}};
    const auto capture = sim::captureCollision(node, active, multipath, rng);
    const auto observations = analyzer.analyze(capture.antennaSamples);
    const core::TransponderObservation* best = nullptr;
    double gap = 3e3;
    for (const auto& obs : observations)
      if (std::abs(obs.cfoHz - targetCfo) < gap) {
        gap = std::abs(obs.cfoHz - targetCfo);
        best = &obs;
      }
    if (!best) continue;
    const auto pa = estimator.pairAngle(
        best->channels, roadPair,
        wavelength(node.frontEnd.sampling.loFrequencyHz + best->cfoHz));
    track.push_back({t, std::cos(pa.angleRad)});
  }

  apps::RedLightDetector detector({1.0}, light);
  const auto violation = detector.check(track, car.id());
  ASSERT_TRUE(violation.has_value());
  EXPECT_NEAR(violation->crossingTime, crossTime, 0.15);
  EXPECT_EQ(*violation->vehicle, car.id());
}

TEST(Integration, SceneQueryCountObserveDecodeRoundTrip) {
  Rng rng(14);
  sim::Scene scene(sim::Road{});
  sim::ReaderNode node = testhelpers::makeReader(0.0, -6.0, 60.0);
  const std::size_t readerIdx = scene.addReader(node);

  phy::EmpiricalCfoModel cfoModel;
  std::vector<phy::TransponderId> truthIds;
  for (int i = 0; i < 3; ++i) {
    sim::Transponder t = sim::Transponder::random(cfoModel, rng);
    truthIds.push_back(t.id());
    scene.addCar(std::move(t), std::make_unique<sim::ParkedMobility>(
                                   phy::Vec3{-10.0 + 10.0 * i, 2.0, 1.2}));
  }

  core::MeasurementWindow window(testhelpers::geometryFor(node),
                                 node.frontEnd.sampling);

  // Count and observe one burst.
  core::Burst burst;
  for (int q = 0; q < 10; ++q)
    burst.push_back(scene.query(readerIdx, 0.0, rng).antennaSamples);
  const auto count = window.count(burst);
  EXPECT_EQ(count.estimate, 3u);
  window.observe(0.0, burst, count);
  EXPECT_GE(window.tracker().tracks().size(), 2u);

  // Decode everyone from the stored burst.
  std::vector<dsp::CVec> collisions;
  for (const auto& antennas : burst) collisions.push_back(antennas.front());
  for (int q = 0; q < 30; ++q)
    collisions.push_back(
        scene.query(readerIdx, 0.0, rng).antennaSamples.front());
  const auto entries = core::decodeAll(collisions, core::DecoderConfig{},
                                       core::SpectrumAnalysisConfig{});
  std::size_t decoded = 0;
  for (const auto& entry : entries)
    if (entry.decoded)
      for (const auto& truth : truthIds)
        if (entry.id == truth) ++decoded;
  EXPECT_GE(decoded, 2u);
}

}  // namespace
}  // namespace caraoke
