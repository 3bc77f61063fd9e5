// End-to-end smoke tests of the core pipeline on simulated RF: counting,
// channel/AoA estimation, and collision decoding. These validate the
// physics chain before the statistical experiment suites run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/aoa.hpp"
#include "core/counter.hpp"
#include "core/decoder.hpp"
#include "core/measurement_window.hpp"
#include "sim/medium.hpp"
#include "sim/scene.hpp"

namespace caraoke {
namespace {

using dsp::CVec;
using phy::Vec3;

sim::ReaderNode makeReader(double x = 0.0, double y = -6.0,
                           double tiltDeg = 0.0) {
  sim::ReaderNode reader;
  reader.pole.base = {x, y, 0.0};
  reader.pole.heightMeters = feet(12.5);
  reader.tiltRad = deg2rad(tiltDeg);
  return reader;
}

core::ArrayGeometry geometryFor(const sim::ReaderNode& reader) {
  core::ArrayGeometry g;
  g.elements = reader.array().elements();
  g.pairs = sim::TriangleArray::pairs();
  return g;
}

TEST(CoreSmoke, CountsFiveWellSeparatedTransponders) {
  Rng rng(42);
  sim::ReaderNode reader = makeReader();
  const std::vector<double> cfosKHz{150, 350, 550, 750, 1050};
  std::vector<sim::Transponder> devices;
  for (double cfo : cfosKHz)
    devices.emplace_back(phy::Packet::randomId(rng),
                         phy::kCarrierMinHz + cfo * 1e3, rng.fork());
  std::vector<sim::ActiveDevice> active;
  for (std::size_t i = 0; i < devices.size(); ++i)
    active.push_back(
        {&devices[i], Vec3{-10.0 + 5.0 * static_cast<double>(i), 2.0, 1.2}});

  sim::MultipathConfig multipath;
  const sim::Capture capture =
      sim::captureCollision(reader, active, multipath, rng);

  core::TransponderCounter counter;
  const core::CountResult result =
      counter.count(capture.antennaSamples.front());
  // The single-shot §5 counter can misclassify a spike's occupancy by one.
  EXPECT_EQ(result.spikes, 5u);
  EXPECT_GE(result.estimate, 5u);
  EXPECT_LE(result.estimate, 6u);

  // The production multi-query counter resolves it exactly.
  std::vector<CVec> burst;
  for (int q = 0; q < 10; ++q) {
    std::vector<sim::ActiveDevice> again = active;
    burst.push_back(sim::captureCollision(reader, again, multipath, rng)
                        .antennaSamples.front());
  }
  core::MultiQueryCounter multiQuery;
  EXPECT_EQ(multiQuery.count(burst).estimate, 5u);
}

TEST(CoreSmoke, ObservationRecoversCfoAndChannel) {
  Rng rng(43);
  sim::ReaderNode reader = makeReader();
  const double carrier = phy::kCarrierMinHz + 623e3;
  sim::Transponder device(phy::Packet::randomId(rng), carrier, rng.fork());
  device.setDriftModel({0.0});  // freeze for exact comparison
  const Vec3 position{8.0, 3.0, 1.2};

  sim::MultipathConfig multipath;
  multipath.groundReflection = false;
  const sim::Capture capture =
      sim::captureIsolated(reader, device, position, multipath, rng);

  core::SpectrumAnalyzer analyzer;
  const auto observations = analyzer.analyze(capture.antennaSamples);
  ASSERT_EQ(observations.size(), 1u);
  const auto& obs = observations.front();
  EXPECT_NEAR(obs.cfoHz, 623e3, 1000.0);

  // |h| should match the Friis prediction for the LoS ray.
  const auto array = reader.array();
  const double lambda = wavelength(carrier);
  const dsp::cdouble expected = sim::channelTo(
      position, array.elements()[0], multipath, lambda);
  EXPECT_NEAR(std::abs(obs.channels[0]), std::abs(expected),
              0.1 * std::abs(expected));
}

TEST(CoreSmoke, AoaMatchesGroundTruthWithoutCollision) {
  Rng rng(44);
  sim::ReaderNode reader = makeReader(0.0, -6.0, 60.0);
  sim::Transponder device(phy::Packet::randomId(rng),
                          phy::kCarrierMinHz + 400e3, rng.fork());
  const Vec3 position{10.0, 2.0, 1.2};

  sim::MultipathConfig multipath;
  multipath.groundReflection = false;
  const sim::Capture capture =
      sim::captureIsolated(reader, device, position, multipath, rng);

  core::SpectrumAnalyzer analyzer;
  const auto observations = analyzer.analyze(capture.antennaSamples);
  ASSERT_EQ(observations.size(), 1u);

  const core::AoaEstimator estimator(geometryFor(reader));
  const auto aoa = estimator.estimate(observations.front(),
                                      phy::kCarrierMinHz);
  const auto array = reader.array();
  const double truth =
      array.trueAngle(aoa.bestPair, position);
  EXPECT_NEAR(rad2deg(aoa.bestAngleRad), rad2deg(truth), 3.0);
}

TEST(CoreSmoke, AoaSeparatesTwoColliders) {
  Rng rng(45);
  sim::ReaderNode reader = makeReader(0.0, -6.0, 60.0);
  sim::Transponder devA(phy::Packet::randomId(rng),
                        phy::kCarrierMinHz + 300e3, rng.fork());
  sim::Transponder devB(phy::Packet::randomId(rng),
                        phy::kCarrierMinHz + 900e3, rng.fork());
  const Vec3 posA{-12.0, 2.0, 1.2};
  const Vec3 posB{15.0, -1.0, 1.2};
  std::vector<sim::ActiveDevice> active{{&devA, posA}, {&devB, posB}};

  sim::MultipathConfig multipath;
  multipath.groundReflection = false;
  const sim::Capture capture =
      sim::captureCollision(reader, active, multipath, rng);

  core::SpectrumAnalyzer analyzer;
  const auto observations = analyzer.analyze(capture.antennaSamples);
  ASSERT_EQ(observations.size(), 2u);

  const core::AoaEstimator estimator(geometryFor(reader));
  const auto array = reader.array();
  // Observations are sorted by bin; A at 300 kHz comes first.
  const Vec3 positions[2] = {posA, posB};
  for (std::size_t i = 0; i < 2; ++i) {
    const auto aoa =
        estimator.estimate(observations[i], phy::kCarrierMinHz);
    const double truth = array.trueAngle(aoa.bestPair, positions[i]);
    EXPECT_NEAR(rad2deg(aoa.bestAngleRad), rad2deg(truth), 4.0)
        << "collider " << i;
  }
}

TEST(CoreSmoke, DecodesSingleTransponder) {
  Rng rng(46);
  sim::ReaderNode reader = makeReader();
  sim::Transponder device(phy::Packet::randomId(rng),
                          phy::kCarrierMinHz + 500e3, rng.fork());
  const phy::TransponderId truth = device.id();
  const Vec3 position{5.0, 2.0, 1.2};
  sim::MultipathConfig multipath;

  core::CollisionDecoder decoder;
  auto outcome = decoder.decodeTarget(500e3, [&]() {
    return sim::captureIsolated(reader, device, position, multipath, rng)
        .antennaSamples.front();
  });
  ASSERT_TRUE(outcome.ok()) << outcome.error();
  EXPECT_EQ(outcome.value().id, truth);
  EXPECT_LE(outcome.value().collisionsUsed, 3u);
}

TEST(CoreSmoke, DecodesBothCollidersFromSharedCollisions) {
  Rng rng(47);
  sim::ReaderNode reader = makeReader();
  sim::Transponder devA(phy::Packet::randomId(rng),
                        phy::kCarrierMinHz + 250e3, rng.fork());
  sim::Transponder devB(phy::Packet::randomId(rng),
                        phy::kCarrierMinHz + 800e3, rng.fork());
  const Vec3 posA{-6.0, 2.0, 1.2};
  const Vec3 posB{7.0, -1.5, 1.2};
  sim::MultipathConfig multipath;

  std::vector<CVec> collisions;
  for (int q = 0; q < 40; ++q) {
    std::vector<sim::ActiveDevice> active{{&devA, posA}, {&devB, posB}};
    collisions.push_back(
        sim::captureCollision(reader, active, multipath, rng)
            .antennaSamples.front());
  }

  core::DecoderConfig decoderConfig;
  core::SpectrumAnalysisConfig analysisConfig;
  const auto entries =
      core::decodeAll(collisions, decoderConfig, analysisConfig);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries[0].decoded);
  EXPECT_TRUE(entries[1].decoded);
  EXPECT_EQ(entries[0].id, devA.id());
  EXPECT_EQ(entries[1].id, devB.id());
}

TEST(CoreSmoke, MeasurementWindowCountsTracksAndDecodes) {
  Rng rng(48);
  sim::Scene scene(sim::Road{});
  sim::ReaderNode node = makeReader(0.0, -6.0, 60.0);
  scene.addReader(node);

  phy::EmpiricalCfoModel cfoModel;
  std::vector<phy::TransponderId> truth;
  for (int i = 0; i < 4; ++i) {
    sim::Transponder tag = sim::Transponder::random(cfoModel, rng);
    truth.push_back(tag.id());
    scene.addCar(std::move(tag), std::make_unique<sim::ParkedMobility>(
                                     Vec3{-15.0 + 10.0 * i, 2.0, 1.2}));
  }

  core::MultiQueryCounterConfig counter;
  counter.noiseSigma = node.frontEnd.noiseSigma;
  core::MeasurementWindow window(geometryFor(node), node.frontEnd.sampling,
                                 counter);
  std::vector<phy::TransponderId> decoded;
  std::vector<double> decodedCfos;
  for (int w = 0; w < 8; ++w) {
    const double t = static_cast<double>(w);
    core::Burst burst;
    for (int q = 0; q < 8; ++q)
      burst.push_back(scene.query(0, t, rng).antennaSamples);
    const auto count = window.count(burst);
    EXPECT_GE(count.estimate, 3u);  // CFO collisions can merge two
    EXPECT_LE(count.estimate, 5u);
    window.observe(t, burst, count);
    if (const auto attempt = window.decode(burst, 8)) {
      // A track that has its id is never targeted again.
      for (const double cfo : decodedCfos)
        EXPECT_GT(std::abs(attempt->cfoHz - cfo), 4e3);
      if (attempt->id) {
        decoded.push_back(*attempt->id);
        decodedCfos.push_back(attempt->cfoHz);
      }
    }
  }

  // One confirmed track per resolved transponder; the decoded ones are
  // marked identified.
  const auto& tracks = window.tracker().tracks();
  EXPECT_GE(tracks.size(), 3u);
  EXPECT_LE(tracks.size(), 4u);
  std::size_t identified = 0;
  for (const auto& track : tracks) {
    EXPECT_TRUE(track.confirmed(core::TrackerConfig{}.confirmHits));
    if (track.identified) ++identified;
  }
  ASSERT_GE(decoded.size(), 1u);
  EXPECT_EQ(identified, decoded.size());
  for (const auto& id : decoded)
    EXPECT_NE(std::find(truth.begin(), truth.end(), id), truth.end());
}

}  // namespace
}  // namespace caraoke
