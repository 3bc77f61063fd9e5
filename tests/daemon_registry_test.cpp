// Tests for the reader firmware loop (ReaderDaemon), the CFO fingerprint
// registry, the closed-form hyperbola localizer, and chase decoding.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "apps/cfo_registry.hpp"
#include "apps/reader_daemon.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/localizer.hpp"
#include "net/backend.hpp"
#include "scenes_helpers.hpp"
#include "sim/scene.hpp"

namespace caraoke {
namespace {

sim::Scene parkedScene(Rng& rng, std::size_t cars,
                       std::vector<phy::TransponderId>* ids = nullptr) {
  sim::Scene scene(sim::Road{});
  scene.addReader(testhelpers::makeReader(0.0, -6.0, 60.0));
  phy::EmpiricalCfoModel cfoModel;
  for (std::size_t i = 0; i < cars; ++i) {
    sim::Transponder tag = sim::Transponder::random(cfoModel, rng);
    if (ids != nullptr) ids->push_back(tag.id());
    scene.addCar(std::move(tag),
                 std::make_unique<sim::ParkedMobility>(phy::Vec3{
                     -12.0 + 8.0 * static_cast<double>(i), 2.0, 1.2}));
  }
  return scene;
}

TEST(ReaderDaemon, ProducesCountsSightingsAndDecodes) {
  Rng rng(1);
  std::vector<phy::TransponderId> truth;
  sim::Scene scene = parkedScene(rng, 3, &truth);

  apps::ReaderDaemonConfig config;
  config.uplinkPeriodSec = 10.0;
  apps::ReaderDaemon daemon(config, scene, 0, rng.fork());
  testhelpers::LinkPair link;
  link.attach(daemon);
  net::Backend backend;
  for (double t = 1.0; t <= 30.0; t += 1.0) {
    daemon.runUntil(t);
    link.pump(backend, t);
  }

  EXPECT_GE(daemon.stats().measurements, 30u);
  EXPECT_EQ(daemon.stats().queriesSent,
            daemon.stats().measurements * config.queriesPerWindow);
  EXPECT_GE(daemon.stats().decodedIds, 2u);  // one new id per window max
  EXPECT_GE(daemon.stats().uplinkFlushes, 2u);

  // The uplink batches reached the backend and carry correct counts.
  ASSERT_FALSE(backend.counts().empty());
  double meanCount = 0;
  for (const auto& c : backend.counts()) meanCount += c.count;
  meanCount /= static_cast<double>(backend.counts().size());
  EXPECT_NEAR(meanCount, 3.0, 0.5);

  // Decoded ids match the parked cars.
  ASSERT_FALSE(backend.decodes().empty());
  for (const auto& d : backend.decodes()) {
    bool known = false;
    for (const auto& t : truth)
      if (d.id == t) known = true;
    EXPECT_TRUE(known);
  }
}

TEST(ReaderDaemon, EnergyTracksDutyCycleModel) {
  Rng rng(2);
  sim::Scene scene = parkedScene(rng, 2);
  apps::ReaderDaemonConfig config;
  config.uplinkPeriodSec = 15.0;
  apps::ReaderDaemon daemon(config, scene, 0, rng.fork());
  daemon.runUntil(60.0);

  // Average power should be within the duty-cycled regime: well below
  // always-active (900 mW), at least the sleep floor.
  const double avg = daemon.stats().averagePowerWatts(60.0);
  EXPECT_LT(avg, 0.05);      // far from always-on
  EXPECT_GT(avg, 69e-6);     // above pure sleep
}

TEST(ReaderDaemon, TracksConfirmAndPersist) {
  Rng rng(3);
  sim::Scene scene = parkedScene(rng, 2);
  apps::ReaderDaemonConfig config;
  apps::ReaderDaemon daemon(config, scene, 0, rng.fork());
  daemon.runUntil(10.0);
  std::size_t confirmed = 0;
  for (const auto& track : daemon.tracker().tracks())
    if (track.confirmed(config.tracker.confirmHits)) ++confirmed;
  EXPECT_EQ(confirmed, 2u);
}

TEST(CfoRegistry, EnrollMatchAndDrift) {
  apps::CfoRegistry registry;
  Rng rng(4);
  const auto vehicle = phy::Packet::randomId(rng);
  registry.enroll(vehicle, 500e3, 0.0);

  // Matches within the gate, follows drift.
  double cfo = 500e3;
  for (int k = 1; k <= 20; ++k) {
    cfo += 150.0;
    const auto match = registry.match(cfo, k * 1.0);
    ASSERT_TRUE(match.has_value()) << k;
    EXPECT_TRUE(match->unambiguous);
    EXPECT_EQ(match->signature->vehicle, vehicle);
  }
  EXPECT_NEAR(registry.signatures()[0].cfoHz, cfo, 1e3);
  EXPECT_FALSE(registry.match(900e3, 25.0).has_value());
}

TEST(CfoRegistry, AmbiguityDetected) {
  apps::CfoRegistry registry;
  Rng rng(5);
  registry.enroll(phy::Packet::randomId(rng), 400e3, 0.0);
  registry.enroll(phy::Packet::randomId(rng), 404e3, 0.0);  // 4 kHz apart

  const auto match = registry.match(401e3, 1.0);
  ASSERT_TRUE(match.has_value());
  EXPECT_FALSE(match->unambiguous);  // runner-up within the margin
  EXPECT_GT(registry.ambiguousPairFraction(), 0.99);
}

TEST(CfoRegistry, ReEnrollUpdatesInsteadOfDuplicating) {
  apps::CfoRegistry registry;
  Rng rng(6);
  const auto vehicle = phy::Packet::randomId(rng);
  registry.enroll(vehicle, 300e3, 0.0);
  registry.enroll(vehicle, 310e3, 5.0);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_NEAR(registry.signatures()[0].cfoHz, 310e3, 1.0);
}

TEST(LocalizerHyperbola, MatchesNewtonSolver) {
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const phy::Vec3 car{rng.uniform(5.0, 30.0), rng.uniform(-4.0, 4.0),
                        1.2};
    core::ConeConstraint a, b;
    a.apex = {0.0, -6.0, 3.8};
    a.axis = {1, 0, 0};
    a.angleRad = std::acos(phy::dot(phy::direction(a.apex, car), a.axis));
    b.apex = {rng.uniform(20.0, 40.0), 6.0, 3.8};
    b.axis = {1, 0, 0};
    b.angleRad = std::acos(phy::dot(phy::direction(b.apex, car), b.axis));

    core::RoadPlane road;
    road.zHeight = 1.2;
    road.halfWidth = 5.0;
    // Two hyperbolas can legitimately intersect twice on a wide road
    // (footnote 10's "only one on the road" holds for narrow ones), so
    // the contract is: the candidate set contains the true position.
    const auto candidates = core::hyperbolaCandidates(a, b, road);
    ASSERT_FALSE(candidates.empty()) << trial;
    double bestGap = 1e9;
    for (const auto& c : candidates)
      bestGap = std::min(bestGap,
                         std::hypot(c.position.x - car.x,
                                    c.position.y - car.y));
    EXPECT_LT(bestGap, 0.1) << trial;

    // Every candidate satisfies both cone constraints (it is a true
    // intersection, not a numerical artifact).
    for (const auto& c : candidates) {
      EXPECT_NEAR(a.residual(c.position), 0.0, 1e-3) << trial;
      EXPECT_NEAR(b.residual(c.position), 0.0, 1e-3) << trial;
    }

    // The Newton solver's pick is one of the closed-form candidates.
    const auto newton = core::localizeTwoReaders(a, b, road);
    ASSERT_TRUE(newton.ok()) << trial;
    double newtonGap = 1e9;
    for (const auto& c : candidates)
      newtonGap = std::min(
          newtonGap, std::hypot(c.position.x - newton.value().position.x,
                                c.position.y - newton.value().position.y));
    EXPECT_LT(newtonGap, 0.3) << trial;
  }
}

TEST(LocalizerHyperbola, RejectsUnsupportedGeometry) {
  core::ConeConstraint a, b;
  a.apex = {0, -6, 3.8};
  a.axis = {0.8, 0.0, -0.6};  // tilted baseline
  a.angleRad = 1.0;
  b.apex = {30, 6, 3.8};
  b.axis = {1, 0, 0};
  b.angleRad = 1.2;
  core::RoadPlane road;
  EXPECT_FALSE(core::localizeTwoReadersHyperbola(a, b, road).ok());

  b.apex.y = a.apex.y;  // same side
  a.axis = {1, 0, 0};
  EXPECT_FALSE(core::localizeTwoReadersHyperbola(a, b, road).ok());
}

TEST(ChaseDecoding, RecoversFromInjectedBitErrors) {
  // Hand the decoder an almost-clean combined waveform with two weak,
  // wrong bits: chase must fix them without more collisions.
  Rng rng(8);
  const phy::SamplingParams sampling;
  const phy::TransponderId id = phy::Packet::randomId(rng);
  const phy::BitVec bits = phy::Packet::encode(id);
  dsp::CVec wave = phy::modulateResponse(bits, sampling, 0.0, 0.0);
  // Corrupt two 1-bits into barely-wrong decisions: nearly equal halves
  // leaning the wrong way, so the hard decision flips while the margin
  // is the lowest in the packet — exactly what chase targets.
  const std::size_t spb = sampling.samplesPerBit();
  std::vector<std::size_t> badBits;
  for (std::size_t i = 30; i < bits.size() && badBits.size() < 2; ++i)
    if (bits[i] == 1 && (badBits.empty() || i > badBits[0] + 100))
      badBits.push_back(i);
  ASSERT_EQ(badBits.size(), 2u);
  for (std::size_t bad : badBits) {
    for (std::size_t k = 0; k < spb; ++k) {
      const std::size_t idx = bad * spb + k;
      wave[idx] = dsp::cdouble(k < spb / 2 ? 0.48 : 0.52, 0.0);
    }
  }
  core::DecoderConfig config;
  config.chaseBits = 6;
  core::CollisionDecoder decoder(config);
  decoder.reset(0.0);
  const auto outcome = decoder.addCollision(wave);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, id);
}

}  // namespace
}  // namespace caraoke
