// Determinism regression (ctest label `determinism`): the replay
// invariant tools/caraoke_lint.py guards statically — no ambient
// randomness, no wall-clock reads in simulation code — checked
// dynamically. The same seeded two-reader plaza scene, run twice from
// scratch, must emit byte-identical encoded batch streams and leave the
// backend in a byte-identical state; if any component starts drawing
// entropy or time from outside the injected Rng, these tests are the
// tripwire.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/reader_daemon.hpp"
#include "common/rng.hpp"
#include "net/backend.hpp"
#include "net/link.hpp"
#include "phy/cfo.hpp"
#include "scenes_helpers.hpp"
#include "sim/scene.hpp"
#include "sim/transponder.hpp"

namespace caraoke {
namespace {

sim::Scene plazaScene(Rng& rng, std::size_t cars) {
  sim::Scene scene(sim::Road{});
  scene.addReader(testhelpers::makeReader(0.0, -6.0, 60.0));
  scene.addReader(testhelpers::makeReader(8.0, 6.0, 60.0));
  phy::EmpiricalCfoModel cfoModel;
  for (std::size_t i = 0; i < cars; ++i)
    scene.addCar(sim::Transponder::random(cfoModel, rng),
                 std::make_unique<sim::ParkedMobility>(phy::Vec3{
                     -8.0 + 8.0 * static_cast<double>(i), 2.0, 1.2}));
  return scene;
}

struct PlazaRun {
  std::vector<std::uint8_t> stream;  ///< Every uplink frame, in order.
  std::vector<std::uint8_t> state;   ///< Backend::stateBytes() at the end.
  std::size_t decodes = 0;           ///< Ids the backend ingested.
};

// Drive both plaza readers for `untilSec` of simulated time over
// lossless links into one backend.
PlazaRun runPlazaOnce(std::uint64_t seed, double untilSec) {
  Rng rng(seed);
  sim::Scene scene = plazaScene(rng, 3);

  apps::ReaderDaemonConfig config;
  config.queriesPerWindow = 4;
  config.decodeCollisionsPerWindow = 2;
  config.uplinkPeriodSec = 5.0;

  config.readerId = 1;
  apps::ReaderDaemon d1(config, scene, 0, rng.fork());
  config.readerId = 2;
  apps::ReaderDaemon d2(config, scene, 1, rng.fork());
  testhelpers::LinkPair link1;
  testhelpers::LinkPair link2;
  link1.attach(d1);
  link2.attach(d2);
  net::Backend backend;

  PlazaRun run;
  for (double t = 1.0; t <= untilSec; t += 1.0) {
    d1.runUntil(t);
    d2.runUntil(t);
    for (auto* link : {&link1, &link2})
      for (const auto& frame : link->pump(backend, t))
        run.stream.insert(run.stream.end(), frame.begin(), frame.end());
  }
  run.state = backend.stateBytes();
  run.decodes = backend.decodes().size();
  return run;
}

// FNV-1a, 64-bit.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf2'9ce4'8422'2325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x0000'0100'0000'01b3ull;
  }
  return h;
}

TEST(Determinism, SeededPlazaReplaysByteIdentical) {
  const auto first = runPlazaOnce(0xD0D0'CAFE, 30.0);
  const auto second = runPlazaOnce(0xD0D0'CAFE, 30.0);
  ASSERT_FALSE(first.stream.empty());  // the scene really produced reports
  EXPECT_EQ(first.stream, second.stream);  // bit-for-bit, not "same counts"
  EXPECT_EQ(first.state, second.state);
}

// The replay tests above compare two runs of one build; this golden pins
// the plaza's bytes across commits. A change that means to move reader
// or backend output updates these digests and says why in CHANGES.md.
TEST(Determinism, SeededPlazaMatchesGoldenDigests) {
  const auto run = runPlazaOnce(0xD0D0'CAFE, 30.0);
  EXPECT_EQ(run.stream.size(), 12975u);
  EXPECT_EQ(fnv1a(run.stream), 0xdfa6'7eac'1b18'01a5ull);
  EXPECT_EQ(run.state.size(), 19131u);
  EXPECT_EQ(fnv1a(run.state), 0x4ccf'ca80'198b'aeebull);
  EXPECT_EQ(run.decodes, 5u);
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Sanity that the byte comparison has teeth: a different seed draws
  // different CFOs, so the encoded reports cannot collide.
  const auto a = runPlazaOnce(1, 15.0);
  const auto b = runPlazaOnce(2, 15.0);
  ASSERT_FALSE(a.stream.empty());
  EXPECT_NE(a.stream, b.stream);
  EXPECT_NE(a.state, b.state);
}

// Same property through the lossy uplink: link faults (drops, flips,
// latency) come from injected Rngs too, so even the *damaged* delivered
// stream must replay byte-identically.
std::vector<std::uint8_t> runLossyOnce(std::uint64_t seed, double untilSec) {
  Rng rng(seed);
  sim::Scene scene = plazaScene(rng, 2);

  net::LinkConfig lossy;
  lossy.dropProbability = 0.15;
  lossy.bitFlipPerBit = 1e-4;
  lossy.duplicateProbability = 0.05;
  lossy.latencyMeanSec = 0.05;
  lossy.latencyJitterSec = 0.02;
  testhelpers::LinkPair link(lossy, seed + 1);

  apps::ReaderDaemonConfig config;
  config.readerId = 1;
  config.queriesPerWindow = 4;
  config.uplinkPeriodSec = 5.0;
  config.outbox.initialBackoffSec = 2.0;
  config.outbox.maxBackoffSec = 8.0;
  apps::ReaderDaemon daemon(config, scene, 0, rng.fork());
  link.attach(daemon);
  net::Backend backend;

  std::vector<std::uint8_t> delivered;
  for (double t = 1.0; t <= untilSec; t += 1.0) {
    daemon.runUntil(t);
    for (const auto& frame : link.pump(backend, t))
      delivered.insert(delivered.end(), frame.begin(), frame.end());
  }
  return delivered;
}

TEST(Determinism, LossyUplinkReplaysByteIdentical) {
  const auto first = runLossyOnce(77, 40.0);
  const auto second = runLossyOnce(77, 40.0);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace caraoke
