// Tests for the power/energy model (§12.5) and the networking layer
// (clock sync, message serialization, backend fusion).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/backend.hpp"
#include "net/clock.hpp"
#include "net/framing.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "power/model.hpp"

namespace caraoke {
namespace {

TEST(Power, AveragePowerMatchesPaper) {
  // 900 mW at 1% duty + 69 uW sleep ~ 9.07 mW (paper: "9 mW").
  const power::PowerProfile profile;
  const power::DutyCycle duty;
  const double avg = power::averagePowerWatts(profile, duty);
  EXPECT_NEAR(avg, 9.07e-3, 0.1e-3);
  // Harvest margin ~ 500 mW / 9 mW ~ 55x (paper: "56x lower").
  EXPECT_NEAR(0.5 / avg, 55.0, 2.0);
}

TEST(Power, SolarProfileShape) {
  power::SolarPanel panel;
  EXPECT_DOUBLE_EQ(panel.outputWatts(0.0), 0.0);   // night
  EXPECT_DOUBLE_EQ(panel.outputWatts(23.0), 0.0);
  EXPECT_NEAR(panel.outputWatts(12.0), panel.peakWatts, 1e-9);  // noon
  EXPECT_GT(panel.outputWatts(9.0), 0.0);
  panel.weather = 0.5;
  EXPECT_NEAR(panel.outputWatts(12.0), 0.5 * panel.peakWatts, 1e-9);
}

TEST(Power, BatteryClampsAndReportsBrownout) {
  power::Battery battery;
  battery.capacityJoules = 100.0;
  battery.chargeJoules = 10.0;
  EXPECT_TRUE(battery.apply(1.0, 50.0));           // charge
  EXPECT_DOUBLE_EQ(battery.chargeJoules, 60.0);
  EXPECT_TRUE(battery.apply(100.0, 10.0));         // clamp at capacity
  EXPECT_DOUBLE_EQ(battery.chargeJoules, 100.0);
  EXPECT_FALSE(battery.apply(-10.0, 20.0));        // drains past empty
  EXPECT_DOUBLE_EQ(battery.chargeJoules, 0.0);
}

TEST(Power, SunHoursForAWeekIsAFewHours) {
  const power::PowerProfile profile;
  const power::DutyCycle duty;
  const power::SolarPanel panel;
  const double hours = power::sunHoursForRuntime(profile, duty, panel,
                                                 7.0 * 24 * 3600.0);
  // Paper: "energy harvested from solar during 3 hours ... run the device
  // for a week".
  EXPECT_GT(hours, 1.5);
  EXPECT_LT(hours, 5.0);
}

TEST(Power, SurvivesOvercastStretchOnBattery) {
  const power::PowerProfile profile;
  const power::DutyCycle duty;
  const power::SolarPanel panel;
  power::Battery battery;
  battery.chargeJoules = battery.capacityJoules;  // fully charged
  const std::vector<double> weather{0, 0, 0, 0, 0, 0, 0};  // a dark week
  const auto days = power::simulateOperation(profile, duty, panel, battery,
                                             7, weather, true);
  for (const auto& day : days) EXPECT_FALSE(day.brownout);
  EXPECT_GT(days.back().endSoc, 0.0);
}

TEST(Power, ContinuousActiveModeIsNotSustainable) {
  // Paper: "Caraoke reader would not be able to run continuously in the
  // active mode" on 500 mW of solar.
  const power::PowerProfile profile;
  power::DutyCycle alwaysOn;
  alwaysOn.activeSecPerCycle = 1.0;
  alwaysOn.cyclePeriodSec = 1.0;
  const power::SolarPanel panel;
  EXPECT_GT(power::averagePowerWatts(profile, alwaysOn), panel.peakWatts);
}

TEST(Clock, DriftAndSync) {
  Rng rng(1);
  net::ReaderClock clock(0.5, 100.0);  // 0.5 s off, 100 ppm fast
  EXPECT_NEAR(clock.localTime(1000.0), 1000.6, 1e-9);
  clock.ntpSync(1000.0, 0.0, rng);  // perfect sync
  EXPECT_NEAR(clock.localTime(1000.0), 1000.0, 1e-9);
}

TEST(Clock, NtpResidualHasRequestedScale) {
  Rng rng(2);
  double sumSq = 0.0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    net::ReaderClock clock;
    clock.ntpSync(0.0, 0.02, rng);
    sumSq += clock.offsetSec() * clock.offsetSec();
  }
  EXPECT_NEAR(std::sqrt(sumSq / trials), 0.02, 0.002);
}

TEST(Message, RoundTripAllTypes) {
  Rng rng(3);
  const net::CountReport count{7, 123.456, 42};
  const net::SightingReport sighting{3, 99.5, 731e3, 2, 1.234, 0.77};
  net::DecodeReport decode;
  decode.readerId = 9;
  decode.timestamp = 55.5;
  decode.cfoHz = 431e3;
  decode.id = phy::Packet::randomId(rng);

  for (const net::Message& m :
       {net::Message{count}, net::Message{sighting}, net::Message{decode}}) {
    const auto bytes = net::encodeMessage(m);
    const auto back = net::decodeMessage(bytes);
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_EQ(back.value().index(), m.index());
  }
  const auto decoded = net::decodeMessage(net::encodeMessage(decode));
  ASSERT_TRUE(decoded.ok());
  const auto& d = std::get<net::DecodeReport>(decoded.value());
  EXPECT_EQ(d.id, decode.id);
  EXPECT_DOUBLE_EQ(d.cfoHz, decode.cfoHz);
}

TEST(Message, RejectsTruncatedAndUnknown) {
  const net::CountReport count{1, 2.0, 3};
  auto bytes = net::encodeMessage(net::Message{count});
  bytes.pop_back();
  EXPECT_FALSE(net::decodeMessage(bytes).ok());
  EXPECT_FALSE(net::decodeMessage(std::vector<std::uint8_t>{0x77}).ok());
  EXPECT_FALSE(net::decodeMessage({}).ok());
}

TEST(Message, RejectsTrailingGarbage) {
  const net::CountReport count{1, 2.0, 3};
  auto bytes = net::encodeMessage(net::Message{count});
  bytes.push_back(0xAB);
  EXPECT_FALSE(net::decodeMessage(bytes).ok());
}

core::ArrayGeometry pairAt(double x, double y, double z) {
  core::ArrayGeometry g;
  g.elements = {phy::Vec3{x - 0.08, y, z}, phy::Vec3{x + 0.08, y, z}};
  g.pairs = {{0, 1}};
  return g;
}

// Uplink one sighting as its reader's next batch.
void uplink(net::Backend& backend, const net::SightingReport& sighting) {
  const std::uint32_t seq = backend.highestSeq(sighting.readerId) + 1;
  ASSERT_TRUE(backend
                  .ingestBatch(net::encodeBatchV3({sighting.readerId, seq},
                                                  {net::Message{sighting}}))
                  .ok());
}

TEST(Backend, FusesTwoReaderSightings) {
  net::BackendConfig config;
  config.road.zHeight = 1.2;
  config.road.halfWidth = 6.0;
  net::Backend backend(config);
  backend.registerReader(1, pairAt(0.0, -6.0, 3.8));
  backend.registerReader(2, pairAt(30.0, 6.0, 3.8));

  // Ground-truth car; compute the true angles each reader would report.
  const phy::Vec3 car{14.0, 1.0, 1.2};
  auto angleFor = [&](const core::ArrayGeometry& g) {
    const phy::Vec3 apex = g.center();
    return std::acos(phy::dot(phy::direction(apex, car),
                              g.baselineDirection(0)));
  };
  net::SightingReport a{1, 10.0, 500e3, 0, angleFor(pairAt(0, -6, 3.8)),
                        1.0};
  net::SightingReport b{2, 10.1, 500.8e3, 0,
                        angleFor(pairAt(30, 6, 3.8)), 1.0};
  uplink(backend, a);
  uplink(backend, b);
  const auto fixes = backend.fuse(10.2);
  ASSERT_EQ(fixes.size(), 1u);
  EXPECT_NEAR(fixes[0].position.x, car.x, 0.3);
  EXPECT_NEAR(fixes[0].position.y, car.y, 0.3);
  EXPECT_EQ(backend.pendingSightings(), 0u);
}

TEST(Backend, DoesNotFuseDifferentCfos) {
  net::Backend backend;
  backend.registerReader(1, pairAt(0.0, -6.0, 3.8));
  backend.registerReader(2, pairAt(30.0, 6.0, 3.8));
  uplink(backend, {1, 1.0, 200e3, 0, 1.2, 1.0});
  uplink(backend, {2, 1.0, 900e3, 0, 1.4, 1.0});
  EXPECT_TRUE(backend.fuse(1.1).empty());
  EXPECT_EQ(backend.pendingSightings(), 2u);
}

TEST(Backend, ExpiresStaleSightings) {
  net::Backend backend;
  backend.registerReader(1, pairAt(0.0, -6.0, 3.8));
  uplink(backend, {1, 1.0, 200e3, 0, 1.2, 1.0});
  backend.fuse(100.0);
  EXPECT_EQ(backend.pendingSightings(), 0u);
}

TEST(Backend, FuseDropsSightingWithOutOfRangePairIndex) {
  // Regression: a CRC-valid sighting naming a baseline its reader does
  // not have made every later fuse() throw std::out_of_range, and it
  // never expired because expiry runs after the throw.
  net::BackendConfig config;
  config.road.zHeight = 1.2;
  config.road.halfWidth = 6.0;
  net::Backend backend(config);
  backend.registerReader(1, pairAt(0.0, -6.0, 3.8));  // one baseline: 0
  backend.registerReader(2, pairAt(30.0, 6.0, 3.8));
  obs::Counter& rejected =
      obs::globalRegistry().counter("net.backend.rejected.pair_index");
  const std::uint64_t rejectedBefore = rejected.value();

  uplink(backend, {1, 10.0, 500e3, 7, 1.2, 1.0});
  uplink(backend, {2, 10.1, 500.8e3, 0, 1.4, 1.0});
  std::vector<net::FusedFix> fixes;
  ASSERT_NO_THROW(fixes = backend.fuse(10.2));
  EXPECT_TRUE(fixes.empty());
  EXPECT_EQ(rejected.value(), rejectedBefore + 1);
  EXPECT_EQ(backend.pendingSightings(), 1u);  // the valid one waits

  // Fusion is not stalled: the next call expires the survivor normally.
  ASSERT_NO_THROW(backend.fuse(100.0));
  EXPECT_EQ(backend.pendingSightings(), 0u);
}

TEST(Backend, DropsNonFiniteReportsAtIntake) {
  // Regression: a sighting with a NaN timestamp was accepted, and NaN
  // defeats every tolerance comparison and the expiry test downstream.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const net::SightingReport sighting{1, 1.0, 600e3, 0, 0.5, 2.0};
  net::DecodeReport decode;
  decode.readerId = 1;
  decode.timestamp = 1.0;
  decode.cfoHz = 600e3;

  // Every double field of every report type is checked.
  for (const double bad : {nan, inf, -inf}) {
    std::vector<net::Message> poisoned;
    poisoned.push_back(net::CountReport{1, bad, 3});
    for (double net::SightingReport::*field :
         {&net::SightingReport::timestamp, &net::SightingReport::cfoHz,
          &net::SightingReport::angleRad,
          &net::SightingReport::peakMagnitude}) {
      net::SightingReport s = sighting;
      s.*field = bad;
      poisoned.push_back(s);
    }
    for (double net::DecodeReport::*field :
         {&net::DecodeReport::timestamp, &net::DecodeReport::cfoHz}) {
      net::DecodeReport d = decode;
      d.*field = bad;
      poisoned.push_back(d);
    }
    for (const net::Message& m : poisoned)
      EXPECT_FALSE(net::decodeMessage(net::encodeMessage(m)).ok());
  }

  // At the backend: salvage drops and counts the poisoned message, its
  // sibling survives, and WAL replay drops it the same way.
  std::string dir = ::testing::TempDir() + "nonfinite_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  net::BackendConfig config;
  config.durability.dir = dir;
  net::Backend backend(config);
  ASSERT_TRUE(backend.restore().ok());
  obs::Counter& drops =
      obs::globalRegistry().counter("net.backend.salvaged_message_drops");
  const std::uint64_t dropsBefore = drops.value();
  net::SightingReport poisoned = sighting;
  poisoned.timestamp = nan;
  const auto result = backend.ingestBatch(net::encodeBatchV3(
      {1, 1}, {net::Message{poisoned}, net::Message{sighting}}));
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(result.value().accepted, 1u);
  EXPECT_EQ(result.value().droppedMessages, 1u);
  EXPECT_EQ(drops.value(), dropsBefore + 1);
  ASSERT_EQ(backend.pendingSightings(), 1u);
  EXPECT_EQ(backend.sightings()[0].timestamp, 1.0);

  net::Backend restarted(config);
  ASSERT_TRUE(restarted.restore().ok());
  EXPECT_EQ(drops.value(), dropsBefore + 2);
  EXPECT_EQ(restarted.stateBytes(), backend.stateBytes());
}

}  // namespace
}  // namespace caraoke
