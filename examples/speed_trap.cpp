// Speed enforcement demo (paper §1/§7): two street-lamp readers 200 feet
// apart time a car's passage and — unlike a traffic radar — attribute the
// measured speed to a specific, decoded transponder id. No police officer
// required.
#include <cstdio>

#include "apps/speed_enforcement.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/aoa.hpp"
#include "core/decoder.hpp"
#include "core/spectrum_analysis.hpp"
#include "net/clock.hpp"
#include "sim/medium.hpp"

using namespace caraoke;

namespace {

sim::ReaderNode makePole(double x) {
  sim::ReaderNode reader;
  reader.pole.base = {x, -6.0, 0.0};
  reader.pole.heightMeters = feet(12.5);
  return reader;
}

// Track a drive-by at one pole, reporting cos(alpha) samples in the
// reader's (NTP-synced) local time.
void trackPassage(sim::ReaderNode& reader, sim::Transponder& car,
                  double speedMps, const net::ReaderClock& clock,
                  apps::SpeedEnforcer& enforcer, bool poleA, Rng& rng) {
  sim::MultipathConfig multipath;
  core::SpectrumAnalyzer analyzer;
  core::ArrayGeometry geometry;
  geometry.elements = reader.array().elements();
  geometry.pairs = sim::TriangleArray::pairs();
  const core::AoaEstimator estimator(geometry);
  const std::size_t roadPair = geometry.roadPair();

  const double targetCfo =
      car.carrierHz() - reader.frontEnd.sampling.loFrequencyHz;
  const double poleX = reader.pole.base.x;
  for (double x = poleX - 14.0; x <= poleX + 14.0; x += speedMps * 0.05) {
    const double t = x / speedMps;
    std::vector<sim::ActiveDevice> active{{&car, {x, 1.8, 1.2}}};
    const auto capture =
        sim::captureCollision(reader, active, multipath, rng);
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
        wavelength(reader.frontEnd.sampling.loFrequencyHz + best->cfoHz));
    enforcer.addSample(poleA, {clock.localTime(t), std::cos(pa.angleRad)});
  }
}

}  // namespace

int main() {
  Rng rng(99);
  const double poleSpacing = feet(200.0);
  sim::ReaderNode poleA = makePole(0.0);
  sim::ReaderNode poleB = makePole(poleSpacing);

  apps::SpeedEnforcerConfig config;
  config.poleAX = 0.0;
  config.poleBX = poleSpacing;
  config.limitMps = mph(35.0);  // residential limit

  phy::EmpiricalCfoModel cfoModel;
  for (double actualMph : {28.0, 47.0}) {
    sim::Transponder car = sim::Transponder::random(cfoModel, rng);
    apps::SpeedEnforcer enforcer(config);

    // Readers sync over NTP (tens of ms residual, §7).
    net::ReaderClock clockA, clockB;
    clockA.ntpSync(0.0, net::kNtpResidualRmsSec, rng);
    clockB.ntpSync(0.0, net::kNtpResidualRmsSec, rng);

    const double v = mph(actualMph);
    trackPassage(poleA, car, v, clockA, enforcer, true, rng);
    trackPassage(poleB, car, v, clockB, enforcer, false, rng);

    // Decode the id so a ticket is attributable (the radar problem, §4).
    sim::MultipathConfig multipath;
    core::CollisionDecoder decoder;
    const auto outcome = decoder.decodeTarget(
        car.carrierHz() - poleB.frontEnd.sampling.loFrequencyHz, [&]() {
          std::vector<sim::ActiveDevice> active{
              {&car, {poleSpacing + 5.0, 1.8, 1.2}}};
          return sim::captureCollision(poleB, active, multipath, rng)
              .antennaSamples.front();
        });
    if (outcome.ok()) enforcer.setVehicle(outcome.value().id);

    const auto speed = enforcer.estimatedSpeed();
    if (!speed) {
      std::printf("car at %.0f mph: passage not captured\n", actualMph);
      continue;
    }
    std::printf("car driving %.0f mph: measured %.1f mph", actualMph,
                toMph(*speed));
    if (const auto ticket = enforcer.evaluate()) {
      std::printf("  -> TICKET (limit %.0f mph) issued to account %llx\n",
                  toMph(ticket->limitMps),
                  static_cast<unsigned long long>(
                      ticket->vehicle ? ticket->vehicle->programmable : 0));
    } else {
      std::printf("  -> within the limit, no action\n");
    }
  }
  return 0;
}
