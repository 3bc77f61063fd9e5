// Open-road tolling demo — the transponders' original job, done without
// lane barriers or directional antennas (paper §1): a single gantry
// reader runs a measurement window every 100 ms (count, then track by
// CFO, which detects the crossing), decodes the crosser's id from
// collisions, and posts charges.
#include <cmath>
#include <cstdio>

#include "apps/tolling.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/measurement_window.hpp"
#include "sim/medium.hpp"

using namespace caraoke;

int main() {
  Rng rng(55);
  sim::ReaderNode gantry;
  gantry.pole.base = {0.0, -6.0, 0.0};
  gantry.pole.heightMeters = feet(18.0);  // gantry height

  phy::EmpiricalCfoModel cfoModel;
  sim::MultipathConfig multipath;
  core::ArrayGeometry geometry;
  geometry.elements = gantry.array().elements();
  geometry.pairs = sim::TriangleArray::pairs();
  core::MultiQueryCounterConfig counter;
  counter.noiseSigma = gantry.frontEnd.noiseSigma;
  core::MeasurementWindow window(geometry, gantry.frontEnd.sampling, counter);
  apps::TollPlaza plaza({1.75, 10.0});

  // Three cars pass the gantry at different times and speeds; their
  // responses collide whenever more than one is in range.
  struct PassingCar {
    sim::Transponder tag;
    double crossTime;
    double speedMps;
  };
  std::vector<PassingCar> cars;
  cars.push_back({sim::Transponder::random(cfoModel, rng), 4.0, mph(25)});
  cars.push_back({sim::Transponder::random(cfoModel, rng), 5.2, mph(40)});
  cars.push_back({sim::Transponder::random(cfoModel, rng), 9.0, mph(30)});

  std::printf("gantry live; three tagged cars incoming...\n");
  for (double t = 0.0; t < 14.0; t += 0.1) {
    // Who is in range right now?
    std::vector<sim::ActiveDevice> active;
    std::vector<phy::Vec3> positions;
    for (auto& car : cars) {
      const double x = car.speedMps * (t - car.crossTime);
      if (std::abs(x) > 30.0) continue;
      positions.push_back({x, 1.8, 1.2});
      active.push_back({&car.tag, positions.back()});
    }
    // One measurement window: a burst of queries, every response
    // colliding with the others.
    core::Burst burst;
    for (int q = 0; q < 4; ++q)
      burst.push_back(
          sim::captureCollision(gantry, active, multipath, rng).antennaSamples);
    const auto count = window.count(burst);
    for (const auto& event : window.observe(t, burst, count)) {
      // Crossing detected: decode the crosser from fresh collisions.
      core::CollisionDecoder decoder;
      const auto outcome = decoder.decodeTarget(event.cfoHz, [&]() {
        std::vector<sim::ActiveDevice> again = active;
        return sim::captureCollision(gantry, again, multipath, rng)
            .antennaSamples.front();
      });
      if (!outcome.ok()) {
        std::printf("  t=%5.1f s: crossing at CFO %.0f kHz, decode failed\n",
                    event.crossingTime, event.cfoHz / 1e3);
        continue;
      }
      if (const auto charge =
              plaza.onCrossing(event, outcome.value().id)) {
        std::printf("  t=%5.1f s: charged $%.2f to account %llx "
                    "(decode took %.1f ms in collision)\n",
                    charge->time, charge->amount,
                    static_cast<unsigned long long>(
                        charge->vehicle.programmable),
                    outcome.value().elapsedMs);
      }
    }
  }
  std::printf("plaza revenue: $%.2f from %zu crossings\n", plaza.revenue(),
              plaza.ledger().size());
  return plaza.ledger().size() == 3 ? 0 : 1;
}
