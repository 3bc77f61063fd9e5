// Quickstart: the smallest end-to-end Caraoke program.
//
// Builds a street scene with one pole-mounted reader and three parked cars
// carrying unmodified e-toll transponders, fires one measurement window's
// burst of queries, and exercises the three core capabilities on their
// *colliding* responses:
//   1. count the transponders (paper §5),
//   2. observe each one's CFO and angle of arrival (§3, §6),
//   3. decode everyone's id from repeated collisions (§8).
//
// Build & run:  ./build/examples/quickstart
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/measurement_window.hpp"
#include "dsp/spectrum.hpp"
#include "sim/scene.hpp"

using namespace caraoke;

int main() {
  Rng rng(1);

  // --- the world -----------------------------------------------------
  sim::Scene scene{sim::Road{}};

  sim::ReaderNode pole;
  pole.pole.base = {0.0, -6.0, 0.0};       // curbside street lamp
  pole.pole.heightMeters = feet(12.5);
  pole.tiltRad = deg2rad(60.0);            // the paper's tilted triangle
  const std::size_t readerIdx = scene.addReader(pole);

  phy::EmpiricalCfoModel cfoModel;         // the 155-transponder statistics
  for (int i = 0; i < 3; ++i) {
    scene.addCar(sim::Transponder::random(cfoModel, rng),
                 std::make_unique<sim::ParkedMobility>(
                     phy::Vec3{-12.0 + 10.0 * i, 2.0, 1.2}));
  }

  // --- the reader ------------------------------------------------------
  core::ArrayGeometry array;
  array.elements = pole.array().elements();
  array.pairs = sim::TriangleArray::pairs();
  core::MeasurementWindow window(array, pole.frontEnd.sampling);

  // One measurement window: fire a burst of queries; all three tags
  // answer every one, so every capture is a collision.
  core::Burst burst;
  for (int q = 0; q < 10; ++q)
    burst.push_back(scene.query(readerIdx, 0.0, rng).antennaSamples);

  // 1. COUNT: estimate how many tags answered.
  const auto count = window.count(burst);
  std::printf("counted %zu transponders in the collision "
              "(ground truth: %zu)\n",
              count.estimate, scene.trueCount(readerIdx, 0.0));

  // 2. OBSERVE: each counted spike's CFO and burst-averaged angle of
  // arrival on the road-parallel antenna pair open one track per tag.
  window.observe(0.0, burst, count);
  for (const auto& track : window.tracker().tracks())
    std::printf("  spike @ %7.1f kHz  AoA %5.1f deg (pair %zu)\n",
                track.cfoHz / 1e3,
                rad2deg(std::acos(std::clamp(track.cosAlpha, -1.0, 1.0))),
                window.roadPair());

  // 3. DECODE: accumulate more collisions and read out every id.
  std::vector<dsp::CVec> collisions;
  for (const auto& antennas : burst) collisions.push_back(antennas.front());
  for (int q = 0; q < 30; ++q)
    collisions.push_back(
        scene.query(readerIdx, 0.0, rng).antennaSamples.front());
  const auto mapper = dsp::BinMapper(2048, 4e6);
  for (const auto& entry : core::decodeAll(collisions, core::DecoderConfig{},
                                          core::SpectrumAnalysisConfig{})) {
    bool counted = false;
    for (std::size_t bin : count.bins)
      if (std::abs(entry.cfoHz - static_cast<double>(bin) *
                                     mapper.binWidthHz()) < 5e3)
        counted = true;
    if (!counted) continue;
    if (entry.decoded)
      std::printf("  decoded id: agency %08x factory %016llx "
                  "(after %zu collisions = %.1f ms)\n",
                  entry.id.agencyId,
                  static_cast<unsigned long long>(entry.id.factoryId),
                  entry.collisionsUsed,
                  static_cast<double>(entry.collisionsUsed));
    else
      std::printf("  spike @ %.1f kHz: not decoded within budget\n",
                  entry.cfoHz / 1e3);
  }
  return 0;
}
