// "Where did I park?" demo (paper §4): readers continuously decode and
// localize parked transponders and report fixes to the city backend; a
// driver who forgot where they parked queries by their toll account.
#include <cstdio>

#include "apps/car_finder.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/aoa.hpp"
#include "core/decoder.hpp"
#include "core/localizer.hpp"
#include "core/spectrum_analysis.hpp"
#include "net/backend.hpp"
#include "net/outbox.hpp"
#include "sim/medium.hpp"

using namespace caraoke;

namespace {

sim::ReaderNode makePole(double x, double y) {
  sim::ReaderNode reader;
  reader.pole.base = {x, y, 0.0};
  reader.pole.heightMeters = feet(12.5);
  return reader;
}

core::ArrayGeometry geometryFor(const sim::ReaderNode& reader) {
  core::ArrayGeometry g;
  g.elements = reader.array().elements();
  g.pairs = sim::TriangleArray::pairs();
  return g;
}

}  // namespace

int main() {
  Rng rng(31);
  phy::EmpiricalCfoModel cfoModel;
  sim::MultipathConfig multipath;

  // Two readers on opposite sides of the street (two-cone position fix).
  sim::ReaderNode poleA = makePole(0.0, -6.0);
  sim::ReaderNode poleB = makePole(28.0, 6.0);

  net::BackendConfig backendConfig;
  backendConfig.road.zHeight = 1.2;
  backendConfig.road.halfWidth = 6.5;
  // City GIS prior: two hyperbolas can intersect the road twice; parked
  // cars sit in the known curb rows, which disambiguates (footnote 10).
  backendConfig.preferredRowsY = {-4.7, 4.7};
  net::Backend backend(backendConfig);
  backend.registerReader(1, geometryFor(poleA));
  backend.registerReader(2, geometryFor(poleB));

  // Three parked cars; we'll later look for the second one.
  std::vector<sim::Transponder> cars;
  std::vector<phy::Vec3> positions{{5.0, -4.7, 1.2},
                                   {14.0, 4.7, 1.2},
                                   {23.0, -4.7, 1.2}};
  for (int i = 0; i < 3; ++i)
    cars.push_back(sim::Transponder::random(cfoModel, rng));
  const std::uint64_t myAccount = cars[1].id().programmable;

  // Each reader measures every car: burst AoA -> sighting report; decode
  // -> decode report. All over the wire protocol, batched per pole.
  core::SpectrumAnalyzer analyzer;
  apps::CarFinder finder;
  for (std::uint32_t readerId : {1u, 2u}) {
    sim::ReaderNode& reader = readerId == 1 ? poleA : poleB;
    net::OutboxConfig outboxConfig;
    outboxConfig.readerId = readerId;
    net::Outbox outbox(outboxConfig, Rng(readerId));
    for (std::size_t c = 0; c < cars.size(); ++c) {
      core::AoaAggregator aggregator(geometryFor(reader));
      const double cfo =
          cars[c].carrierHz() - reader.frontEnd.sampling.loFrequencyHz;
      for (int q = 0; q < 10; ++q) {
        std::vector<sim::ActiveDevice> active;
        for (std::size_t k = 0; k < cars.size(); ++k)
          active.push_back({&cars[k], positions[k]});
        const auto capture =
            sim::captureCollision(reader, active, multipath, rng);
        for (const auto& obs : analyzer.analyze(capture.antennaSamples))
          if (std::abs(obs.cfoHz - cfo) < 3e3) aggregator.add(obs);
      }
      if (aggregator.samples() < 4) continue;
      const auto aoa =
          aggregator.result(reader.frontEnd.sampling.loFrequencyHz);
      // Report the road-parallel pair: the backend can then run the
      // paper's exact two-hyperbola fix (Eq. 15).
      const std::size_t roadPair = geometryFor(reader).roadPair();
      net::SightingReport sighting;
      sighting.readerId = readerId;
      sighting.timestamp = 60.0;
      sighting.cfoHz = cfo;
      sighting.pairIndex = static_cast<std::uint32_t>(roadPair);
      sighting.angleRad = aoa.perPair.at(roadPair).angleRad;
      outbox.add(net::Message{sighting});
    }
    // One modem wake per pole: seal the batch, uplink it, take the ack.
    outbox.seal(60.0);
    for (const auto& tx : outbox.collectTransmissions(60.0)) {
      const auto ingested = backend.ingestBatch(tx.frame);
      if (ingested.ok()) outbox.onAckFrame(ingested.value().ack, 60.0);
    }
  }

  // Fuse cross-reader sightings into position fixes; attach ids by CFO
  // (decoded once by either reader).
  const auto fixes = backend.fuse(60.5);
  std::printf("backend fused %zu position fixes\n", fixes.size());
  for (const auto& fix : fixes) {
    // Decode whichever car owns this CFO (reader B does the work here).
    core::CollisionDecoder decoder;
    const auto outcome = decoder.decodeTarget(fix.cfoHz, [&]() {
      std::vector<sim::ActiveDevice> active;
      for (std::size_t k = 0; k < cars.size(); ++k)
        active.push_back({&cars[k], positions[k]});
      return sim::captureCollision(poleB, active, multipath, rng)
          .antennaSamples.front();
    });
    if (!outcome.ok()) continue;
    finder.recordFix(outcome.value().id, fix.position, fix.timestamp);
    std::printf("  car %llx parked near (%.1f, %.1f)\n",
                static_cast<unsigned long long>(
                    outcome.value().id.programmable),
                fix.position.x, fix.position.y);
  }

  // The driver's query.
  std::printf("\ndriver asks: where is my car (account %llx)?\n",
              static_cast<unsigned long long>(myAccount));
  if (const auto seen = finder.findByAccount(myAccount)) {
    std::printf("  -> last seen at x=%.1f m, y=%.1f m (truth: %.1f, %.1f)\n",
                seen->position.x, seen->position.y, positions[1].x,
                positions[1].y);
  } else {
    std::printf("  -> not found\n");
  }
  return 0;
}
