#include "pipeline/generator.hpp"

#include <algorithm>
#include <cmath>

#include "common/units.hpp"
#include "phy/cfo.hpp"
#include "phy/protocol.hpp"
#include "pipeline/geometry.hpp"

namespace perfbench {

using caraoke::Rng;
namespace phy = caraoke::phy;
namespace net = caraoke::net;

namespace {

/// splitmix64: decorrelates (seed, stream, index) into one Rng seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t index) {
  std::uint64_t z = seed * 0x9e37'79b9'7f4a'7c15ull +
                    stream * 0xbf58'476d'1ce4'e5b9ull +
                    index * 0x94d0'49bb'1331'11ebull + 0x632b'e59b'd9b4'e019ull;
  z = (z ^ (z >> 30)) * 0xbf58'476d'1ce4'e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d0'49bb'1331'11ebull;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kPlazaStream = 1;
constexpr std::uint64_t kCorridorStream = 2;
constexpr std::uint64_t kFleetStream = 3;

/// FFT bin width of one response window [Hz].
double binWidthHz() {
  const phy::SamplingParams sampling;
  return sampling.sampleRateHz /
         static_cast<double>(sampling.responseSamples());
}

/// A carrier at least `minGapHz` from every carrier in `taken`.
double distinctCarrier(const phy::CfoModel& model, Rng& rng,
                       const std::vector<double>& taken, double minGapHz) {
  double carrier = model.drawCarrierHz(rng);
  for (int attempt = 0; attempt < 64; ++attempt) {
    const bool clear = std::none_of(taken.begin(), taken.end(), [&](double c) {
      return std::abs(c - carrier) < minGapHz;
    });
    if (clear) break;
    carrier = model.drawCarrierHz(rng);
  }
  return carrier;
}

TagSpec randomTag(Rng& rng, double carrierHz) {
  TagSpec tag;
  tag.id = phy::Packet::randomId(rng);
  tag.carrierHz = carrierHz;
  tag.deviceSeed = rng.next();
  return tag;
}

}  // namespace

ReaderEpisode plazaEpisode(std::uint64_t seed, std::size_t index) {
  Rng rng(mix(seed, kPlazaStream, index));
  ReaderEpisode episode;
  // A gantry over the plaza apron: higher than a lamp post, with the
  // paper's 60-degree array tilt (Fig 13).
  episode.poles.push_back({0.0, -6.0, caraoke::feet(18.0), 60.0});
  episode.periodSec = 1.0;
  episode.uplinkPeriodSec = 1.0;
  episode.steps = 20;
  episode.daemonSeed = rng.next();

  // 20 tags: 14 independent carriers plus 3 pairs whose second member
  // sits 0.2-0.8 FFT bins from the first (a near-same-bin collision).
  const phy::EmpiricalCfoModel cfoModel;
  std::vector<double> carriers;
  for (int i = 0; i < 14; ++i)
    carriers.push_back(
        distinctCarrier(cfoModel, rng, carriers, 3.0 * binWidthHz()));
  for (int i = 0; i < 3; ++i) {
    const double base = carriers[static_cast<std::size_t>(i)];
    carriers.push_back(base + rng.uniform(0.2, 0.8) * binWidthHz());
  }
  std::sort(carriers.begin(), carriers.end());

  // Parked in three rows across the apron, spread along x, all inside the
  // 100 ft query range of the gantry.
  const double rows[] = {2.0, 5.6, 9.2};
  for (std::size_t i = 0; i < carriers.size(); ++i) {
    TagSpec tag = randomTag(rng, carriers[i]);
    tag.parked = true;
    tag.position = {rng.uniform(-18.0, 18.0),
                    rows[static_cast<std::size_t>(rng.uniformInt(0, 2))], 1.2};
    episode.tags.push_back(tag);
  }
  // Shuffle so pair members do not sit next to each other in scene order.
  for (std::size_t i = episode.tags.size(); i > 1; --i)
    std::swap(episode.tags[i - 1],
              episode.tags[static_cast<std::size_t>(
                  rng.uniformInt(0, static_cast<std::int64_t>(i) - 1))]);
  return episode;
}

ReaderEpisode corridorEpisode(std::uint64_t seed, std::size_t index) {
  Rng rng(mix(seed, kCorridorStream, index));
  ReaderEpisode episode;
  const double spacing = caraoke::feet(200.0);
  episode.poles.push_back({0.0, -6.0, caraoke::feet(12.5), 0.0});
  episode.poles.push_back({spacing, -6.0, caraoke::feet(12.5), 0.0});
  episode.periodSec = 0.25;
  episode.uplinkPeriodSec = 0.5;
  episode.daemonSeed = rng.next();

  // 1-3 cars enter 30 m before pole A within the first 5 s and drive
  // through both poles' coverage at 10-50 mph.
  const phy::EmpiricalCfoModel cfoModel;
  const auto cars = static_cast<std::size_t>(rng.uniformInt(1, 3));
  std::vector<double> carriers;
  double endSec = 0.0;
  const double startX = -30.0;
  const double exitX = spacing + 30.0;
  for (std::size_t i = 0; i < cars; ++i) {
    const double carrier = distinctCarrier(cfoModel, rng, carriers, 20e3);
    carriers.push_back(carrier);
    TagSpec tag = randomTag(rng, carrier);
    tag.parked = false;
    tag.startX = startX;
    tag.laneY = rng.chance(0.5) ? 1.8 : 5.4;
    tag.speedMps = caraoke::mph(rng.uniform(10.0, 50.0));
    tag.t0 = rng.uniform(0.0, 5.0);
    endSec = std::max(endSec, tag.t0 + (exitX - startX) / tag.speedMps);
    episode.tags.push_back(tag);
  }
  episode.steps =
      static_cast<std::size_t>(std::ceil(endSec / episode.periodSec)) + 1;
  return episode;
}

PoleSpec FleetGenerator::pole(std::size_t index) {
  return {static_cast<double>(index) * kSpacingMeters,
          index % 2 == 0 ? -6.0 : 11.0, caraoke::feet(12.5), 0.0};
}

FleetGenerator::FleetGenerator(std::uint64_t seed, std::size_t episode)
    : rng_(mix(seed, kFleetStream, episode)) {}

FleetTick FleetGenerator::next() {
  namespace sim = caraoke::sim;
  FleetTick out;
  out.startSec = static_cast<double>(tick_) * kTickSec;
  out.reports.resize(kPoles);

  // Poles alternate sides of the street; each side's geometry is the same
  // up to an x shift, so keep one array per side, moved to x = 0.
  static const sim::TriangleArray arrays[2] = {
      readerNode({0.0, pole(0).y, pole(0).heightMeters, 0.0}).array(),
      readerNode({0.0, pole(1).y, pole(1).heightMeters, 0.0}).array()};
  static const std::size_t roadPair =
      roadPairOf(geometryOf(readerNode(pole(0))));

  // Spawn 0-2 cars at a random entry pole; each crosses 2-5 poles. A new
  // car's carrier keeps clear of every car whose speed samples the
  // backend may still hold, so CFO association stays unambiguous.
  const phy::UniformCfoModel cfoModel;
  const auto spawns = rng_.uniformInt(0, 2);
  for (std::int64_t s = 0; s < spawns; ++s) {
    std::vector<double> taken;
    for (const FleetCar& other : cars_)
      if (other.spawnSec + (other.endX - other.startX) / other.speedMps >
          out.startSec - kCarrierReuseSec)
        taken.push_back(other.cfoHz + caraoke::phy::kCarrierMinHz);
    FleetCar car;
    const double carrier = distinctCarrier(cfoModel, rng_, taken, 8e3);
    car.cfoHz = carrier - caraoke::phy::kCarrierMinHz;
    car.id = phy::Packet::randomId(rng_);
    car.poles = static_cast<std::size_t>(rng_.uniformInt(2, 5));
    car.firstPole = static_cast<std::size_t>(
        rng_.uniformInt(0, static_cast<std::int64_t>(kPoles - car.poles)));
    car.speedMps = caraoke::mph(rng_.uniform(15.0, 50.0));
    car.laneY = rng_.chance(0.5) ? 1.8 : 5.4;
    car.spawnSec = out.startSec + rng_.uniform(0.0, kTickSec);
    car.startX = static_cast<double>(car.firstPole) * kSpacingMeters - 30.0;
    car.endX = static_cast<double>(car.firstPole + car.poles - 1) *
                   kSpacingMeters + 30.0;
    active_.push_back(cars_.size());
    cars_.push_back(car);
    decoded_.emplace_back(car.poles, false);
  }

  // Per-pole trace id for this tick's batch.
  std::vector<std::uint64_t> traces(kPoles);
  for (auto& t : traces) t = rng_.next() | 1ull;

  // Counts first (one per pole per tick), then 5 Hz sightings.
  for (std::size_t p = 0; p < kPoles; ++p) {
    net::CountReport count;
    count.readerId = static_cast<std::uint32_t>(p + 1);
    count.timestamp = out.startSec;
    count.traceId = traces[p];
    count.spanId = traces[p];
    out.reports[p].push_back(count);
  }
  const double rangeMeters = caraoke::phy::kReaderRangeMeters;
  for (double ts = out.startSec; ts < out.startSec + kTickSec - 1e-9;
       ts += kSampleSec) {
    for (std::size_t a : active_) {
      const FleetCar& car = cars_[a];
      if (ts < car.spawnSec) continue;
      const double x = car.startX + car.speedMps * (ts - car.spawnSec);
      if (x > car.endX) continue;
      for (std::size_t k = 0; k < car.poles; ++k) {
        const std::size_t p = car.firstPole + k;
        const double poleX = static_cast<double>(p) * kSpacingMeters;
        const sim::TriangleArray& array = arrays[p % 2];
        const phy::Vec3 shifted{x - poleX, car.laneY, 1.2};
        if (caraoke::phy::distance(shifted, array.center()) > rangeMeters)
          continue;
        net::SightingReport sighting;
        sighting.readerId = static_cast<std::uint32_t>(p + 1);
        sighting.timestamp = ts;
        sighting.cfoHz = car.cfoHz + rng_.gaussian(0.0, 150.0);
        sighting.pairIndex = static_cast<std::uint32_t>(roadPair);
        sighting.angleRad = std::clamp(
            array.trueAngle(roadPair, shifted) + rng_.gaussian(0.0, 0.02),
            0.0, caraoke::kPi);
        sighting.peakMagnitude = 1.0;
        sighting.traceId = traces[p];
        sighting.spanId = traces[p];
        out.reports[p].push_back(sighting);
        // One decode per car per pole, once it is within 10 m of abeam.
        if (!decoded_[a][k] && std::abs(x - poleX) < 10.0) {
          decoded_[a][k] = true;
          net::DecodeReport decode;
          decode.readerId = sighting.readerId;
          decode.timestamp = ts;
          decode.cfoHz = sighting.cfoHz;
          decode.id = car.id;
          decode.traceId = traces[p];
          decode.spanId = traces[p];
          out.reports[p].push_back(decode);
        }
      }
    }
  }
  // Counts carry the number of cars each pole reported this tick.
  for (std::size_t p = 0; p < kPoles; ++p) {
    std::vector<double> seen;
    for (const auto& m : out.reports[p])
      if (const auto* s = std::get_if<net::SightingReport>(&m))
        if (std::none_of(seen.begin(), seen.end(), [&](double c) {
              return std::abs(c - s->cfoHz) < 4e3;
            }))
          seen.push_back(s->cfoHz);
    std::get<net::CountReport>(out.reports[p].front()).count =
        static_cast<std::uint32_t>(seen.size());
  }

  // Cars past their last pole leave the road.
  const double tickEnd = out.startSec + kTickSec;
  std::erase_if(active_, [&](std::size_t a) {
    const FleetCar& car = cars_[a];
    return car.startX + car.speedMps * (tickEnd - car.spawnSec) > car.endX;
  });

  // About one frame in 50 is delivered twice.
  for (std::size_t p = 0; p < kPoles; ++p)
    if (rng_.chance(0.02)) out.duplicatePoles.push_back(p);
  ++tick_;
  return out;
}

}  // namespace perfbench
