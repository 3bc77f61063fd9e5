#include "sim/scene.hpp"

#include "common/units.hpp"
#include "obs/prof.hpp"
#include "obs/prof_stages.hpp"

namespace caraoke::sim {

std::size_t Scene::addCar(Transponder transponder,
                          std::unique_ptr<Mobility> mobility) {
  cars_.push_back(Car{std::move(transponder), std::move(mobility)});
  return cars_.size() - 1;
}

std::size_t Scene::addReader(ReaderNode reader) {
  readers_.push_back(reader);
  return readers_.size() - 1;
}

double Scene::queryPowerAt(std::size_t readerIndex,
                           const Vec3& position) const {
  const ReaderNode& reader = readers_.at(readerIndex);
  const Vec3 antenna = reader.array().elements().front();
  const double lambda =
      wavelength(reader.frontEnd.sampling.loFrequencyHz);
  const dsp::cdouble h = channelTo(position, antenna, multipath_, lambda);
  return std::norm(h);
}

std::vector<std::size_t> Scene::carsInRange(std::size_t readerIndex,
                                            double t) const {
  const ReaderNode& reader = readers_.at(readerIndex);
  const Vec3 center = reader.pole.arrayCenter();
  std::vector<std::size_t> result;

  // Link-budget mode: sensitivity calibrated so a free-space LoS link at
  // rangeMeters is exactly at threshold.
  double thresholdPower = 0.0;
  if (linkBudgetTrigger_) {
    const double lambda =
        wavelength(reader.frontEnd.sampling.loFrequencyHz);
    const double edgeAmplitude = lambda / (4.0 * kPi * rangeMeters);
    thresholdPower = edgeAmplitude * edgeAmplitude;
  }

  for (std::size_t i = 0; i < cars_.size(); ++i) {
    const Vec3 pos = cars_[i].mobility->positionAt(t);
    if (linkBudgetTrigger_) {
      if (queryPowerAt(readerIndex, pos) >= thresholdPower)
        result.push_back(i);
    } else if (phy::distance(pos, center) <= rangeMeters) {
      result.push_back(i);
    }
  }
  return result;
}

Capture Scene::query(std::size_t readerIndex, double t, Rng& rng) {
  CARAOKE_PROF_SCOPE(obs::prof::stage::kQuery);
  const std::vector<std::size_t> active = carsInRange(readerIndex, t);
  std::vector<ActiveDevice> devices;
  devices.reserve(active.size());
  for (std::size_t i : active)
    devices.push_back(
        {&cars_[i].transponder, cars_[i].mobility->positionAt(t)});
  return captureCollision(readers_.at(readerIndex), devices, multipath_, rng);
}

}  // namespace caraoke::sim
