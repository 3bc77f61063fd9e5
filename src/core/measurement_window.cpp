#include "core/measurement_window.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/prof.hpp"
#include "obs/prof_stages.hpp"

namespace caraoke::core {

MeasurementWindow::MeasurementWindow(ArrayGeometry geometry,
                                     const phy::SamplingParams& sampling,
                                     MultiQueryCounterConfig counter,
                                     TrackerConfig tracker,
                                     DecoderConfig decoder)
    : counter_(std::move(counter)),
      geometry_(std::move(geometry)),
      roadPair_(geometry_.roadPair()),
      sampling_(sampling),
      tracker_(tracker),
      decoderConfig_(std::move(decoder)) {
  if (geometry_.elements.size() < 2 || geometry_.pairs.empty())
    throw std::invalid_argument(
        "MeasurementWindow: need >= 2 elements and pairs");
}

CountResult MeasurementWindow::count(const Burst& burst) const {
  std::vector<dsp::CVec> primary;
  primary.reserve(burst.size());
  for (const auto& antennas : burst) primary.push_back(antennas.front());
  return counter_.count(primary);
}

std::vector<AbeamEvent> MeasurementWindow::observe(double t,
                                                   const Burst& burst,
                                                   const CountResult& count) {
  CARAOKE_PROF_SCOPE(obs::prof::stage::kObserve);
  std::vector<std::vector<TransponderObservation>> perQuery;
  perQuery.reserve(burst.size());
  for (const auto& antennas : burst)
    perQuery.push_back(analyzer_.analyze(antennas));

  std::vector<TrackerObservation> feed;
  for (const std::size_t bin : count.bins) {
    const double spikeCfo = static_cast<double>(bin) * sampling_.sampleRateHz /
                            static_cast<double>(sampling_.responseSamples());
    AoaAggregator aggregator(geometry_);
    double magnitudeSum = 0.0;
    double cfoSum = 0.0;
    std::size_t seen = 0;
    for (const auto& observations : perQuery) {
      const TransponderObservation* best = nullptr;
      double gap = 4e3;
      for (const auto& obs : observations) {
        const double g = std::abs(obs.cfoHz - spikeCfo);
        if (g < gap) {
          gap = g;
          best = &obs;
        }
      }
      if (best == nullptr) continue;
      aggregator.add(*best);
      magnitudeSum += best->peakMagnitude;
      cfoSum += best->cfoHz;
      ++seen;
    }
    if (seen == 0) continue;
    const AoaResult aoa = aggregator.result(sampling_.loFrequencyHz);
    feed.push_back({cfoSum / static_cast<double>(seen),
                    std::cos(aoa.perPair.at(roadPair_).angleRad),
                    magnitudeSum / static_cast<double>(seen)});
  }
  return tracker_.update(t, feed);
}

std::optional<DecodeAttempt> MeasurementWindow::decode(const Burst& burst,
                                                       std::size_t budget) {
  const Track* target = nullptr;
  for (const Track& track : tracker_.tracks()) {
    if (!track.confirmed(tracker_.config().confirmHits) || track.identified)
      continue;
    if (target == nullptr || track.hits > target->hits) target = &track;
  }
  if (target == nullptr) return std::nullopt;

  CollisionDecoder decoder(decoderConfig_);
  decoder.reset(target->cfoHz);
  DecodeAttempt attempt;
  attempt.cfoHz = target->cfoHz;
  const std::size_t combines = std::min(budget, burst.size());
  for (std::size_t q = 0; q < combines && !attempt.id; ++q)
    attempt.id = decoder.addCollision(burst[q].front());
  attempt.combines = decoder.collisionsUsed();
  if (attempt.id) tracker_.markIdentified(target->trackId);
  return attempt;
}

}  // namespace caraoke::core
