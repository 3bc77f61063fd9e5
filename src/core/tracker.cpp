#include "core/tracker.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace caraoke::core {

namespace {

struct TrackerMetrics {
  obs::Counter& observations =
      obs::globalRegistry().counter("tracker.observations");
  obs::Counter& opened =
      obs::globalRegistry().counter("tracker.tracks_opened");
  obs::Counter& dropped =
      obs::globalRegistry().counter("tracker.tracks_dropped");
  obs::Counter& abeam = obs::globalRegistry().counter("tracker.abeam_events");
};

TrackerMetrics& trackerMetrics() {
  static TrackerMetrics metrics;
  return metrics;
}

}  // namespace

TransponderTracker::TransponderTracker(TrackerConfig config)
    : config_(config) {}

const Track* TransponderTracker::findByCfo(double cfoHz) const {
  const Track* best = nullptr;
  double bestGap = config_.cfoGateHz;
  for (const Track& track : tracks_) {
    const double gap = std::abs(track.cfoHz - cfoHz);
    if (gap < bestGap) {
      bestGap = gap;
      best = &track;
    }
  }
  return best;
}

void TransponderTracker::markIdentified(std::uint64_t trackId) {
  for (Track& track : tracks_)
    if (track.trackId == trackId) track.identified = true;
}

std::vector<AbeamEvent> TransponderTracker::update(
    double t, const std::vector<TrackerObservation>& observations) {
  trackerMetrics().observations.inc(observations.size());
  std::vector<AbeamEvent> events;
  // Greedy association, strongest observations first: each track takes at
  // most one observation per query.
  std::vector<std::size_t> order(observations.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return observations[a].magnitude > observations[b].magnitude;
  });

  std::vector<bool> trackTaken(tracks_.size(), false);
  std::vector<bool> obsUsed(observations.size(), false);

  for (std::size_t oi : order) {
    const TrackerObservation& obs = observations[oi];
    std::size_t bestTrack = tracks_.size();
    double bestGap = config_.cfoGateHz;
    for (std::size_t ti = 0; ti < tracks_.size(); ++ti) {
      if (trackTaken[ti]) continue;
      const double gap = std::abs(tracks_[ti].cfoHz - obs.cfoHz);
      if (gap < bestGap) {
        bestGap = gap;
        bestTrack = ti;
      }
    }
    if (bestTrack == tracks_.size()) continue;

    Track& track = tracks_[bestTrack];
    trackTaken[bestTrack] = true;
    obsUsed[oi] = true;

    // CFO follows the oscillator drift; magnitude smooths for the
    // consumers that rank tracks by strength.
    track.cfoHz += config_.cfoEwmaAlpha * (obs.cfoHz - track.cfoHz);
    track.magnitude += 0.3 * (obs.magnitude - track.magnitude);

    // Alpha-beta filter on cosAlpha.
    const double dt = std::max(1e-6, t - track.lastSeen);
    const double predicted = track.cosAlpha + track.cosAlphaRate * dt;
    const double residual = obs.cosAlpha - predicted;
    const double before = track.cosAlpha;
    track.cosAlpha = predicted + config_.filterAlpha * residual;
    track.cosAlphaRate += config_.filterBeta * residual / dt;
    track.lastSeen = t;
    ++track.hits;

    // Abeam event: the filtered cosine crossed zero on a confirmed track.
    if (track.confirmed(config_.confirmHits) &&
        ((before < 0.0) != (track.cosAlpha < 0.0)) && before != 0.0) {
      AbeamEvent event;
      event.trackId = track.trackId;
      event.cfoHz = track.cfoHz;
      const double span = track.cosAlpha - before;
      event.crossingTime =
          span != 0.0 ? track.lastSeen - dt + dt * (0.0 - before) / span
                      : t;
      event.rate = track.cosAlphaRate;
      events.push_back(event);
      trackerMetrics().abeam.inc();
    }
  }

  // Unmatched observations spawn tentative tracks.
  for (std::size_t oi = 0; oi < observations.size(); ++oi) {
    if (obsUsed[oi]) continue;
    Track track;
    track.trackId = nextId_++;
    track.cfoHz = observations[oi].cfoHz;
    track.cosAlpha = observations[oi].cosAlpha;
    track.magnitude = observations[oi].magnitude;
    track.firstSeen = track.lastSeen = t;
    track.hits = 1;
    trackerMetrics().opened.inc();
    if (obs::eventsAttached())
      obs::emitEvent("tracker.track_opened",
                     {{"t", t},
                      {"track_id", track.trackId},
                      {"cfo_hz", track.cfoHz}});
    tracks_.push_back(std::move(track));
  }

  // Drop stale tracks.
  tracks_.erase(std::remove_if(tracks_.begin(), tracks_.end(),
                               [&](const Track& track) {
                                 if (t - track.lastSeen <=
                                     config_.dropAfterSec)
                                   return false;
                                 trackerMetrics().dropped.inc();
                                 if (obs::eventsAttached())
                                   obs::emitEvent(
                                       "tracker.track_closed",
                                       {{"t", t},
                                        {"track_id", track.trackId},
                                        {"hits", track.hits},
                                        {"cfo_hz", track.cfoHz}});
                                 return true;
                               }),
                tracks_.end());
  return events;
}

}  // namespace caraoke::core
