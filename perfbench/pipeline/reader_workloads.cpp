// plaza_dense and corridor_pass: real ReaderDaemons on a simulated scene,
// uplinked through Outbox v3 frames over fault-free UplinkLink pairs into
// one Backend, closed loop (one window at a time, one thread).
//
// Reader compute per window is the time in ReaderDaemon::runUntil minus
// the world-model time for the same reader and instants, measured on a
// twin scene built from the same generated episode: querying the daemon's
// own scene would advance its transponders' phase and drift streams.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "apps/reader_daemon.hpp"
#include "core/aoa.hpp"
#include "core/counter.hpp"
#include "core/decoder.hpp"
#include "core/spectrum_analysis.hpp"
#include "core/tracker.hpp"
#include "dsp/fft.hpp"
#include "dsp/peaks.hpp"
#include "net/backend.hpp"
#include "net/link.hpp"
#include "net/outbox.hpp"
#include "phy/protocol.hpp"
#include "pipeline/generator.hpp"
#include "pipeline/geometry.hpp"
#include "pipeline/layers.hpp"
#include "sim/mobility.hpp"
#include "sim/scene.hpp"

namespace perfbench {

namespace {

using namespace caraoke;

constexpr std::size_t kQueriesPerWindow = 8;
constexpr double kUs = 1e6;

/// World model for one generated episode.
sim::Scene buildScene(const ReaderEpisode& episode) {
  sim::Scene scene(sim::Road{});
  for (const PoleSpec& pole : episode.poles) scene.addReader(readerNode(pole));
  for (const TagSpec& tag : episode.tags) {
    std::unique_ptr<sim::Mobility> mobility;
    if (tag.parked)
      mobility = std::make_unique<sim::ParkedMobility>(tag.position);
    else
      mobility = std::make_unique<sim::ConstantSpeedMobility>(
          tag.startX, tag.laneY, 1.2, tag.speedMps, tag.t0);
    scene.addCar(sim::Transponder(tag.id, tag.carrierHz, Rng(tag.deviceSeed)),
                 std::move(mobility));
  }
  return scene;
}

/// The traced run's stand-in for the daemon's private stages: the same
/// public core calls, in the same order and configuration, on the twin
/// scene's captures of the same reader and instants.
class Replica {
 public:
  Replica(const sim::ReaderNode& node, double uplinkPeriodSec,
          std::uint32_t readerId)
      : counter_([&] {
          core::MultiQueryCounterConfig c;
          c.noiseSigma = node.frontEnd.noiseSigma;
          return c;
        }()),
        geometry_(geometryOf(node)),
        roadPair_(roadPairOf(geometry_)),
        lo_(node.frontEnd.sampling.loFrequencyHz),
        binHz_(node.frontEnd.sampling.sampleRateHz /
               static_cast<double>(node.frontEnd.sampling.responseSamples())),
        uplinkPeriodSec_(uplinkPeriodSec),
        readerId_(readerId),
        outbox_(
            [&] {
              net::OutboxConfig c;
              c.readerId = readerId;
              return c;
            }(),
            Rng(readerId), &registry_) {}

  void window(double t, const std::vector<std::vector<dsp::CVec>>& captures,
              Layers& l) {
    Stopwatch sw;
    double covered = 0.0;
    auto take = [&](Samples& into) {
      const double dt = sw.lap();
      into.add(dt * kUs);
      covered += dt;
    };

    std::vector<dsp::CVec> primary;
    primary.reserve(captures.size());
    for (const auto& antennas : captures) primary.push_back(antennas.front());
    sw.lap();
    const core::CountResult count = counter_.count(primary);
    take(l.countUs);
    l.spikes += static_cast<double>(count.spikes);

    std::vector<std::vector<core::TransponderObservation>> perQuery;
    perQuery.reserve(captures.size());
    for (const auto& antennas : captures) {
      perQuery.push_back(analyzer_.analyze(antennas));
      take(l.analyzeUs);
      l.observations += static_cast<double>(perQuery.back().size());
    }

    // Per counted bin, the nearest observation of each query feeds a
    // circular-mean AoA (as the daemon builds its tracker feed).
    std::vector<core::TrackerObservation> feed;
    for (const std::size_t bin : count.bins) {
      const double spikeCfo = static_cast<double>(bin) * binHz_;
      core::AoaAggregator aggregator(geometry_);
      double magnitudeSum = 0.0, cfoSum = 0.0;
      std::size_t seen = 0;
      for (const auto& observations : perQuery) {
        const core::TransponderObservation* best = nullptr;
        double gap = 4e3;
        for (const auto& obs : observations)
          if (std::abs(obs.cfoHz - spikeCfo) < gap) {
            gap = std::abs(obs.cfoHz - spikeCfo);
            best = &obs;
          }
        if (best == nullptr) continue;
        aggregator.add(*best);
        magnitudeSum += best->peakMagnitude;
        cfoSum += best->cfoHz;
        ++seen;
      }
      if (seen == 0) continue;
      const core::AoaResult aoa = aggregator.result(lo_);
      feed.push_back({cfoSum / static_cast<double>(seen),
                      std::cos(aoa.perPair.at(roadPair_).angleRad),
                      magnitudeSum / static_cast<double>(seen)});
    }
    take(l.aoaUs);

    tracker_.update(t, feed);
    take(l.trackUs);
    l.tracks += static_cast<double>(tracker_.tracks().size());

    // Decode budget on the strongest confirmed, unidentified track.
    const core::TrackerConfig trackerConfig;
    const core::Track* target = nullptr;
    for (const core::Track& track : tracker_.tracks()) {
      if (!track.confirmed(trackerConfig.confirmHits)) continue;
      if (identified_.count(track.trackId) > 0) continue;
      if (target == nullptr || track.hits > target->hits) target = &track;
    }
    std::optional<net::DecodeReport> decoded;
    sw.lap();
    if (target != nullptr) {
      ++l.decodeWindows;
      core::CollisionDecoder decoder;
      decoder.reset(target->cfoHz);
      const std::size_t budget =
          std::min(apps::ReaderDaemonConfig{}.decodeCollisionsPerWindow,
                   primary.size());
      for (std::size_t q = 0; q < budget; ++q) {
        const auto id = decoder.addCollision(primary[q]);
        take(l.decodeUs);
        ++l.combines;
        if (id) {
          ++l.decodedIds;
          identified_.insert(target->trackId);
          decoded = net::DecodeReport{readerId_, t, target->cfoHz, *id, 0, 0};
          break;
        }
      }
    }

    // Hand the window's reports to an outbox and seal on the uplink
    // period, as the daemon does.
    sw.lap();
    outbox_.add(net::Message{net::CountReport{
        readerId_, t, static_cast<std::uint32_t>(count.estimate), 1, 1}});
    for (const core::Track& track : tracker_.tracks()) {
      if (!track.confirmed(trackerConfig.confirmHits) || track.lastSeen < t)
        continue;
      net::SightingReport s;
      s.readerId = readerId_;
      s.timestamp = t;
      s.cfoHz = track.cfoHz;
      s.pairIndex = static_cast<std::uint32_t>(roadPair_);
      s.angleRad = std::acos(std::clamp(track.cosAlpha, -1.0, 1.0));
      s.traceId = s.spanId = 1;
      outbox_.add(net::Message{s});
    }
    if (decoded) outbox_.add(net::Message{*decoded});
    std::vector<net::OutboxTransmission> sent;
    if (t >= nextSeal_) {
      outbox_.seal(t);
      nextSeal_ = t + uplinkPeriodSec_;
      sent = outbox_.collectTransmissions(t);
    }
    const double outboxSec = sw.lap();
    covered += outboxSec;
    outboxSec_ += outboxSec;
    for (const auto& tx : sent) {
      l.outboxUs.add(outboxSec_ * kUs / static_cast<double>(sent.size()));
      l.frameBytes.add(static_cast<double>(tx.frame.size()));
      outbox_.onAck(tx.seq, t);
    }
    if (!sent.empty()) outboxSec_ = 0.0;
    l.coveredSec += covered;

    // DSP probes: the public FFT and CFAR/peak calls on this window's
    // own antenna-0 buffers (nested inside count/analyze, so they are
    // reported per call and not added to the coverage sum).
    for (const dsp::CVec& buffer : primary) {
      const std::vector<double> magnitude = analyzer_.magnitudeSpectrum(buffer);
      sw.lap();
      dsp::fft(buffer);
      l.fftUs.add(sw.lap() * kUs);
      dsp::findPeaks(magnitude, analyzer_.config().peaks);
      l.cfarUs.add(sw.lap() * kUs);
    }
  }

 private:
  core::MultiQueryCounter counter_;
  core::SpectrumAnalyzer analyzer_;
  core::TransponderTracker tracker_;
  core::ArrayGeometry geometry_;
  std::size_t roadPair_;
  double lo_;
  double binHz_;
  double uplinkPeriodSec_;
  double nextSeal_ = 0.0;
  double outboxSec_ = 0.0;
  std::uint32_t readerId_;
  std::set<std::uint64_t> identified_;
  obs::Registry registry_;
  net::Outbox outbox_;
};

/// Accumulated over one phase of a run (many episodes).
struct Phase {
  EndToEnd e2e;
  Layers layers;
  // Quality figures.
  double countAbsErr = 0.0;
  std::uint64_t countWindows = 0;
  std::uint64_t tagsSeen = 0, tagsDecoded = 0;
  double speedErrPctSum = 0.0;
  std::uint64_t speedFixes = 0, ghostFixes = 0, carsBothPoles = 0;
};

/// Runs one generated episode to its last window or to the deadline,
/// then drains the uplink and checks the outputs.
void runEpisode(const ReaderEpisode& episode, bool traced, double deadline,
                Phase& phase, RunResult& result) {
  const std::size_t readers = episode.poles.size();
  sim::Scene scene = buildScene(episode);
  sim::Scene twin = buildScene(episode);
  std::vector<Rng> twinRng;
  for (std::size_t i = 0; i < readers; ++i)
    twinRng.emplace_back(episode.daemonSeed + i);

  // --- set-up: the pipeline objects (world model excluded) ---
  Stopwatch setup;
  net::Backend backend{net::BackendConfig{}};
  std::vector<std::unique_ptr<net::UplinkLink>> up, down;
  std::vector<std::unique_ptr<apps::ReaderDaemon>> daemons;
  for (std::size_t i = 0; i < readers; ++i) {
    const auto readerId = static_cast<std::uint32_t>(i + 1);
    backend.registerReader(readerId, geometryOf(scene.reader(i)));
    up.push_back(std::make_unique<net::UplinkLink>(
        net::LinkConfig{}, Rng(episode.daemonSeed ^ (0x11ull + i))));
    down.push_back(std::make_unique<net::UplinkLink>(
        net::LinkConfig{}, Rng(episode.daemonSeed ^ (0x22ull + i))));
    apps::ReaderDaemonConfig config;
    config.readerId = readerId;
    config.queriesPerWindow = kQueriesPerWindow;
    config.measurementPeriodSec = episode.periodSec;
    config.uplinkPeriodSec = episode.uplinkPeriodSec;
    daemons.push_back(std::make_unique<apps::ReaderDaemon>(
        config, scene, i, Rng(episode.daemonSeed + i)));
    daemons.back()->attachUplink(up.back().get(), down.back().get());
  }
  phase.e2e.setupSec.add(setup.lap());

  std::vector<std::unique_ptr<Replica>> replicas;
  if (traced)
    for (std::size_t i = 0; i < readers; ++i)
      replicas.push_back(std::make_unique<Replica>(
          scene.reader(i), episode.uplinkPeriodSec,
          static_cast<std::uint32_t>(i + 1)));

  AckLedger acks;
  std::vector<std::vector<std::size_t>> trueCounts(readers);
  std::vector<net::SpeedFix> speedFixes;
  const WalCounters walBefore = WalCounters::read();

  auto ingest = [&](std::size_t i, const std::vector<std::uint8_t>& frame,
                    double at) {
    Stopwatch sw;
    const auto r = backend.ingestBatch(frame);
    const double dt = sw.lap();
    phase.e2e.ingestUs.add(dt * kUs);
    phase.e2e.computeSec += dt;
    ++phase.e2e.batches;
    if (traced) {
      phase.layers.ingestUs.add(dt * kUs);
      phase.layers.coveredSec += dt;
      phase.layers.computeSec += dt;
    }
    if (!r.ok()) {
      result.fail("ingestBatch rejected a fault-free frame: " + r.error());
      return;
    }
    if (r.value().deduplicated) {
      if (traced) ++phase.layers.dedups;
    } else {
      acks.ingested(r.value().readerId, r.value().seq);
    }
    if (r.value().hasAck) down[i]->send(r.value().ack, at);
  };
  auto fuseAndPair = [&](double t) {
    Stopwatch sw;
    const auto fused = backend.fuse(t);
    const double fuseSec = sw.lap();
    const auto paired = backend.pairSpeeds(t);
    const double pairSec = sw.lap();
    phase.e2e.computeSec += fuseSec + pairSec;
    speedFixes.insert(speedFixes.end(), paired.begin(), paired.end());
    if (traced) {
      Layers& l = phase.layers;
      l.fuseUs.add(fuseSec * kUs);
      l.pairUs.add(pairSec * kUs);
      l.coveredSec += fuseSec + pairSec;
      l.computeSec += fuseSec + pairSec;
      l.fuseFixes += static_cast<double>(fused.size());
      l.pairFixes += static_cast<double>(paired.size());
      l.pendingSightings += static_cast<double>(backend.pendingSightings());
      l.pendingSpeed += static_cast<double>(backend.pendingSpeedSamples());
      l.stateBytes.add(static_cast<double>(backend.stateBytes().size()));
    }
  };

  const double half = episode.periodSec / 2.0;
  const auto stepsPerFuse = static_cast<std::size_t>(
      std::max(1.0, std::round(1.0 / episode.periodSec)));
  std::size_t steps = 0;
  for (std::size_t k = 0; k < episode.steps; ++k) {
    const double t = static_cast<double>(k) * episode.periodSec;
    for (std::size_t i = 0; i < readers; ++i) {
      Stopwatch sw;
      daemons[i]->runUntil(t);
      const double windowSec = sw.lap();
      std::vector<std::vector<dsp::CVec>> captures;
      double simSec = 0.0;
      for (std::size_t q = 0; q < kQueriesPerWindow; ++q) {
        sw.lap();
        sim::Capture capture = twin.query(i, t, twinRng[i]);
        const double dt = sw.lap();
        simSec += dt;
        if (traced) {
          phase.layers.simQueryUs.add(dt * kUs);
          captures.push_back(std::move(capture.antennaSamples));
        }
      }
      const double compute = windowSec - simSec;
      phase.e2e.rt.add(compute / (static_cast<double>(kQueriesPerWindow) *
                                  phy::kQueryInterval));
      phase.e2e.computeSec += compute;
      ++result.attempted;
      if (traced) {
        phase.layers.windowMs.add(windowSec * 1e3);
        phase.layers.computeSec += compute;
        replicas[i]->window(t, captures, phase.layers);
      }
      trueCounts[i].push_back(scene.trueCount(i, t));
    }
    // The uplink hop: frames sent this window have arrived half a period
    // later; acks go straight back down.
    for (std::size_t i = 0; i < readers; ++i)
      for (const auto& frame : up[i]->deliver(t + half))
        ingest(i, frame, t + half);
    if (k % stepsPerFuse == stepsPerFuse - 1) fuseAndPair(t + half);
    steps = k + 1;
    if (now() >= deadline) break;
  }

  // --- drain: seal what is open, deliver, and let the acks land ---
  const double tEnd = static_cast<double>(steps - 1) * episode.periodSec;
  const double tFlush = tEnd + half + 0.1;
  for (auto& d : daemons) d->shutdownFlush(tFlush);
  for (std::size_t i = 0; i < readers; ++i)
    for (const auto& frame : up[i]->deliver(tFlush + 0.5))
      ingest(i, frame, tFlush + 0.5);
  const double tDone = tFlush + 1.0;
  for (auto& d : daemons) d->shutdownFlush(tDone);
  fuseAndPair(tDone);
  if (traced) {
    const WalCounters walAfter = WalCounters::read();
    phase.layers.walFsyncs += walAfter.fsyncs - walBefore.fsyncs;
    phase.layers.walBytes += walAfter.bytes - walBefore.bytes;
  }

  // --- output checks ---
  std::size_t countsEnqueued = 0;
  for (std::size_t i = 0; i < readers; ++i) {
    const auto readerId = static_cast<std::uint32_t>(i + 1);
    const net::Outbox& outbox = daemons[i]->outbox();
    countsEnqueued += daemons[i]->stats().measurements;
    if (outbox.pendingBatches() != 0)
      result.fail("reader " + std::to_string(readerId) + ": " +
                      std::to_string(outbox.pendingBatches()) +
                      " batches never acked",
                  outbox.pendingBatches());
    if (const auto bad = acks.violations(readerId, outbox.nextSeq() - 1))
      result.fail("reader " + std::to_string(readerId) + ": " +
                      std::to_string(bad) + " batches not acked exactly once",
                  bad);
    if (const auto gaps = backend.gapCount(readerId))
      result.fail("reader " + std::to_string(readerId) + ": gapCount " +
                      std::to_string(gaps) + " after drain",
                  gaps);
  }
  if (backend.countsSize() != countsEnqueued)
    result.fail("countsSize " + std::to_string(backend.countsSize()) +
                    " != counts enqueued " + std::to_string(countsEnqueued),
                1);
  std::set<std::uint64_t> decodedIds;
  for (const net::DecodeReport& d : backend.decodes()) {
    if (std::none_of(episode.tags.begin(), episode.tags.end(),
                     [&](const TagSpec& tag) { return tag.id == d.id; }))
      result.fail("decoded id is not a true transponder id");
    else
      decodedIds.insert(d.id.factoryId);
  }

  // Quality: count error per window (the k-th count report of a reader is
  // its k-th window), decoded fraction, speed accuracy.
  std::vector<std::size_t> nth(readers, 0);
  for (const net::CountReport& c : backend.counts()) {
    const std::size_t i = c.readerId - 1;
    if (i >= readers || nth[i] >= trueCounts[i].size()) continue;
    phase.countAbsErr += std::abs(static_cast<double>(c.count) -
                                  static_cast<double>(trueCounts[i][nth[i]]));
    ++nth[i];
    ++phase.countWindows;
  }
  std::set<std::size_t> seenTags;
  for (std::size_t k = 0; k < steps; ++k)
    for (std::size_t i = 0; i < readers; ++i)
      for (std::size_t car :
           scene.carsInRange(i, static_cast<double>(k) * episode.periodSec))
        seenTags.insert(car);
  phase.tagsSeen += seenTags.size();
  phase.tagsDecoded += decodedIds.size();

  // A car "crossed both poles" once it is past the last pole's abeam
  // point with a few windows of track on the far side.
  const double lo = scene.reader(0).frontEnd.sampling.loFrequencyHz;
  const double lastPoleX = episode.poles.back().x;
  std::vector<std::size_t> crossed;
  if (readers >= 2)
    for (std::size_t c = 0; c < episode.tags.size(); ++c) {
      const TagSpec& tag = episode.tags[c];
      if (tag.parked) continue;
      const double abeamB = tag.t0 + (lastPoleX - tag.startX) / tag.speedMps;
      if (abeamB + 1.0 <= tEnd) crossed.push_back(c);
    }
  phase.carsBothPoles += crossed.size();
  // A speed fix belongs to the car that was abeam of both its poles at
  // the fix's crossing times (reader clocks are NTP-synced to tens of ms).
  // A fix whose CFO is far from that car's carrier rode a ghost track (a
  // data-line image of the car): it still times a real car, and is counted
  // apart.
  for (const net::SpeedFix& fix : speedFixes) {
    const auto abeam = [&](const TagSpec& tag, std::uint32_t readerId) {
      const double poleX = episode.poles.at(readerId - 1).x;
      return tag.t0 + (poleX - tag.startX) / tag.speedMps;
    };
    std::size_t match = episode.tags.size();
    double gap = 0.0;
    for (std::size_t c = 0; c < episode.tags.size(); ++c) {
      const TagSpec& tag = episode.tags[c];
      if (tag.parked || fix.readerA > readers || fix.readerB > readers ||
          std::abs(abeam(tag, fix.readerA) - fix.abeamTimeA) > 1.0 ||
          std::abs(abeam(tag, fix.readerB) - fix.abeamTimeB) > 1.0)
        continue;
      const double g =
          std::abs(scene.car(c).transponder.carrierHz() - lo - fix.cfoHz);
      if (match == episode.tags.size() || g < gap) {
        match = c;
        gap = g;
      }
    }
    if (match == episode.tags.size()) {
      result.fail("speed fix at CFO " + std::to_string(fix.cfoHz) +
                  " Hz has no ground-truth car");
      continue;
    }
    const double trueSpeed = episode.tags[match].speedMps;
    ++phase.speedFixes;
    if (gap > 5e3) ++phase.ghostFixes;
    phase.speedErrPctSum +=
        100.0 * std::abs(std::abs(fix.speedMps) - trueSpeed) / trueSpeed;
  }
}

Phase runPhase(ReaderEpisode (*makeEpisode)(std::uint64_t, std::size_t),
               const Options& options, double seconds, bool traced,
               RunResult& result, std::size_t firstEpisode = 0) {
  Phase phase;
  const double deadline = now() + seconds;
  for (std::size_t e = firstEpisode;; ++e) {
    runEpisode(makeEpisode(options.seed, e), traced, deadline, phase, result);
    if (now() >= deadline) break;
  }
  return phase;
}

RunResult runReader(ReaderEpisode (*makeEpisode)(std::uint64_t, std::size_t),
                    const Options& options, double rtTail, double ingestTail,
                    bool moving) {
  RunResult result;
  // Warm-up on episodes outside the measured sequence: page in code and
  // heap, fill caches, and let lazy set-up finish before timing.
  runPhase(makeEpisode, options, warmupSeconds(options), false, result,
           kWarmupEpisodeBase);
  if (!options.trace) {
    const Phase p =
        runPhase(makeEpisode, options, options.seconds, false, result);
    emitEndToEnd(p.e2e, rtTail, ingestTail, result);
    const auto share = [](double num, std::uint64_t den) {
      return formatNumber(num / static_cast<double>(std::max(den, 1ul)));
    };
    result.row("reader_rt_p50", formatNumber(p.e2e.rt.median()), "ratio",
               "reader compute per window / (8 queries x 1 ms)");
    result.row("reader_rt_tail", formatNumber(p.e2e.rt.percentile(rtTail)),
               "ratio", "= rt_tail");
    result.row("backend_batches_per_s", "n/a", "1/s",
               "fleet_ingest only (see batches_per_s)");
    result.row("count_abs_err", share(p.countAbsErr, p.countWindows), "count",
               "mean |estimate - trueCount| per window");
    result.row("decoded_frac",
               share(static_cast<double>(p.tagsDecoded), p.tagsSeen), "ratio",
               std::to_string(p.tagsDecoded) + " ids of " +
                   std::to_string(p.tagsSeen) + " transponders seen");
    if (!moving) {
      result.row("speed_rel_err_pct", "n/a", "%", "parked cars");
      result.row("fix_yield", "n/a", "ratio", "parked cars");
      return result;
    }
    result.row("speed_rel_err_pct",
               p.speedFixes > 0 ? share(p.speedErrPctSum, p.speedFixes) : "n/a",
               "%", "mean over " + std::to_string(p.speedFixes) + " fixes");
    const std::uint64_t trueFixes = p.speedFixes - p.ghostFixes;
    result.row("fix_yield",
               share(static_cast<double>(trueFixes), p.carsBothPoles),
               "ratio",
               std::to_string(trueFixes) + " fixes / " +
                   std::to_string(p.carsBothPoles) +
                   " cars past both poles (+" +
                   std::to_string(p.ghostFixes) + " on ghost CFOs)");
    return result;
  }
  // Traced run: the same episodes twice, first with the layer timers off
  // (the baseline for trace_overhead_frac), then on.
  const Phase base =
      runPhase(makeEpisode, options, options.seconds / 2.0, false, result);
  const Phase traced =
      runPhase(makeEpisode, options, options.seconds / 2.0, true, result);
  const double overhead = traced.e2e.rt.median() / base.e2e.rt.median() - 1.0;
  emitLayers(traced.layers, overhead, result);
  return result;
}

}  // namespace

RunResult runPlazaDense(const Options& options) {
  return runReader(plazaEpisode, options, 90.0, 90.0, false);
}

RunResult runCorridorPass(const Options& options) {
  return runReader(corridorEpisode, options, 95.0, 90.0, true);
}

}  // namespace perfbench
