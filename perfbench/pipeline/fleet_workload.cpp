// fleet_ingest: 64 poles' generated report streams (no reader DSP), each
// sealed by its own Outbox into v3 frames and ingested by one durable
// Backend (WAL group commit, periodic snapshotNow), with fuse/pairSpeeds
// on a 1 s cadence. Closed loop: one fleet tick (one second of traffic
// from every pole) at a time, one thread.
//
// A run is a sequence of fixed-length episodes, each with a fresh backend
// and durability directory: the backend keeps every count and decode it
// has ingested, so snapshot cost grows with episode age, and a fixed
// episode length keeps that state (and the numbers) independent of how
// fast the machine gets through a run.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "net/backend.hpp"
#include "net/outbox.hpp"
#include "pipeline/generator.hpp"
#include "pipeline/geometry.hpp"
#include "pipeline/layers.hpp"

namespace perfbench {

namespace {

using namespace caraoke;

constexpr double kUs = 1e6;
constexpr std::size_t kTicksPerEpisode = 90;
constexpr std::size_t kSnapshotEveryTicks = 45;
// Tail percentiles: per tick (hundreds per run) and per batch (tens of
// thousands per run).
constexpr double kRtTailPercentile = 95.0;
constexpr double kIngestTailPercentile = 99.0;

struct Phase {
  EndToEnd e2e;
  Layers layers;
  double speedErrPctSum = 0.0;
  std::uint64_t speedFixes = 0;
};

void runEpisode(const Options& options, std::size_t index, bool traced,
                double deadline, Phase& phase, RunResult& result) {
  constexpr std::size_t kPoles = FleetGenerator::kPoles;
  FleetGenerator generator(options.seed, index);
  const std::string dir =
      options.stateDir + "/fleet-" + std::to_string(index);
  std::filesystem::remove_all(dir);

  // --- set-up: outboxes, the durable backend, and its restore ---
  Stopwatch setup;
  net::BackendConfig config;
  config.speedWindowSec = FleetGenerator::kSpeedWindowSec;
  config.road.xMax = static_cast<double>(FleetGenerator::kPoles) *
                     FleetGenerator::kSpacingMeters;
  config.durability.dir = dir;
  // Group commit at each snapshot: a shared machine's fsync latency
  // swings by several times from run to run, so the benchmark keeps the
  // fsync count per tick small and measures the backend's own work.
  config.durability.fsyncPolicy = net::WalFsyncPolicy::kOnSnapshot;
  auto backend = std::make_unique<net::Backend>(config);
  std::vector<std::unique_ptr<net::Outbox>> outboxes;
  for (std::size_t p = 0; p < kPoles; ++p) {
    const auto readerId = static_cast<std::uint32_t>(p + 1);
    backend->registerReader(readerId,
                            geometryOf(readerNode(FleetGenerator::pole(p))));
    net::OutboxConfig outboxConfig;
    outboxConfig.readerId = readerId;
    outboxes.push_back(std::make_unique<net::Outbox>(
        outboxConfig, Rng(options.seed ^ (0x0b0cull << 16) ^ p)));
  }
  const auto restored = backend->restore();
  phase.e2e.setupSec.add(setup.lap());
  if (!restored.ok()) {
    result.fail("Backend::restore failed: " + restored.error());
    return;
  }

  AckLedger acks;
  std::uint64_t countsEnqueued = 0;
  std::vector<net::SpeedFix> speedFixes;
  const WalCounters walBefore = WalCounters::read();
  Layers& l = phase.layers;

  // Ingest one frame from pole p; `firstDelivery` says whether its ack
  // must retire a pending outbox batch (a duplicate's ack must not).
  auto ingest = [&](std::size_t p, const std::vector<std::uint8_t>& frame,
                    double at, bool firstDelivery) {
    Stopwatch sw;
    const auto r = backend->ingestBatch(frame);
    const double dt = sw.lap();
    phase.e2e.ingestUs.add(dt * kUs);
    if (traced) {
      l.ingestUs.add(dt * kUs);
      l.coveredSec += dt;
    }
    if (!r.ok()) {
      result.fail("ingestBatch rejected a well-formed frame: " + r.error());
      return;
    }
    const net::BatchIngestStats& s = r.value();
    if (s.deduplicated != !firstDelivery)
      result.fail("pole " + std::to_string(p + 1) + " seq " +
                  std::to_string(s.seq) +
                  (firstDelivery ? ": first delivery deduplicated"
                                 : ": retransmission ingested twice"));
    if (s.deduplicated) {
      if (traced) ++l.dedups;
    } else {
      acks.ingested(s.readerId, s.seq);
    }
    if (!s.hasAck || outboxes[p]->onAckFrame(s.ack, at) != firstDelivery)
      result.fail("pole " + std::to_string(p + 1) + " seq " +
                  std::to_string(s.seq) + ": ack did not retire it once");
  };

  for (std::size_t tick = 0; tick < kTicksPerEpisode; ++tick) {
    const FleetTick traffic = generator.next();  // generator: not timed
    const double t = traffic.startSec + FleetGenerator::kTickSec;
    std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> resend;

    Stopwatch tickWatch;
    Stopwatch sw;
    for (std::size_t p = 0; p < kPoles; ++p) {
      if (traced) sw.lap();
      for (const net::Message& m : traffic.reports[p]) {
        outboxes[p]->add(m);
        countsEnqueued += std::holds_alternative<net::CountReport>(m);
      }
      outboxes[p]->seal(t);
      const auto sent = outboxes[p]->collectTransmissions(t);
      if (traced) {
        const double dt = sw.lap();
        for (const auto& tx : sent) {
          l.outboxUs.add(dt * kUs / static_cast<double>(sent.size()));
          l.frameBytes.add(static_cast<double>(tx.frame.size()));
        }
        l.coveredSec += dt;
      }
      for (const auto& tx : sent) {
        ++result.attempted;
        ++phase.e2e.batches;
        ingest(p, tx.frame, t, true);
        if (std::find(traffic.duplicatePoles.begin(),
                      traffic.duplicatePoles.end(),
                      p) != traffic.duplicatePoles.end())
          resend.emplace_back(p, tx.frame);
      }
    }
    // Retransmitted duplicates arrive after the tick's fresh frames.
    for (const auto& [p, frame] : resend) ingest(p, frame, t, false);

    if (traced) sw.lap();
    const auto fused = backend->fuse(t);
    const double fuseSec = traced ? sw.lap() : 0.0;
    const auto paired = backend->pairSpeeds(t);
    const double pairSec = traced ? sw.lap() : 0.0;
    speedFixes.insert(speedFixes.end(), paired.begin(), paired.end());
    bool snapshotted = false;
    double snapshotSec = 0.0;
    if ((tick + 1) % kSnapshotEveryTicks == 0) {
      if (traced) sw.lap();
      snapshotted = backend->snapshotNow();
      if (traced) snapshotSec = sw.lap();
      if (!snapshotted) result.fail("snapshotNow failed");
    }
    const double tickSec = tickWatch.lap();
    phase.e2e.rt.add(tickSec / FleetGenerator::kTickSec);
    phase.e2e.computeSec += tickSec;

    if (traced) {
      l.fuseUs.add(fuseSec * kUs);
      l.pairUs.add(pairSec * kUs);
      l.fuseFixes += static_cast<double>(fused.size());
      l.pairFixes += static_cast<double>(paired.size());
      l.pendingSightings += static_cast<double>(backend->pendingSightings());
      l.pendingSpeed += static_cast<double>(backend->pendingSpeedSamples());
      l.coveredSec += fuseSec + pairSec + snapshotSec;
      l.computeSec += tickSec;
      if (snapshotted) {
        l.snapshotUs.add(snapshotSec * kUs);
        l.stateBytes.add(static_cast<double>(backend->stateBytes().size()));
      }
    }
    if (now() >= deadline) break;
  }
  if (traced) {
    const WalCounters walAfter = WalCounters::read();
    l.walFsyncs += walAfter.fsyncs - walBefore.fsyncs;
    l.walBytes += walAfter.bytes - walBefore.bytes;
  }

  // --- output checks (every frame was acked synchronously) ---
  for (std::size_t p = 0; p < kPoles; ++p) {
    const auto readerId = static_cast<std::uint32_t>(p + 1);
    if (outboxes[p]->pendingBatches() != 0)
      result.fail("pole " + std::to_string(readerId) + ": " +
                      std::to_string(outboxes[p]->pendingBatches()) +
                      " batches never acked",
                  outboxes[p]->pendingBatches());
    if (const auto bad = acks.violations(readerId, outboxes[p]->nextSeq() - 1))
      result.fail("pole " + std::to_string(readerId) + ": " +
                      std::to_string(bad) + " batches not acked exactly once",
                  bad);
    if (const auto gaps = backend->gapCount(readerId))
      result.fail("pole " + std::to_string(readerId) + ": gapCount " +
                      std::to_string(gaps) + " after drain",
                  gaps);
  }
  if (backend->countsSize() != countsEnqueued)
    result.fail("countsSize " + std::to_string(backend->countsSize()) +
                " != counts enqueued " + std::to_string(countsEnqueued));
  const std::vector<FleetCar>& cars = generator.cars();
  for (const net::DecodeReport& d : backend->decodes())
    if (std::none_of(cars.begin(), cars.end(),
                     [&](const FleetCar& car) { return car.id == d.id; }))
      result.fail("decoded id is not a true transponder id");
  for (const net::SpeedFix& fix : speedFixes) {
    // The fix must belong to a car whose route passes both poles.
    const FleetCar* match = nullptr;
    double gap = 4e3;
    for (const FleetCar& car : cars) {
      const auto onRoute = [&](std::uint32_t readerId) {
        const std::size_t p = readerId - 1;
        return p >= car.firstPole && p < car.firstPole + car.poles;
      };
      if (!onRoute(fix.readerA) || !onRoute(fix.readerB)) continue;
      if (std::abs(car.cfoHz - fix.cfoHz) < gap) {
        gap = std::abs(car.cfoHz - fix.cfoHz);
        match = &car;
      }
    }
    if (match == nullptr) {
      result.fail("speed fix at CFO " + std::to_string(fix.cfoHz) +
                  " Hz has no ground-truth car");
      continue;
    }
    ++phase.speedFixes;
    phase.speedErrPctSum += 100.0 *
                            std::abs(std::abs(fix.speedMps) - match->speedMps) /
                            match->speedMps;
  }

  backend.reset();
  std::filesystem::remove_all(dir);
}

Phase runPhase(const Options& options, double seconds, bool traced,
               RunResult& result, std::size_t firstEpisode = 0) {
  Phase phase;
  const double deadline = now() + seconds;
  for (std::size_t e = firstEpisode;; ++e) {
    runEpisode(options, e, traced, deadline, phase, result);
    if (now() >= deadline) break;
  }
  return phase;
}

}  // namespace

RunResult runFleetIngest(const Options& options) {
  RunResult result;
  runPhase(options, warmupSeconds(options), false, result, kWarmupEpisodeBase);
  if (!options.trace) {
    const Phase p = runPhase(options, options.seconds, false, result);
    emitEndToEnd(p.e2e, kRtTailPercentile, kIngestTailPercentile, result);
    const double batchesPerSec =
        static_cast<double>(p.e2e.batches) / p.e2e.computeSec;
    result.row("reader_rt_p50", "n/a", "ratio", "no reader DSP");
    result.row("reader_rt_tail", "n/a", "ratio", "no reader DSP");
    result.row("backend_batches_per_s", formatNumber(batchesPerSec), "1/s",
               "= batches_per_s");
    result.row("count_abs_err", "n/a", "count", "counts are generated");
    result.row("decoded_frac", "n/a", "ratio", "decodes are generated");
    result.row("speed_rel_err_pct",
               p.speedFixes > 0
                   ? formatNumber(p.speedErrPctSum /
                                  static_cast<double>(p.speedFixes))
                   : "n/a",
               "%", "mean over " + std::to_string(p.speedFixes) + " fixes");
    result.row("fix_yield", "n/a", "ratio", "corridor_pass only");
    return result;
  }
  const Phase base = runPhase(options, options.seconds / 2.0, false, result);
  const Phase traced = runPhase(options, options.seconds / 2.0, true, result);
  const double overhead = traced.e2e.rt.median() / base.e2e.rt.median() - 1.0;
  emitLayers(traced.layers, overhead, result);
  return result;
}

}  // namespace perfbench
