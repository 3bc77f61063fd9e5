// End-to-end telemetry test: run the reader firmware loop against a
// simulated scene with an event sink attached and check that (a) the
// domain-event stream tells the §10 story in order — query burst, count,
// decode attempt, uplink flush — with one trace per window, (b)
// DaemonStats is exactly the registry (it is a view, so any disagreement
// is a bug in the view), (c) the global registry picks up the pipeline
// counters end to end through the backend, and (d) the profiler trie
// roots at the window's steps.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/reader_daemon.hpp"
#include "common/rng.hpp"
#include "net/backend.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "scenes_helpers.hpp"
#include "sim/scene.hpp"

namespace caraoke {
namespace {

sim::Scene parkedScene(Rng& rng, std::size_t cars) {
  sim::Scene scene(sim::Road{});
  scene.addReader(testhelpers::makeReader(0.0, -6.0, 60.0));
  phy::EmpiricalCfoModel cfoModel;
  for (std::size_t i = 0; i < cars; ++i)
    scene.addCar(sim::Transponder::random(cfoModel, rng),
                 std::make_unique<sim::ParkedMobility>(phy::Vec3{
                     -12.0 + 8.0 * static_cast<double>(i), 2.0, 1.2}));
  return scene;
}

double firstTs(const std::vector<obs::Event>& events, const std::string& type) {
  for (const auto& e : events)
    if (e.type == type) return e.ts;
  return -1.0;
}

std::size_t countType(const std::vector<obs::Event>& events,
                      const std::string& type) {
  std::size_t n = 0;
  for (const auto& e : events)
    if (e.type == type) ++n;
  return n;
}

TEST(ObsIntegration, DaemonEmitsPipelineEventSequence) {
  obs::MemoryEventSink sink;
  obs::ScopedEventSink scoped(&sink);

  Rng rng(11);
  sim::Scene scene = parkedScene(rng, 3);
  apps::ReaderDaemonConfig config;
  config.uplinkPeriodSec = 10.0;
  apps::ReaderDaemon daemon(config, scene, 0, rng.fork());
  // The daemon flushes only over an attached link. Nothing acks here
  // (a backend would add its own events to the stream), so later
  // flushes carry retries — each an uplink_flush like the first.
  testhelpers::LinkPair link;
  link.attach(daemon);
  daemon.runUntil(30.0);

  const auto events = sink.events();
  ASSERT_FALSE(events.empty());

  // Every stage of the pipeline shows up.
  const double queryTs = firstTs(events, "daemon.query_burst");
  const double countTs = firstTs(events, "daemon.count");
  const double decodeTs = firstTs(events, "daemon.decode_attempt");
  const double uplinkTs = firstTs(events, "daemon.uplink_flush");
  ASSERT_GE(queryTs, 0.0);
  ASSERT_GE(countTs, 0.0);
  ASSERT_GE(decodeTs, 0.0);  // needs a confirmed track: a few windows in
  ASSERT_GE(uplinkTs, 0.0);
  EXPECT_LE(queryTs, countTs);
  EXPECT_LE(countTs, decodeTs);

  // Within each measurement window (events sharing a sim-time "t") the
  // daemon stages appear in pipeline order: query burst, count, decode
  // attempt, uplink flush.
  const auto stageRank = [](const std::string& type) {
    if (type == "daemon.query_burst") return 0;
    if (type == "daemon.count") return 1;
    if (type == "daemon.decode_attempt") return 2;
    if (type == "daemon.uplink_flush") return 3;
    return -1;  // other event types are unordered w.r.t. the stages
  };
  double windowT = -1.0;
  int lastRank = -1;
  for (const auto& event : events) {
    const int rank = stageRank(event.type);
    if (rank < 0) continue;
    const obs::FieldValue* t = event.find("t");
    ASSERT_NE(t, nullptr) << event.type;
    const double simT = std::get<double>(*t);
    if (simT != windowT) {
      windowT = simT;
      lastRank = -1;
    }
    EXPECT_GE(rank, lastRank) << event.type << " out of order at t=" << simT;
    lastRank = rank;
  }

  // Trace stamping: each window's query_burst, count, decode_attempt and
  // enqueue share one trace, minted fresh per window; the uplink flush
  // and the NTP sync belong to no window and carry none.
  std::map<double, std::string> windowTrace;
  std::set<std::string> minted;
  for (const auto& event : events) {
    const obs::FieldValue* trace = event.find("trace");
    if (event.type == "daemon.uplink_flush" ||
        event.type == "daemon.ntp_sync") {
      EXPECT_EQ(trace, nullptr) << event.type;
      continue;
    }
    if (event.type != "daemon.query_burst" && event.type != "daemon.count" &&
        event.type != "daemon.decode_attempt" &&
        event.type != "daemon.enqueue")
      continue;
    ASSERT_NE(trace, nullptr) << event.type;
    const std::string& hex = std::get<std::string>(*trace);
    const double simT = std::get<double>(*event.find("t"));
    const auto [it, opened] = windowTrace.emplace(simT, hex);
    if (opened)
      EXPECT_TRUE(minted.insert(hex).second) << "trace reused at t=" << simT;
    else
      EXPECT_EQ(it->second, hex) << event.type << " at t=" << simT;
  }
  EXPECT_EQ(windowTrace.size(), daemon.stats().measurements);
  EXPECT_GE(countType(events, "daemon.ntp_sync"), 1u);

  // One query burst and one count per measurement window.
  EXPECT_EQ(countType(events, "daemon.query_burst"),
            daemon.stats().measurements);
  EXPECT_EQ(countType(events, "daemon.count"), daemon.stats().measurements);
  EXPECT_EQ(countType(events, "daemon.uplink_flush"),
            daemon.stats().uplinkFlushes);

  // Parked cars get tracks: the tracker narrates openings.
  EXPECT_GE(countType(events, "tracker.track_opened"), 3u);

  // Timestamps are monotone non-decreasing (single-threaded daemon).
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].ts, events[i - 1].ts);

  // Event payloads carry the schema fields round-trippably.
  for (const auto& event : events) {
    const auto parsed = obs::parseJsonLine(obs::toJsonLine(event));
    ASSERT_TRUE(parsed.has_value()) << event.type;
    EXPECT_EQ(parsed->type, event.type);
    ASSERT_NE(event.find("t"), nullptr) << event.type;
  }
}

TEST(ObsIntegration, DaemonStatsAgreesWithRegistry) {
  Rng rng(12);
  sim::Scene scene = parkedScene(rng, 2);
  apps::ReaderDaemonConfig config;
  config.uplinkPeriodSec = 10.0;
  apps::ReaderDaemon daemon(config, scene, 0, rng.fork());
  daemon.runUntil(25.0);

  const apps::DaemonStats& stats = daemon.stats();
  obs::Registry& reg = daemon.registry();
  EXPECT_EQ(stats.measurements, reg.counter("daemon.measurements").value());
  EXPECT_EQ(stats.queriesSent, reg.counter("daemon.queries_sent").value());
  EXPECT_EQ(stats.decodedIds, reg.counter("daemon.decoded_ids").value());
  EXPECT_EQ(stats.uplinkFlushes, reg.counter("daemon.uplink_flushes").value());
  EXPECT_EQ(stats.uplinkBytes, reg.counter("daemon.uplink_bytes").value());
  EXPECT_DOUBLE_EQ(stats.energyJoules,
                   reg.gauge("daemon.energy_joules").value());

  // The window histogram saw one observation per measurement.
  EXPECT_EQ(reg.histogram("daemon.measurement_window.seconds").count(),
            stats.measurements);

  // Sanity: the run actually did work.
  EXPECT_GE(stats.measurements, 25u);
  EXPECT_GT(stats.queriesSent, 0u);
  EXPECT_GT(stats.energyJoules, 0.0);
}

TEST(ObsIntegration, TwoDaemonsDoNotAliasCounters) {
  Rng rng(13);
  sim::Scene scene = parkedScene(rng, 2);
  scene.addReader(testhelpers::makeReader(30.0, -6.0, 120.0));
  apps::ReaderDaemonConfig config;
  apps::ReaderDaemon a(config, scene, 0, rng.fork());
  apps::ReaderDaemon b(config, scene, 1, rng.fork());
  a.runUntil(10.0);
  b.runUntil(5.0);
  EXPECT_GE(a.stats().measurements, 10u);
  EXPECT_GE(b.stats().measurements, 5u);
  EXPECT_NE(a.stats().measurements, b.stats().measurements);
  EXPECT_NE(&a.registry().counter("daemon.measurements"),
            &b.registry().counter("daemon.measurements"));
}

TEST(ObsIntegration, GlobalRegistrySeesPipelineAndBackendCounters) {
  obs::Registry& global = obs::globalRegistry();
  const std::uint64_t fftBefore = global.counter("dsp.fft.calls").value();
  const std::uint64_t countBefore =
      global.counter("counter.count_calls").value();
  const std::uint64_t batchesBefore =
      global.counter("net.backend.batches_ingested").value();
  const std::uint64_t countReportsBefore =
      global.counter("net.backend.count_reports").value();

  Rng rng(14);
  sim::Scene scene = parkedScene(rng, 3);
  apps::ReaderDaemonConfig config;
  config.uplinkPeriodSec = 10.0;
  apps::ReaderDaemon daemon(config, scene, 0, rng.fork());
  testhelpers::LinkPair link;
  link.attach(daemon);
  net::Backend backend;
  std::size_t batches = 0;
  for (double t = 1.0; t <= 20.0; t += 1.0) {
    daemon.runUntil(t);
    batches += link.pump(backend, t).size();
  }
  ASSERT_GT(batches, 0u);
  ASSERT_GT(backend.countsSize(), 0u);

  EXPECT_GT(global.counter("dsp.fft.calls").value(), fftBefore);
  EXPECT_GT(global.counter("counter.count_calls").value(), countBefore);
  EXPECT_EQ(global.counter("net.backend.batches_ingested").value(),
            batchesBefore + batches);
  EXPECT_GT(global.counter("net.backend.count_reports").value(),
            countReportsBefore);

  // The CRC ledger moved: decode attempts ran against real collisions.
  EXPECT_GT(global.counter("decoder.crc_pass").value() +
                global.counter("decoder.crc_fail").value(),
            0u);
}

TEST(ObsIntegration, SpanTreeMirrorsWindowStructure) {
  if (!obs::prof::kCompiledIn)
    GTEST_SKIP() << "profiler compiled out (CARAOKE_PROF=OFF)";
  obs::prof::reset();

  Rng rng(15);
  sim::Scene scene = parkedScene(rng, 2);
  apps::ReaderDaemonConfig config;
  apps::ReaderDaemon daemon(config, scene, 0, rng.fork());
  daemon.runUntil(5.0);

  // The trie roots at the window's steps, each called a fixed number of
  // times per window: one query per burst slot, one count and one
  // observe (analyzing every query), and at most the decode budget.
  const obs::prof::ProfileSnapshot profile = obs::prof::snapshot();
  const auto calls = [&](const std::string& stack) -> std::uint64_t {
    for (const auto& path : profile.paths)
      if (path.stack == stack) return path.calls;
    return 0;
  };
  const std::uint64_t windows = daemon.stats().measurements;
  const std::uint64_t queries = windows * config.queriesPerWindow;
  ASSERT_GT(windows, 0u);
  EXPECT_EQ(calls("sim.query"), queries);
  EXPECT_EQ(calls("core.count"), windows);
  EXPECT_EQ(calls("core.observe"), windows);
  EXPECT_EQ(calls("core.observe;core.analyze"), queries);
  EXPECT_LE(calls("core.decode"),
            windows * config.decodeCollisionsPerWindow);
}

}  // namespace
}  // namespace caraoke
