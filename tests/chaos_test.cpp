// Chaos tests for the fault-tolerant uplink: lossy-link model,
// store-and-forward outbox with retry/backoff/shedding, backend
// dedup/gap accounting, and the daemon's uplink-health watchdog.
//
// The flagship scenario drives a two-reader plaza through 20% frame
// drop, 1e-4 per-bit corruption, duplication, reordering, and one
// scripted 60 s total outage — and asserts the paper-level invariant the
// fire-and-forget uplink could not give: every SightingReport reaches
// the backend exactly once, only CountReports are shed under buffer
// pressure, and the loss/retry/gap accounting is visible in obs metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <variant>

#include "apps/reader_daemon.hpp"
#include "common/rng.hpp"
#include "net/backend.hpp"
#include "net/clock.hpp"
#include "net/link.hpp"
#include "net/outbox.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "scenes_helpers.hpp"
#include "sim/scene.hpp"

namespace caraoke {
namespace {

// ---------------------------------------------------------------- link --

TEST(UplinkLink, DeterministicForEqualSeeds) {
  net::LinkConfig config;
  config.dropProbability = 0.3;
  config.latencyMeanSec = 0.1;
  config.latencyJitterSec = 0.05;
  net::UplinkLink a(config, Rng(42));
  net::UplinkLink b(config, Rng(42));
  for (int i = 0; i < 50; ++i) {
    const std::vector<std::uint8_t> frame{static_cast<std::uint8_t>(i)};
    a.send(frame, i * 1.0);
    b.send(frame, i * 1.0);
  }
  const auto fromA = a.deliver(100.0);
  const auto fromB = b.deliver(100.0);
  EXPECT_EQ(fromA, fromB);  // same drops, same order, same payloads
  EXPECT_EQ(a.stats().dropped, b.stats().dropped);
  EXPECT_GT(a.stats().dropped, 0u);
  EXPECT_LT(a.stats().dropped, 50u);
}

TEST(UplinkLink, FaultPlanScriptsTotalOutage) {
  net::FaultPlan plan;
  plan.outages.push_back({5.0, 10.0});
  net::UplinkLink link(net::LinkConfig{}, Rng(1), plan);
  link.send({1}, 4.0);   // before the outage
  link.send({2}, 5.0);   // inside: dropped
  link.send({3}, 9.9);   // inside: dropped
  link.send({4}, 10.0);  // healed
  const auto delivered = link.deliver(100.0);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0][0], 1);
  EXPECT_EQ(delivered[1][0], 4);
  EXPECT_EQ(link.stats().outageDrops, 2u);
}

TEST(UplinkLink, DuplicationAndDeliveryOrder) {
  net::LinkConfig config;
  config.duplicateProbability = 1.0;
  config.latencyMeanSec = 0.01;
  net::UplinkLink link(config, Rng(2));
  link.send({7}, 0.0);
  EXPECT_TRUE(link.deliver(0.0).empty());  // still in flight
  const auto delivered = link.deliver(1.0);
  EXPECT_EQ(delivered.size(), 2u);  // original + duplicate
  EXPECT_EQ(link.stats().duplicated, 1u);
  EXPECT_EQ(link.inFlight(), 0u);
}

TEST(UplinkLink, BitFlipsCaughtByEnvelopeCrc) {
  net::LinkConfig config;
  config.bitFlipPerBit = 0.02;  // aggressive: frames almost surely hit
  config.latencyMeanSec = 0.0;
  net::UplinkLink link(config, Rng(3));
  std::size_t crcRejects = 0;
  for (int i = 0; i < 50; ++i)
    link.send(net::encodeBatchV3({1, static_cast<std::uint32_t>(i + 1)},
                                 {net::CountReport{1, i * 1.0, 3}}),
              0.0);
  for (const auto& frame : link.deliver(1.0))
    if (!net::decodeBatch(frame).ok()) ++crcRejects;
  EXPECT_GT(link.stats().corrupted, 0u);
  EXPECT_EQ(crcRejects, link.stats().corrupted);  // every flip is caught
}

// ---------------------------------------------------------------- acks --

TEST(Ack, RoundTripAndCorruptionRejected) {
  const auto bytes = net::encodeAck({42, 1234});
  const auto ack = net::decodeAck(bytes);
  ASSERT_TRUE(ack.ok()) << ack.error();
  EXPECT_EQ(ack.value().readerId, 42u);
  EXPECT_EQ(ack.value().seq, 1234u);

  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    auto corrupt = bytes;
    corrupt[byte] ^= 0x40;
    EXPECT_FALSE(net::decodeAck(corrupt).ok()) << byte;
  }
  EXPECT_FALSE(net::decodeAck({}).ok());
}

// -------------------------------------------------------------- outbox --

net::Message countMsg(std::uint32_t readerId, double t, std::uint32_t n) {
  return net::Message{net::CountReport{readerId, t, n}};
}

net::Message sightingMsg(std::uint32_t readerId, double t, double cfo) {
  return net::Message{net::SightingReport{readerId, t, cfo, 0, 1.0, 0.5}};
}

TEST(Outbox, AckRemovesPendingAndResetsWatchdog) {
  net::OutboxConfig config;
  config.readerId = 7;
  config.initialBackoffSec = 1.0;
  config.jitterFraction = 0.0;
  obs::Registry registry;
  net::Outbox outbox(config, Rng(1), &registry);

  EXPECT_FALSE(outbox.seal(0.0));  // nothing open: seal is a no-op
  outbox.add(countMsg(7, 0.0, 3));
  EXPECT_TRUE(outbox.seal(0.5));
  auto first = outbox.collectTransmissions(0.5);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].attempt, 1u);
  EXPECT_EQ(first[0].seq, 1u);

  // Backoff expired twice without an ack: retries counted as failures.
  ASSERT_EQ(outbox.collectTransmissions(1.5).size(), 1u);
  ASSERT_EQ(outbox.collectTransmissions(4.0).size(), 1u);
  EXPECT_EQ(outbox.consecutiveFailures(), 2u);
  EXPECT_EQ(registry.counter("outbox.retries").value(), 2u);

  // Ack via the wire format: pending drains, watchdog resets.
  EXPECT_TRUE(outbox.onAckFrame(net::encodeAck({7, 1}), 5.0));
  EXPECT_EQ(outbox.pendingBatches(), 0u);
  EXPECT_EQ(outbox.bufferedBytes(), 0u);
  EXPECT_EQ(outbox.consecutiveFailures(), 0u);

  // Acks for other readers or unknown seqs do not ack ours.
  outbox.add(countMsg(7, 6.0, 1));
  outbox.seal(6.0);
  EXPECT_FALSE(outbox.onAckFrame(net::encodeAck({8, 2}), 6.5));
  EXPECT_EQ(outbox.pendingBatches(), 1u);
}

TEST(Outbox, ExponentialBackoffAndRetryCap) {
  net::OutboxConfig config;
  config.readerId = 1;
  config.maxAttempts = 3;
  config.initialBackoffSec = 1.0;
  config.backoffMultiplier = 2.0;
  config.maxBackoffSec = 8.0;
  config.jitterFraction = 0.0;
  obs::Registry registry;
  net::Outbox outbox(config, Rng(1), &registry);

  outbox.add(countMsg(1, 0.0, 1));
  outbox.seal(0.0);
  ASSERT_EQ(outbox.collectTransmissions(0.0).size(), 1u);  // attempt 1
  EXPECT_TRUE(outbox.collectTransmissions(0.9).empty());   // backoff holds
  ASSERT_EQ(outbox.collectTransmissions(1.0).size(), 1u);  // attempt 2
  EXPECT_TRUE(outbox.collectTransmissions(2.5).empty());   // 2x backoff
  ASSERT_EQ(outbox.collectTransmissions(3.0).size(), 1u);  // attempt 3: cap
  EXPECT_EQ(outbox.pendingBatches(), 0u);                  // abandoned
  EXPECT_EQ(registry.counter("outbox.expired").value(), 1u);
  EXPECT_TRUE(outbox.collectTransmissions(100.0).empty());
}

TEST(Outbox, ShedsOldestCountsFirstAndKeepsSightings) {
  net::OutboxConfig config;
  config.readerId = 3;
  // Fits two full batches (211 B each with 4 counts + 1 sighting in the
  // v3 traced envelope) but not three: sealing the third forces the shed
  // policy.
  config.maxBufferedBytes = 450;
  config.jitterFraction = 0.0;
  obs::Registry registry;
  net::Outbox outbox(config, Rng(1), &registry);

  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 4; ++i)
      outbox.add(countMsg(3, batch * 10.0 + i, static_cast<std::uint32_t>(i)));
    outbox.add(sightingMsg(3, batch * 10.0 + 5.0, 500e3 + batch));
    outbox.seal(batch * 10.0);
  }
  EXPECT_EQ(outbox.pendingBatches(), 3u);
  EXPECT_LE(outbox.bufferedBytes(), config.maxBufferedBytes);
  EXPECT_GT(registry.counter("outbox.shed_counts").value(), 0u);
  EXPECT_EQ(registry.counter("outbox.shed_batches").value(), 0u);

  // Every sighting survived; counts were shed from the oldest batches
  // only, and the newest batch is untouched.
  const auto transmissions = outbox.collectTransmissions(100.0);
  ASSERT_EQ(transmissions.size(), 3u);
  std::size_t sightings = 0;
  std::size_t countsInNewest = 0;
  for (const auto& tx : transmissions) {
    const auto decoded = net::decodeBatch(tx.frame);
    ASSERT_TRUE(decoded.ok()) << decoded.error();
    for (const auto& m : decoded.value().messages) {
      if (std::holds_alternative<net::SightingReport>(m)) ++sightings;
      if (std::holds_alternative<net::CountReport>(m) && tx.seq == 3)
        ++countsInNewest;
    }
  }
  EXPECT_EQ(sightings, 3u);
  EXPECT_EQ(countsInNewest, 4u);
}

TEST(Outbox, WholeBatchDropIsLastResortAndKeepsSeqDense) {
  net::OutboxConfig config;
  config.readerId = 2;
  config.maxBufferedBytes = 80;  // not even one sighting-only batch pair
  config.jitterFraction = 0.0;
  obs::Registry registry;
  net::Outbox outbox(config, Rng(1), &registry);

  for (int batch = 0; batch < 3; ++batch) {
    outbox.add(sightingMsg(2, batch * 1.0, 600e3));
    outbox.seal(batch * 1.0);
  }
  // No counts to shed, so the oldest whole batches had to go.
  EXPECT_GT(registry.counter("outbox.shed_batches").value(), 0u);
  EXPECT_EQ(registry.counter("outbox.shed_counts").value(), 0u);
  EXPECT_GE(outbox.pendingBatches(), 1u);
  // The newest batch always survives.
  const auto transmissions = outbox.collectTransmissions(10.0);
  bool newestPresent = false;
  for (const auto& tx : transmissions) newestPresent |= (tx.seq == 3);
  EXPECT_TRUE(newestPresent);
}

// ------------------------------------------------------------- backend --

TEST(Backend, DedupsRetransmissionsAndAccountsGaps) {
  net::Backend backend;
  auto frameWith = [](std::uint32_t seq, std::uint32_t count) {
    return net::encodeBatchV3({5, seq},
                              {net::Message{net::CountReport{5, 1.0, count}}});
  };

  // seq 1 ingests and acks.
  auto r1 = backend.ingestBatch(frameWith(1, 10));
  ASSERT_TRUE(r1.ok()) << r1.error();
  EXPECT_TRUE(r1.value().hasAck);
  EXPECT_EQ(r1.value().accepted, 1u);
  const auto ack = net::decodeAck(r1.value().ack);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value().seq, 1u);

  // Retransmission of seq 1: re-acked, nothing double-ingested.
  auto r1again = backend.ingestBatch(frameWith(1, 10));
  ASSERT_TRUE(r1again.ok());
  EXPECT_TRUE(r1again.value().deduplicated);
  EXPECT_TRUE(r1again.value().hasAck);
  EXPECT_EQ(r1again.value().accepted, 0u);
  EXPECT_EQ(backend.counts().size(), 1u);

  // seq 3 before seq 2: a gap opens, then the straggler fills it.
  ASSERT_TRUE(backend.ingestBatch(frameWith(3, 30)).ok());
  EXPECT_EQ(backend.gapCount(5), 1u);
  ASSERT_TRUE(backend.ingestBatch(frameWith(2, 20)).ok());
  EXPECT_EQ(backend.gapCount(5), 0u);
  EXPECT_EQ(backend.highestSeq(5), 3u);
  EXPECT_EQ(backend.counts().size(), 3u);

  // A corrupt frame fails without an ack (that is what drives retry).
  auto corrupt = frameWith(4, 40);
  corrupt[8] ^= 0xFF;
  EXPECT_FALSE(backend.ingestBatch(corrupt).ok());
  EXPECT_EQ(backend.highestSeq(5), 3u);
}

TEST(Backend, SalvagesDamagedBatchMembers) {
  // A CRC-valid frame with one poisoned inner message: the backend keeps
  // the siblings, reports the loss instead of discarding all, and still
  // acks the batch (its seq is intact).
  auto bytes = net::encodeBatchV3({1, 1}, {countMsg(1, 1.0, 1),
                                           countMsg(1, 2.0, 2)});
  // First inner message's type tag: header 12 + len 2 + trace prefix.
  bytes[14 + net::kTracePrefixBytes] ^= 0xFF;

  net::Backend backend;
  const auto result = backend.ingestBatch(testhelpers::reseal(bytes));
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(result.value().accepted, 1u);
  EXPECT_EQ(result.value().droppedMessages, 1u);
  EXPECT_TRUE(result.value().hasAck);
  ASSERT_EQ(backend.counts().size(), 1u);
  EXPECT_EQ(backend.counts()[0].count, 2u);
}

// ------------------------------------------------- clock (missed NTP) --

TEST(ReaderClock, DriftAcrossMissedSyncWindowStaysFinite) {
  // A reader whose NTP sync is overdue keeps a drifting but finite
  // clock; the speed estimate degrades gracefully instead of NaN-ing.
  Rng rng(9);
  net::ReaderClock drifty(0.0, 50.0);  // 50 ppm fast
  drifty.ntpSync(0.0, net::kNtpResidualRmsSec, rng);
  net::ReaderClock synced(0.0, 0.0);
  synced.ntpSync(0.0, net::kNtpResidualRmsSec, rng);

  // 10 minutes with no resync: error grows linearly (drift * elapsed),
  // bounded and finite the whole way.
  double previous = drifty.localTime(0.0);
  for (double t = 10.0; t <= 600.0; t += 10.0) {
    const double local = drifty.localTime(t);
    EXPECT_TRUE(std::isfinite(local));
    EXPECT_GT(local, previous);  // monotone despite drift
    previous = local;
    const double err = std::abs(local - t);
    EXPECT_LT(err, 0.1 + 50e-6 * t);  // residual + accumulated drift
  }

  // Speed from two readers' timestamps, one clock 10 min stale: the
  // delay error is tens of ms, so a 20 m / 1 s crossing stays a sane
  // estimate (degraded accuracy, never NaN/inf).
  const double tA = synced.localTime(100.0);
  const double tB = drifty.localTime(101.0);
  const double speed = 20.0 / (tB - tA);
  EXPECT_TRUE(std::isfinite(speed));
  EXPECT_NEAR(speed, 20.0, 5.0);
}

sim::Scene plazaScene(Rng& rng, std::size_t cars) {
  sim::Scene scene(sim::Road{});
  scene.addReader(testhelpers::makeReader(0.0, -6.0, 60.0));
  scene.addReader(testhelpers::makeReader(8.0, 6.0, 60.0));
  phy::EmpiricalCfoModel cfoModel;
  for (std::size_t i = 0; i < cars; ++i)
    scene.addCar(sim::Transponder::random(cfoModel, rng),
                 std::make_unique<sim::ParkedMobility>(phy::Vec3{
                     -8.0 + 8.0 * static_cast<double>(i), 2.0, 1.2}));
  return scene;
}

TEST(ReaderDaemon, KeepsRunningWhenNtpSyncIsLate) {
  Rng rng(10);
  sim::Scene scene = plazaScene(rng, 2);
  apps::ReaderDaemonConfig config;
  config.queriesPerWindow = 4;
  config.ntpPeriodSec = 1e9;  // initial sync only, then never again
  config.uplinkPeriodSec = 5.0;
  apps::ReaderDaemon daemon(config, scene, 0, rng.fork());
  testhelpers::LinkPair link;
  link.attach(daemon);
  net::Backend backend;
  std::vector<std::vector<std::uint8_t>> frames;
  for (double t = 1.0; t <= 20.0; t += 1.0) {
    daemon.runUntil(t);
    for (auto& frame : link.pump(backend, t))
      frames.push_back(std::move(frame));
  }

  EXPECT_GE(daemon.stats().measurements, 20u);
  ASSERT_FALSE(frames.empty());
  for (const auto& frame : frames) {
    const auto decoded = net::decodeBatch(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.error();
    EXPECT_EQ(decoded.value().droppedMessages, 0u);  // nothing non-finite
    for (const auto& m : decoded.value().messages) {
      if (const auto* s = std::get_if<net::SightingReport>(&m)) {
        EXPECT_TRUE(std::isfinite(s->timestamp));
        EXPECT_TRUE(std::isfinite(s->cfoHz));
        EXPECT_TRUE(std::isfinite(s->angleRad));
      }
    }
  }
}

TEST(ReaderDaemon, NoLinkSendsNothingUntilOneIsAttached) {
  // Without a link the daemon transmits nothing and acks nothing: its
  // sealed batches wait in the outbox. The first tick after a link is
  // attached delivers all of them.
  Rng rng(13);
  sim::Scene scene = plazaScene(rng, 2);
  apps::ReaderDaemonConfig config;
  config.queriesPerWindow = 4;
  config.uplinkPeriodSec = 5.0;
  apps::ReaderDaemon daemon(config, scene, 0, rng.fork());
  daemon.runUntil(20.0);

  // Seals at t = 0, 5, 10, 15, 20: five batches held, none sent or acked.
  obs::Registry& reg = daemon.registry();
  EXPECT_EQ(daemon.outbox().pendingBatches(), 5u);
  EXPECT_EQ(daemon.stats().uplinkFlushes, 0u);
  EXPECT_EQ(daemon.stats().uplinkBytes, 0u);
  EXPECT_EQ(reg.counter("daemon.outbox.transmissions").value(), 0u);
  EXPECT_EQ(reg.counter("daemon.outbox.acked").value(), 0u);
  EXPECT_EQ(daemon.health(), apps::UplinkHealth::kHealthy);

  testhelpers::LinkPair link;
  link.attach(daemon);
  net::Backend backend;
  daemon.runUntil(21.0);  // not a flush-period multiple: no new seal
  EXPECT_EQ(link.pump(backend, 21.0).size(), 5u);
  EXPECT_EQ(backend.highestSeq(config.readerId), 5u);
  EXPECT_EQ(backend.gapCount(config.readerId), 0u);
  daemon.runUntil(22.0);  // reads the acks
  EXPECT_EQ(daemon.outbox().pendingBatches(), 0u);
  EXPECT_EQ(reg.counter("daemon.outbox.acked").value(), 5u);
  EXPECT_EQ(daemon.stats().uplinkRetries, 0u);
}

// --------------------------------------------------------- the big one --

// Two-reader plaza through 20% drop + 1e-4/bit corruption + dup +
// reorder + one 60 s scripted outage, on both the data uplink and the
// ack downlink. Invariants: exactly-once sightings, counts-only
// shedding, gap accounting that closes after heal, health watchdog
// round trip, and a drained outbox at the end.
TEST(Chaos, TwoReaderPlazaSurvivesOutageExactlyOnce) {
  obs::MemoryEventSink events;
  obs::ScopedEventSink scoped(&events);

  const auto backendBefore = [](const char* name) {
    return obs::globalRegistry().counter(name).value();
  };
  const auto dupsBefore = backendBefore("net.backend.duplicate_batches");
  const auto gapsBefore = backendBefore("net.backend.seq_gaps_opened");
  const auto errsBefore = backendBefore("net.backend.batch_errors");

  Rng rng(11);
  sim::Scene scene = plazaScene(rng, 3);

  net::LinkConfig lossy;
  lossy.dropProbability = 0.20;
  lossy.bitFlipPerBit = 1e-4;
  lossy.duplicateProbability = 0.05;
  lossy.reorderProbability = 0.05;
  lossy.latencyMeanSec = 0.05;
  lossy.latencyJitterSec = 0.02;

  net::FaultPlan outage;
  outage.outages.push_back({100.0, 160.0});  // 60 s of darkness

  testhelpers::LinkPair link1(lossy, 101, outage);
  testhelpers::LinkPair link2(lossy, 201, outage);

  apps::ReaderDaemonConfig config;
  config.queriesPerWindow = 4;
  config.decodeCollisionsPerWindow = 2;
  config.uplinkPeriodSec = 5.0;
  config.outbox.initialBackoffSec = 2.0;
  config.outbox.backoffMultiplier = 2.0;
  config.outbox.maxBackoffSec = 8.0;
  config.outbox.maxAttempts = 0;  // never abandon: the budget bounds memory
  config.outbox.maxBufferedBytes = 64 * 1024;

  config.readerId = 1;
  apps::ReaderDaemon d1(config, scene, 0, rng.fork());
  link1.attach(d1);
  config.readerId = 2;
  apps::ReaderDaemon d2(config, scene, 1, rng.fork());
  link2.attach(d2);

  net::Backend backend;

  // Chaos phase: 260 s of lossy links with the outage in the middle; the
  // 100 s after the heal give retransmissions room to drain naturally.
  for (double t = 1.0; t <= 260.0; t += 1.0) {
    d1.runUntil(t);
    d2.runUntil(t);
    link1.pump(backend, t);
    link2.pump(backend, t);
    if (t > 120.0 && t < 160.0) {
      // Mid-outage: the watchdog must have noticed by now.
      EXPECT_NE(d1.health(), apps::UplinkHealth::kHealthy) << "t=" << t;
      EXPECT_NE(d2.health(), apps::UplinkHealth::kHealthy) << "t=" << t;
    }
  }

  // Quiesce phase: swap in fresh lossless links so the tail of the
  // stream — still-pending retries and the final sealed batch — lands
  // before the exactly-once audit. 285 is a flush-period multiple, so the
  // last seal captures the last measurement window.
  testhelpers::LinkPair quiet1;
  testhelpers::LinkPair quiet2;
  quiet1.attach(d1);
  quiet2.attach(d2);
  for (double t = 261.0; t <= 285.0; t += 1.0) {
    d1.runUntil(t);
    d2.runUntil(t);
    quiet1.pump(backend, t);
    quiet2.pump(backend, t);
    // Stragglers still in the lossy pipes from the chaos phase: the
    // backend dedups whatever the lossless links already delivered.
    for (auto* link : {&link1, &link2})
      for (const auto& frame : link->up.deliver(t))
        (void)backend.ingestBatch(frame);
  }
  quiet1.shutdown(d1, backend, 285.0);
  quiet2.shutdown(d2, backend, 285.0);

  // ---- chaos actually happened ---------------------------------------
  EXPECT_GT(link1.up.stats().dropped + link2.up.stats().dropped, 0u);
  EXPECT_GT(link1.up.stats().corrupted + link2.up.stats().corrupted, 0u);
  EXPECT_GT(link1.up.stats().outageDrops + link2.up.stats().outageDrops, 0u);
  EXPECT_GT(d1.stats().uplinkRetries + d2.stats().uplinkRetries, 0u);
  EXPECT_GT(backendBefore("net.backend.duplicate_batches"), dupsBefore);
  EXPECT_GT(backendBefore("net.backend.seq_gaps_opened"), gapsBefore);
  EXPECT_GT(backendBefore("net.backend.batch_errors"), errsBefore);

  // ---- exactly-once sightings ----------------------------------------
  const std::size_t reported =
      d1.registry().counter("daemon.sightings_reported").value() +
      d2.registry().counter("daemon.sightings_reported").value();
  ASSERT_GT(reported, 0u);
  EXPECT_EQ(backend.sightings().size(), reported);
  std::set<std::tuple<std::uint32_t, double, double>> unique;
  for (const auto& s : backend.sightings())
    unique.insert({s.readerId, s.timestamp, s.cfoHz});
  EXPECT_EQ(unique.size(), backend.sightings().size());  // no duplicates

  // ---- only counts were shed, nothing expired ------------------------
  const auto outboxCtr = [](apps::ReaderDaemon& d, const char* name) {
    return d.registry().counter(name).value();
  };
  EXPECT_EQ(outboxCtr(d1, "daemon.outbox.shed_batches") +
                outboxCtr(d2, "daemon.outbox.shed_batches"),
            0u);
  EXPECT_EQ(outboxCtr(d1, "daemon.outbox.expired") +
                outboxCtr(d2, "daemon.outbox.expired"),
            0u);
  const std::size_t shedCounts =
      outboxCtr(d1, "daemon.outbox.shed_counts") +
      outboxCtr(d2, "daemon.outbox.shed_counts");
  const std::size_t countsReported =
      d1.registry().counter("daemon.counts_reported").value() +
      d2.registry().counter("daemon.counts_reported").value();
  EXPECT_LE(backend.counts().size(), countsReported);
  EXPECT_GE(backend.counts().size(), countsReported - shedCounts);

  // ---- the link healed: gaps closed, outboxes drained ----------------
  EXPECT_EQ(backend.gapCount(1), 0u);
  EXPECT_EQ(backend.gapCount(2), 0u);
  EXPECT_EQ(d1.outbox().pendingBatches(), 0u);
  EXPECT_EQ(d2.outbox().pendingBatches(), 0u);
  EXPECT_EQ(d1.outbox().openMessages(), 0u);  // final seal caught the tail
  EXPECT_EQ(d2.outbox().openMessages(), 0u);
  EXPECT_EQ(d1.health(), apps::UplinkHealth::kHealthy);
  EXPECT_EQ(d2.health(), apps::UplinkHealth::kHealthy);

  // ---- watchdog and retries are visible as events --------------------
  std::size_t wentDown = 0;
  std::size_t recovered = 0;
  std::size_t retries = 0;
  for (const auto& event : events.events()) {
    if (event.type == "daemon.health_change") {
      const auto* to = event.find("to");
      ASSERT_NE(to, nullptr);
      if (std::get<std::string>(*to) == "uplink_down") ++wentDown;
      if (std::get<std::string>(*to) == "healthy") ++recovered;
    }
    if (event.type == "daemon.uplink_retry") ++retries;
  }
  EXPECT_GE(wentDown, 2u);   // both daemons saw the outage
  EXPECT_GE(recovered, 2u);  // and both recovered after heal
  EXPECT_GT(retries, 0u);
}

// Tight-budget variant: same plaza, 60 s outage, but an outbox budget
// small enough that the shed policy engages. Sightings still arrive
// exactly once — only counts are sacrificed.
TEST(Chaos, OutboxPressureShedsOnlyCounts) {
  Rng rng(12);
  // One parked car: each 5 s v3 batch carries ~5 counts (175 B) + ~5
  // sightings (295 B), so counts are a meaningful slice of the buffer
  // and the budget can sit between "everything" and "sightings only".
  sim::Scene scene = plazaScene(rng, 1);

  net::LinkConfig lossy;
  lossy.dropProbability = 0.20;
  lossy.bitFlipPerBit = 1e-4;
  net::FaultPlan outage;
  outage.outages.push_back({30.0, 150.0});  // 120 s: real buffer pressure
  testhelpers::LinkPair link(lossy, 301, outage);

  apps::ReaderDaemonConfig config;
  config.readerId = 1;
  config.queriesPerWindow = 4;
  config.decodeCollisionsPerWindow = 2;
  config.uplinkPeriodSec = 5.0;
  config.outbox.initialBackoffSec = 2.0;
  config.outbox.maxBackoffSec = 8.0;
  config.outbox.maxAttempts = 0;
  // The 120 s outage accumulates ~11.5 KB of v3 batches; shedding every
  // CountReport brings that under budget (~7.5 KB of sightings remain),
  // so pass 1 of the shed policy always suffices and no sighting is
  // ever sacrificed.
  config.outbox.maxBufferedBytes = 19 * 512;  // 9.5 KB

  apps::ReaderDaemon daemon(config, scene, 0, rng.fork());
  link.attach(daemon);
  net::Backend backend;

  for (double t = 1.0; t <= 150.0; t += 1.0) {
    daemon.runUntil(t);
    link.pump(backend, t);
  }

  // Quiesce (see TwoReaderPlazaSurvivesOutageExactlyOnce): flush the
  // tail losslessly, then audit.
  testhelpers::LinkPair quiet;
  quiet.attach(daemon);
  for (double t = 151.0; t <= 180.0; t += 1.0) {
    daemon.runUntil(t);
    quiet.pump(backend, t);
    for (const auto& frame : link.up.deliver(t))
      (void)backend.ingestBatch(frame);
  }
  quiet.shutdown(daemon, backend, 180.0);

  obs::Registry& reg = daemon.registry();
  EXPECT_GT(reg.counter("daemon.outbox.shed_counts").value(), 0u);
  EXPECT_EQ(reg.counter("daemon.outbox.shed_batches").value(), 0u);
  EXPECT_EQ(reg.counter("daemon.outbox.expired").value(), 0u);

  const std::size_t reported =
      reg.counter("daemon.sightings_reported").value();
  ASSERT_GT(reported, 0u);
  EXPECT_EQ(backend.sightings().size(), reported);
  EXPECT_EQ(backend.gapCount(1), 0u);
  EXPECT_EQ(daemon.outbox().pendingBatches(), 0u);
  EXPECT_EQ(daemon.outbox().openMessages(), 0u);
}

}  // namespace
}  // namespace caraoke
