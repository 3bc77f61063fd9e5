// Crash-recovery chaos suite (`ctest -L crash`): the backend is killed
// at injected points — mid-ingest between appends, mid-WAL-write (a real
// torn record on disk), and mid-snapshot (tmp written, rename never
// happened) — then restarted and restored. The invariants: the restored
// backend is byte-identically equal to the pre-crash one (stateBytes),
// a retransmitted batch the dead backend already acked is re-acked from
// the persisted dedup map, and the flagship plaza keeps its exactly-once
// sighting guarantee end-to-end through the PR-2 lossy link with the
// crash landing mid-stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "apps/reader_daemon.hpp"
#include "common/rng.hpp"
#include "net/backend.hpp"
#include "net/link.hpp"
#include "net/outbox.hpp"
#include "net/snapshot.hpp"
#include "obs/metrics.hpp"
#include "scenes_helpers.hpp"
#include "sim/scene.hpp"

namespace caraoke {
namespace {

std::string makeTempDir(const char* tag) {
  std::string pattern = ::testing::TempDir() + tag + "XXXXXX";
  std::vector<char> buf(pattern.begin(), pattern.end());
  buf.push_back('\0');
  char* made = ::mkdtemp(buf.data());
  EXPECT_NE(made, nullptr);
  return made != nullptr ? std::string(made) : std::string();
}

net::BackendConfig durableConfig(const std::string& dir) {
  net::BackendConfig config;
  config.durability.dir = dir;
  config.durability.fsyncPolicy = net::WalFsyncPolicy::kEveryAppend;
  return config;
}

// One batch frame: a count plus a sighting, both keyed to the seq so
// every batch mutates the state differently.
std::vector<std::uint8_t> frameWith(std::uint32_t readerId,
                                    std::uint32_t seq) {
  const double t = static_cast<double>(seq);
  return net::encodeBatchV3(
      {readerId, seq},
      {net::Message{net::CountReport{readerId, t, seq}},
       net::Message{
           net::SightingReport{readerId, t, 600e3 + seq, 0, 0.1 * seq, 2.0}}});
}

// Injection point 1: killed between batches (mid-ingest from the
// stream's point of view). The restored backend must be byte-identical
// and still dedup a retransmission of anything it acked before dying.
TEST(CrashRecovery, MidIngestRestartIsByteIdenticalAndDedups) {
  const std::string dir = makeTempDir("crash_mid_");
  auto config = durableConfig(dir);
  config.durability.snapshotEveryAppends = 4;  // snapshots at 4 and 8

  auto backend = std::make_unique<net::Backend>(config);
  EXPECT_TRUE(backend->recovering());  // durable => restore() first
  EXPECT_FALSE(backend->ingestBatch(frameWith(1, 1)).ok());
  auto fresh = backend->restore();
  ASSERT_TRUE(fresh.ok()) << fresh.error();
  EXPECT_EQ(fresh.value().replayedRecords, 0u);  // empty dir: clean start
  EXPECT_FALSE(backend->recovering());

  for (std::uint32_t seq = 1; seq <= 10; ++seq) {
    const auto result = backend->ingestBatch(frameWith(1, seq));
    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_TRUE(result.value().hasAck);
  }
  const std::vector<std::uint8_t> preCrash = backend->stateBytes();

  // SIGKILL equivalent: the object dies with no flush, no snapshot, no
  // goodbye. Only what already reached the durability dir survives.
  backend.reset();

  auto restarted = std::make_unique<net::Backend>(durableConfig(dir));
  EXPECT_TRUE(restarted->recovering());
  const auto restored = restarted->restore();
  ASSERT_TRUE(restored.ok()) << restored.error();
  EXPECT_EQ(restored.value().snapshotSeq, 2u);      // newest = append 8
  EXPECT_EQ(restored.value().replayedRecords, 2u);  // tail: seqs 9, 10
  EXPECT_EQ(restored.value().corruptRecords, 0u);
  EXPECT_FALSE(restarted->recovering());

  EXPECT_EQ(restarted->stateBytes(), preCrash);  // byte-identical
  EXPECT_EQ(restarted->highestSeq(1), 10u);
  EXPECT_EQ(restarted->gapCount(1), 0u);

  // The ack for seq 7 died with the old process; the reader retransmits.
  // The persisted dedup map proves it was ingested: re-ack, no re-ingest.
  const auto dup = restarted->ingestBatch(frameWith(1, 7));
  ASSERT_TRUE(dup.ok()) << dup.error();
  EXPECT_TRUE(dup.value().deduplicated);
  EXPECT_TRUE(dup.value().hasAck);
  EXPECT_EQ(dup.value().accepted, 0u);
  EXPECT_EQ(restarted->stateBytes(), preCrash);  // dedup mutated nothing
}

// Injection point 2: killed mid-WAL-write. The append that was in flight
// leaves a real torn record on disk; it was never acked, so recovery
// salvages the intact prefix and the retransmission fills the hole.
TEST(CrashRecovery, TornWalRecordSalvagedAndRetransmitFillsIn) {
  const std::string dir = makeTempDir("crash_torn_");
  auto config = durableConfig(dir);
  config.durability.tearWalAtAppend = 4;  // the 4th append tears mid-write

  auto backend = std::make_unique<net::Backend>(config);
  ASSERT_TRUE(backend->restore().ok());
  for (std::uint32_t seq = 1; seq <= 3; ++seq)
    ASSERT_TRUE(backend->ingestBatch(frameWith(2, seq)).ok());
  const std::vector<std::uint8_t> preCrash = backend->stateBytes();

  // The crash: append 4 dies mid-write — no ack (the reader's outbox
  // keeps the batch), no state mutation, and the backend is gone.
  const auto dying = backend->ingestBatch(frameWith(2, 4));
  EXPECT_FALSE(dying.ok());
  EXPECT_FALSE(backend->durable());
  EXPECT_FALSE(backend->ingestBatch(frameWith(2, 5)).ok());  // dead is dead
  EXPECT_EQ(backend->stateBytes(), preCrash);  // the torn batch never landed
  backend.reset();

  auto restarted = std::make_unique<net::Backend>(durableConfig(dir));
  const auto restored = restarted->restore();
  ASSERT_TRUE(restored.ok()) << restored.error();
  EXPECT_EQ(restored.value().replayedRecords, 3u);
  EXPECT_EQ(restored.value().corruptRecords, 1u);  // the torn tail
  EXPECT_GT(restored.value().salvagedBytes, 0u);
  EXPECT_EQ(restarted->stateBytes(), preCrash);

  // The "retransmission" of the torn batch is new to the restored
  // backend — ingested normally, exactly once.
  const auto retx = restarted->ingestBatch(frameWith(2, 4));
  ASSERT_TRUE(retx.ok()) << retx.error();
  EXPECT_FALSE(retx.value().deduplicated);
  EXPECT_EQ(retx.value().accepted, 2u);
  const std::vector<std::uint8_t> withFour = restarted->stateBytes();
  restarted.reset();

  // Third generation: the torn tail was truncated before the new append,
  // so the log parses clean end-to-end and replays everything.
  net::Backend third(durableConfig(dir));
  const auto again = third.restore();
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_EQ(again.value().corruptRecords, 0u);
  EXPECT_EQ(again.value().replayedRecords, 4u);
  EXPECT_EQ(third.stateBytes(), withFour);
}

// Injection point 3: killed mid-snapshot. The tmp file is on disk, the
// rename never happened — the loader must fall back to the previous
// snapshot and the WAL tail still covers everything that was acked.
TEST(CrashRecovery, MidSnapshotCrashFallsBackToWalCoverage) {
  const std::string dir = makeTempDir("crash_snap_");
  auto config = durableConfig(dir);
  config.durability.snapshotEveryAppends = 3;
  config.durability.tearSnapshotAtSeq = 2;  // second snapshot cut dies

  auto backend = std::make_unique<net::Backend>(config);
  ASSERT_TRUE(backend->restore().ok());
  for (std::uint32_t seq = 1; seq <= 5; ++seq)
    ASSERT_TRUE(backend->ingestBatch(frameWith(3, seq)).ok());
  // Append 6 ingests and acks fine, then the automatic snapshot (seq 2)
  // dies after its tmp write — the process is gone from here on.
  const auto last = backend->ingestBatch(frameWith(3, 6));
  ASSERT_TRUE(last.ok()) << last.error();
  EXPECT_TRUE(last.value().hasAck);
  EXPECT_FALSE(backend->durable());
  EXPECT_FALSE(backend->ingestBatch(frameWith(3, 7)).ok());
  const std::vector<std::uint8_t> preCrash = backend->stateBytes();
  backend.reset();

  // The half-written tmp is really there, and really ignored.
  EXPECT_TRUE(std::filesystem::exists(
      dir + "/" + net::snapshotFileName(2) + ".tmp"));
  EXPECT_EQ(net::newestSnapshotSeq(dir), 1u);

  net::Backend restarted(durableConfig(dir));
  const auto restored = restarted.restore();
  ASSERT_TRUE(restored.ok()) << restored.error();
  EXPECT_EQ(restored.value().snapshotSeq, 1u);      // fell back cleanly
  EXPECT_EQ(restored.value().replayedRecords, 3u);  // seqs 4..6 from the log
  EXPECT_EQ(restarted.stateBytes(), preCrash);

  // The restored backend reuses the torn snapshot's number for its next
  // cut — and this one lands atomically.
  EXPECT_TRUE(restarted.snapshotNow());
  EXPECT_EQ(net::newestSnapshotSeq(dir), 2u);
  std::size_t rejected = 1;
  const auto reloaded = net::loadNewestSnapshot(dir, &rejected);
  EXPECT_EQ(reloaded.seq, 2u);
  EXPECT_EQ(rejected, 0u);
}

// Satellite fix: a batch the backend acked before crashing, whose ack
// the reader never saw, is retransmitted by the outbox — the restored
// backend must re-ack it from the persisted dedup map so the outbox can
// finally drain (ack-loss-across-restart).
TEST(CrashRecovery, OutboxRetransmitOfPreCrashAckedBatchIsReacked) {
  const std::string dir = makeTempDir("crash_reack_");

  net::OutboxConfig outboxConfig;
  outboxConfig.readerId = 9;
  outboxConfig.initialBackoffSec = 1.0;
  outboxConfig.jitterFraction = 0.0;
  obs::Registry registry;
  net::Outbox outbox(outboxConfig, Rng(5), &registry);
  outbox.add(net::Message{net::CountReport{9, 0.0, 42}});
  ASSERT_TRUE(outbox.seal(0.0));
  const auto first = outbox.collectTransmissions(0.0);
  ASSERT_EQ(first.size(), 1u);

  auto backend = std::make_unique<net::Backend>(durableConfig(dir));
  ASSERT_TRUE(backend->restore().ok());
  const auto ingested = backend->ingestBatch(first[0].frame);
  ASSERT_TRUE(ingested.ok());
  ASSERT_TRUE(ingested.value().hasAck);
  // The ack is lost on the downlink; the backend dies right after.
  backend.reset();

  net::Backend restarted(durableConfig(dir));
  ASSERT_TRUE(restarted.restore().ok());

  // Backoff expires, the outbox retransmits the same wire bytes.
  const auto retry = outbox.collectTransmissions(1.5);
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_EQ(retry[0].attempt, 2u);
  const auto redo = restarted.ingestBatch(retry[0].frame);
  ASSERT_TRUE(redo.ok()) << redo.error();
  EXPECT_TRUE(redo.value().deduplicated);  // persisted map proves ingestion
  ASSERT_TRUE(redo.value().hasAck);
  EXPECT_EQ(restarted.countsSize(), 1u);  // exactly once, across the crash

  // This re-ack is what finally drains the reader.
  EXPECT_TRUE(outbox.onAckFrame(redo.value().ack, 2.0));
  EXPECT_EQ(outbox.pendingBatches(), 0u);
}

// --------------------------------------------------------- the big one --

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

// The flagship: a two-reader plaza through the PR-2 lossy link (20%
// drop, corruption, dup, reorder) with the backend crashing mid-stream —
// the WAL tears on an append partway in, every later frame goes unacked,
// and at t=80 the replacement process restores and takes over. The
// paper-level invariant must hold across the crash: every sighting
// reaches the (eventual) backend exactly once.
TEST(CrashChaos, PlazaExactlyOnceAcrossBackendCrash) {
  const std::string dir = makeTempDir("crash_plaza_");

  Rng rng(21);
  sim::Scene scene = plazaScene(rng, 3);

  net::LinkConfig lossy;
  lossy.dropProbability = 0.20;
  lossy.bitFlipPerBit = 1e-4;
  lossy.duplicateProbability = 0.05;
  lossy.reorderProbability = 0.05;
  lossy.latencyMeanSec = 0.05;
  lossy.latencyJitterSec = 0.02;

  testhelpers::LinkPair link1(lossy, 401);
  testhelpers::LinkPair link2(lossy, 501);

  apps::ReaderDaemonConfig config;
  config.queriesPerWindow = 4;
  config.decodeCollisionsPerWindow = 2;
  config.uplinkPeriodSec = 5.0;
  config.outbox.initialBackoffSec = 2.0;
  config.outbox.backoffMultiplier = 2.0;
  config.outbox.maxBackoffSec = 8.0;
  config.outbox.maxAttempts = 0;  // never abandon: the crash must not lose data
  config.outbox.maxBufferedBytes = 64 * 1024;

  config.readerId = 1;
  apps::ReaderDaemon d1(config, scene, 0, rng.fork());
  link1.attach(d1);
  config.readerId = 2;
  apps::ReaderDaemon d2(config, scene, 1, rng.fork());
  link2.attach(d2);

  // Generation 1: durable, fsync-every-append, and doomed — the 14th WAL
  // append (mid-stream, ~t=35) tears and the process is dead weight
  // until the t=80 "restart".
  auto genOneConfig = durableConfig(dir);
  genOneConfig.durability.tearWalAtAppend = 14;
  auto backend = std::make_unique<net::Backend>(genOneConfig);
  ASSERT_TRUE(backend->restore().ok());

  // Corrupt frames and frames the dead backend refuses go unacked.
  const auto pump = [&](double t) {
    link1.pump(*backend, t);
    link2.pump(*backend, t);
  };

  for (double t = 1.0; t <= 80.0; t += 1.0) {
    d1.runUntil(t);
    d2.runUntil(t);
    pump(t);
  }
  EXPECT_FALSE(backend->durable());  // the injected tear really fired

  // Restart: a new process on the same durability dir. Everything acked
  // by generation 1 is replayed from its WAL; the torn append and all
  // the unacked frames after it are still sitting in the outboxes.
  backend.reset();
  backend = std::make_unique<net::Backend>(durableConfig(dir));
  obs::Counter& dedups =
      obs::globalRegistry().counter("net.backend.duplicate_batches");
  const std::uint64_t dedupsAtRestore = dedups.value();
  const auto restored = backend->restore();
  ASSERT_TRUE(restored.ok()) << restored.error();
  EXPECT_GT(restored.value().replayedRecords, 0u);
  EXPECT_EQ(restored.value().corruptRecords, 1u);  // the torn record

  for (double t = 81.0; t <= 200.0; t += 1.0) {
    d1.runUntil(t);
    d2.runUntil(t);
    pump(t);
  }

  // Quiesce: swap in lossless links and graceful-shutdown-flush both
  // poles (seal immediately, no waiting for the period), so the tail —
  // including anything still pending from the crash window — lands
  // before the audit.
  testhelpers::LinkPair quiet1;
  testhelpers::LinkPair quiet2;
  quiet1.attach(d1);
  quiet2.attach(d2);
  for (double t = 201.0; t <= 210.0; t += 1.0) {
    d1.runUntil(t);
    d2.runUntil(t);
    quiet1.pump(*backend, t);
    quiet2.pump(*backend, t);
  }
  quiet1.shutdown(d1, *backend, 210.0);
  quiet2.shutdown(d2, *backend, 210.0);
  for (double t = 210.0; t <= 215.0; t += 1.0) pump(t);  // in-flight tail

  // ---- the crash was survivable chaos, not a quiet run ---------------
  EXPECT_GT(link1.up.stats().dropped + link2.up.stats().dropped, 0u);
  EXPECT_GT(d1.stats().uplinkRetries + d2.stats().uplinkRetries, 0u);
  // Batches acked by generation 1 whose acks were lost (downlink drop or
  // the crash itself) were retransmitted and re-acked from the restored
  // dedup map — the satellite-6 invariant, observed in the wild.
  EXPECT_GT(dedups.value(), dedupsAtRestore);

  // ---- exactly-once sightings across the crash -----------------------
  const std::size_t reported =
      d1.registry().counter("daemon.sightings_reported").value() +
      d2.registry().counter("daemon.sightings_reported").value();
  ASSERT_GT(reported, 0u);
  EXPECT_EQ(backend->sightings().size(), reported);
  std::set<std::tuple<std::uint32_t, double, double>> unique;
  for (const auto& s : backend->sightings())
    unique.insert({s.readerId, s.timestamp, s.cfoHz});
  EXPECT_EQ(unique.size(), backend->sightings().size());

  // ---- gaps closed, outboxes drained ---------------------------------
  EXPECT_EQ(backend->gapCount(1), 0u);
  EXPECT_EQ(backend->gapCount(2), 0u);
  EXPECT_EQ(d1.outbox().pendingBatches(), 0u);
  EXPECT_EQ(d2.outbox().pendingBatches(), 0u);
  EXPECT_EQ(d1.outbox().openMessages(), 0u);  // shutdownFlush sealed the tail
  EXPECT_EQ(d2.outbox().openMessages(), 0u);

  // ---- and one more restart still round-trips byte-identically -------
  const std::vector<std::uint8_t> preShutdown = backend->stateBytes();
  backend.reset();
  net::Backend lastGen(durableConfig(dir));
  ASSERT_TRUE(lastGen.restore().ok());
  EXPECT_EQ(lastGen.stateBytes(), preShutdown);
}

}  // namespace
}  // namespace caraoke
