// Concurrency stress rig (ctest label `race`): hammers every path that
// claims thread-safety from 8+ threads so ThreadSanitizer can prove the
// absence of data races. Build with -DCARAOKE_SANITIZE=thread and run
// `ctest -L race` (scripts/ci_static.sh does exactly that).
//
// The tests also run — and must pass — in a plain build: besides the
// race detection they assert conservation invariants (no update lost,
// no message ingested twice) that a broken lock would violate even
// without TSan watching.
//
// Static counterpart: every class hammered here carries CARAOKE_*
// capability annotations (src/common/thread_annotations.hpp) enforced
// by tools/lockcheck.py and clang -Wthread-safety (DESIGN.md §10). The
// per-section comments below name the annotated state each test
// exercises, so dynamic (TSan) and static (lockcheck) coverage stay
// auditable against each other: a class annotated but not hammered
// here, or hammered but unannotated, is a coverage hole.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/backend.hpp"
#include "net/framing.hpp"
#include "net/outbox.hpp"
#include "obs/events.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace caraoke {
namespace {

constexpr std::size_t kThreads = 8;

void runThreads(std::size_t count, const std::function<void(std::size_t)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    threads.emplace_back([&fn, i] { fn(i); });
  for (auto& t : threads) t.join();
}

// ------------------------------------------------------------- metrics --
// Static coverage: obs/metrics.hpp — Registry::entries_
// CARAOKE_GUARDED_BY(mutex_); Counter/Gauge/Histogram cells are
// CARAOKE_LOCKFREE atomics (single-word updates, no cross-field
// invariant).

TEST(Race, MetricsRegistryConcurrentChurn) {
  // Every thread resolves the same small name set by string (exercising
  // the registry mutex) and updates through the returned handles
  // (exercising the relaxed-atomic hot path). Totals must be exact: a
  // torn or lost update is a correctness bug, not just a TSan finding.
  obs::Registry registry;
  constexpr std::uint64_t kIters = 4000;
  runThreads(kThreads, [&registry](std::size_t tid) {
    obs::Counter& mine =
        registry.counter("race.thread_" + std::to_string(tid) + ".ops");
    for (std::uint64_t i = 0; i < kIters; ++i) {
      registry.counter("race.shared.total").inc();
      mine.inc();
      registry.gauge("race.shared.level").add(1.0);
      registry.histogram("race.shared.latency").observe(1e-5);
    }
  });
  EXPECT_EQ(registry.counter("race.shared.total").value(), kThreads * kIters);
  EXPECT_DOUBLE_EQ(registry.gauge("race.shared.level").value(),
                   static_cast<double>(kThreads * kIters));
  EXPECT_EQ(registry.histogram("race.shared.latency").count(),
            kThreads * kIters);
  for (std::size_t tid = 0; tid < kThreads; ++tid)
    EXPECT_EQ(registry.counter("race.thread_" + std::to_string(tid) + ".ops")
                  .value(),
              kIters);
}

TEST(Race, MetricsExpositionDuringMutation) {
  // Prometheus/JSON export must be callable while writer threads record:
  // snapshots taken mid-churn see some value between 0 and the final
  // total, never garbage, and the final export reflects every update.
  obs::Registry registry;
  constexpr std::uint64_t kIters = 2000;
  std::atomic<bool> writersDone{false};
  std::atomic<std::uint64_t> exports{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&registry, &writersDone, &exports] {
      while (!writersDone.load(std::memory_order_acquire)) {
        const std::string text = registry.expositionText();
        const std::string json = registry.jsonText();
        EXPECT_EQ(json.front(), '{');
        EXPECT_EQ(json.back(), '}');
        const auto snap = registry.snapshot();
        for (const auto& c : snap.counters)
          EXPECT_LE(c.value, kThreads * kIters);
        exports.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  runThreads(kThreads, [&registry](std::size_t) {
    for (std::uint64_t i = 0; i < kIters; ++i) {
      registry.counter("race.export.ops").inc();
      registry.histogram("race.export.latency").observe(2e-6);
      registry.gauge("race.export.depth").set(static_cast<double>(i));
    }
  });
  writersDone.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_GT(exports.load(), 0u);
  const auto snap = registry.snapshot();
  for (const auto& c : snap.counters) {
    if (c.name == "race.export.ops") {
      EXPECT_EQ(c.value, kThreads * kIters);
    }
  }
}

// ------------------------------------------------------------- tracing --
// Static coverage: obs/metrics.hpp — Histogram buckets/count/sum are
// CARAOKE_LOCKFREE atomics; Registry::histogram get-or-create takes
// Registry.mutex_. ObsSpan itself holds no shared state.

TEST(Race, SpanTracingConcurrentNesting) {
  // Nested RAII timers on every thread, each resolving its histogram
  // from one shared registry: no observation may be lost.
  obs::Registry registry;
  constexpr std::size_t kIters = 300;
  runThreads(kThreads, [&registry](std::size_t) {
    for (std::size_t i = 0; i < kIters; ++i) {
      obs::ObsSpan outer(registry.histogram("race.span.outer"));
      {
        obs::ObsSpan inner(registry.histogram("race.span.inner"));
      }
    }
  });

  EXPECT_EQ(registry.histogram("race.span.outer").count(), kThreads * kIters);
  EXPECT_EQ(registry.histogram("race.span.inner").count(), kThreads * kIters);
}

// -------------------------------------------------------------- events --
// Static coverage: obs/events.hpp — MemoryEventSink::events_ and
// JsonLinesFileSink::{file_, lines_} CARAOKE_GUARDED_BY(mutex_);
// obs/events.cpp g_sink is a CARAOKE_LOCKFREE atomic pointer.

TEST(Race, StructuredEventsConcurrentEmission) {
  obs::MemoryEventSink sink;
  obs::ScopedEventSink scoped(&sink);
  constexpr std::size_t kIters = 500;
  runThreads(kThreads, [](std::size_t tid) {
    for (std::size_t i = 0; i < kIters; ++i)
      obs::emitEvent("race.event",
                     {{"thread", static_cast<std::int64_t>(tid)},
                      {"i", static_cast<std::int64_t>(i)}});
  });
  const auto events = sink.events();
  EXPECT_EQ(events.size(), kThreads * kIters);
  for (const auto& event : events) EXPECT_EQ(event.type, "race.event");
}

// -------------------------------------------------------------- outbox --
// Static coverage: net/outbox.hpp — pending_/open_/seq + budget state
// CARAOKE_GUARDED_BY(mutex_), the *Locked helpers
// CARAOKE_REQUIRES(mutex_). Outbox acquires nothing while holding
// mutex_ (lockorder table: forbid Outbox.mutex_ <-> Backend.mutex_).

net::Message raceCountMsg(std::uint32_t readerId, double t, std::uint32_t n) {
  return net::Message{net::CountReport{readerId, t, n}};
}

TEST(Race, OutboxConcurrentProducersCollectorAcker) {
  // 6 producers add+seal, one collector retransmits, one acker feeds
  // wire-format acks back — the three roles a real reader daemon would
  // run on separate threads (measurement loop, modem TX, modem RX).
  net::OutboxConfig config;
  config.readerId = 9;
  config.initialBackoffSec = 1e-4;
  config.maxBackoffSec = 1e-3;
  config.maxBufferedBytes = 1 << 20;  // no shedding: conservation is exact
  obs::Registry registry;
  net::Outbox outbox(config, Rng(7), &registry);

  constexpr std::size_t kProducers = 6;
  constexpr std::size_t kBatchesPerProducer = 150;
  std::mutex seqMutex;
  std::deque<std::uint32_t> toAck;
  std::atomic<bool> producersDone{false};
  std::atomic<double> clock{0.0};

  std::thread collector([&] {
    for (;;) {
      const double now = clock.fetch_add(0.01) + 0.01;
      for (const auto& tx : outbox.collectTransmissions(now)) {
        std::lock_guard<std::mutex> lock(seqMutex);
        toAck.push_back(tx.seq);
      }
      if (producersDone.load(std::memory_order_acquire) &&
          outbox.pendingBatches() == 0)
        break;
    }
  });
  std::thread acker([&] {
    for (;;) {
      std::uint32_t seq = 0;
      {
        std::lock_guard<std::mutex> lock(seqMutex);
        if (!toAck.empty()) {
          seq = toAck.front();
          toAck.pop_front();
        }
      }
      if (seq != 0) {
        outbox.onAckFrame(net::encodeAck({config.readerId, seq}),
                          clock.load());
      } else if (producersDone.load(std::memory_order_acquire) &&
                 outbox.pendingBatches() == 0) {
        break;
      }
    }
  });

  // A seal can consume messages added by a sibling producer, leaving
  // that sibling's own seal a no-op on an empty open batch — so the
  // batch count is interleaving-dependent. Count successful seals and
  // assert conservation against that.
  std::atomic<std::size_t> sealedBatches{0};
  runThreads(kProducers, [&](std::size_t tid) {
    for (std::size_t i = 0; i < kBatchesPerProducer; ++i) {
      outbox.add(raceCountMsg(9, static_cast<double>(i),
                              static_cast<std::uint32_t>(tid)));
      if (outbox.seal(clock.load()))
        sealedBatches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  producersDone.store(true, std::memory_order_release);
  collector.join();
  acker.join();

  // Conservation: every successful seal produced exactly one batch,
  // every batch was eventually acked and forgotten, every added message
  // got sealed (add happens-before the same thread's seal, so no
  // message can be left open), and nothing expired or shed.
  const std::size_t sealed = sealedBatches.load();
  EXPECT_GE(sealed, 1u);
  EXPECT_LE(sealed, kProducers * kBatchesPerProducer);
  EXPECT_EQ(registry.counter("outbox.sealed").value(), sealed);
  EXPECT_EQ(registry.counter("outbox.acked").value(), sealed);
  EXPECT_EQ(registry.counter("outbox.expired").value(), 0u);
  EXPECT_EQ(registry.counter("outbox.shed_counts").value(), 0u);
  EXPECT_EQ(registry.counter("outbox.shed_batches").value(), 0u);
  EXPECT_EQ(outbox.openMessages(), 0u);
  EXPECT_EQ(outbox.pendingBatches(), 0u);
  EXPECT_EQ(outbox.bufferedBytes(), 0u);
  EXPECT_EQ(outbox.nextSeq(), sealed + 1);
}

// ------------------------------------------------------------- backend --
// Static coverage: net/backend.hpp — readers_/seqState_/reports + wal_
// CARAOKE_GUARDED_BY(mutex_), ingest/apply/snapshot *Locked helpers
// CARAOKE_REQUIRES(mutex_); recovering_ is CARAOKE_LOCKFREE. The
// under-lock observability calls are the declared Backend.mutex_ ->
// {FlightRecorder,EventSink,Registry}.mutex_ edges.

TEST(Race, BackendConcurrentBatchIngest) {
  // 8 reader streams ingest batches concurrently, with every third
  // batch retransmitted (dedup path) and one extra thread polling the
  // fusion/accounting surface mid-ingest.
  net::Backend backend;
  constexpr std::size_t kReaders = 8;
  constexpr std::uint32_t kBatches = 120;

  std::atomic<bool> done{false};
  std::thread poller([&backend, &done] {
    while (!done.load(std::memory_order_acquire)) {
      (void)backend.fuse(1e9);
      for (std::uint32_t r = 1; r <= kReaders; ++r) {
        (void)backend.gapCount(r);
        (void)backend.highestSeq(r);
      }
      (void)backend.countsSize();
      (void)backend.pendingSightings();
    }
  });

  runThreads(kReaders, [&backend](std::size_t tid) {
    const std::uint32_t readerId = static_cast<std::uint32_t>(tid) + 1;
    for (std::uint32_t seq = 1; seq <= kBatches; ++seq) {
      const auto frame = net::encodeBatchV3(
          {readerId, seq},
          {raceCountMsg(readerId, static_cast<double>(seq), seq)});
      auto result = backend.ingestBatch(frame);
      ASSERT_TRUE(result.ok()) << result.error();
      EXPECT_TRUE(result.value().hasAck);
      if (seq % 3 == 0) {
        auto dup = backend.ingestBatch(frame);
        ASSERT_TRUE(dup.ok());
        EXPECT_TRUE(dup.value().deduplicated);
      }
    }
  });
  done.store(true, std::memory_order_release);
  poller.join();

  // Exactly-once per (reader, seq) despite the retransmissions.
  EXPECT_EQ(backend.countsSize(), kReaders * kBatches);
  for (std::uint32_t r = 1; r <= kReaders; ++r) {
    EXPECT_EQ(backend.highestSeq(r), kBatches);
    EXPECT_EQ(backend.gapCount(r), 0u);
  }
}

TEST(Race, OutboxAgainstBackendEndToEnd) {
  // The full store-and-forward loop split across threads the way a
  // deployment splits it across machines: a producer seals batches, an
  // uplink thread retransmits into Backend::ingestBatch, and an ack
  // thread feeds the backend's acks into the outbox. Retries are real
  // (tiny backoff forces duplicates); dedup must keep ingestion
  // exactly-once.
  net::OutboxConfig config;
  config.readerId = 5;
  config.initialBackoffSec = 1e-4;
  config.maxBackoffSec = 1e-3;
  config.maxBufferedBytes = 1 << 20;
  obs::Registry registry;
  net::Outbox outbox(config, Rng(13), &registry);
  net::Backend backend;

  constexpr std::uint32_t kBatchCount = 400;
  std::atomic<bool> producerDone{false};
  std::atomic<double> clock{0.0};
  std::mutex ackMutex;
  std::deque<std::vector<std::uint8_t>> ackQueue;

  std::thread uplink([&] {
    for (;;) {
      const double now = clock.fetch_add(0.01) + 0.01;
      for (const auto& tx : outbox.collectTransmissions(now)) {
        auto result = backend.ingestBatch(tx.frame);
        ASSERT_TRUE(result.ok()) << result.error();
        if (result.value().hasAck) {
          std::lock_guard<std::mutex> lock(ackMutex);
          ackQueue.push_back(result.value().ack);
        }
      }
      if (producerDone.load(std::memory_order_acquire) &&
          outbox.pendingBatches() == 0)
        break;
    }
  });
  std::thread acker([&] {
    for (;;) {
      std::vector<std::uint8_t> ack;
      {
        std::lock_guard<std::mutex> lock(ackMutex);
        if (!ackQueue.empty()) {
          ack = std::move(ackQueue.front());
          ackQueue.pop_front();
        }
      }
      if (!ack.empty()) {
        outbox.onAckFrame(ack, clock.load());
      } else if (producerDone.load(std::memory_order_acquire) &&
                 outbox.pendingBatches() == 0) {
        break;
      }
    }
  });

  for (std::uint32_t i = 1; i <= kBatchCount; ++i) {
    outbox.add(raceCountMsg(5, static_cast<double>(i), i));
    outbox.seal(clock.load());
  }
  producerDone.store(true, std::memory_order_release);
  uplink.join();
  acker.join();

  // Exactly-once delivery end to end: the backend holds one count per
  // sealed batch, the retry machinery really fired, and the outbox
  // drained completely.
  EXPECT_EQ(backend.countsSize(), kBatchCount);
  EXPECT_EQ(backend.highestSeq(5), kBatchCount);
  EXPECT_EQ(backend.gapCount(5), 0u);
  EXPECT_EQ(outbox.pendingBatches(), 0u);
  EXPECT_EQ(registry.counter("outbox.acked").value(), kBatchCount);
  EXPECT_EQ(registry.counter("outbox.expired").value(), 0u);
}

// ----------------------------------------------------- flight recorder --
// Static coverage: obs/flight.hpp — FlightRecorder::{ring_, next_,
// total_} CARAOKE_GUARDED_BY(mutex_); a leaf lock in the lockorder
// table (acquires nothing downstream).

TEST(Race, FlightRecorderConcurrentRecordAndSnapshot) {
  // Writers churn the ring past its capacity while readers pull
  // snapshots and JSON dumps mid-overwrite. Invariants a broken ring
  // lock would violate: size never exceeds capacity, totalRecorded is
  // exact, and every snapshot is a coherent set of well-formed events.
  obs::FlightRecorder flight(64);
  constexpr std::uint64_t kIters = 3000;
  std::atomic<bool> done{false};

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = flight.snapshot();
      EXPECT_LE(snap.size(), flight.capacity());
      for (const auto& event : snap) {
        EXPECT_FALSE(event.type.empty());
        ASSERT_EQ(event.fields.size(), 1u);
      }
      const std::string lines = flight.jsonLines();
      (void)lines;
    }
  });
  runThreads(kThreads, [&flight](std::size_t tid) {
    for (std::uint64_t i = 0; i < kIters; ++i) {
      obs::Event event;
      event.ts = static_cast<double>(i);
      event.type = "race.flight";
      event.fields.push_back({"tid", tid});
      flight.record(std::move(event));
    }
  });
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(flight.totalRecorded(), kThreads * kIters);
  EXPECT_EQ(flight.size(), flight.capacity());
  const auto snap = flight.snapshot();
  ASSERT_EQ(snap.size(), 64u);
  for (const auto& event : snap) EXPECT_EQ(event.type, "race.flight");
}

}  // namespace
}  // namespace caraoke
