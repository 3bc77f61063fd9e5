// Unit tests for the telemetry subsystem: metric semantics (bucket edges,
// snapshot + reset), the scoped histogram timer, and JSON-lines event
// round-trips.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace caraoke {
namespace {

TEST(ObsMetrics, CounterSemantics) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, GaugeSetAndAdd) {
  obs::Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.add(-4.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsMetrics, HistogramBucketEdgesAreInclusive) {
  obs::Histogram h({1.0, 2.0, 5.0});
  h.observe(0.5);   // <= 1.0
  h.observe(1.0);   // edge: still the le=1 bucket (Prometheus semantics)
  h.observe(1.5);   // le=2
  h.observe(5.0);   // edge: le=5
  h.observe(99.0);  // +Inf
  const auto buckets = h.bucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 5.0 + 99.0);
}

TEST(ObsMetrics, HistogramRejectsUnsortedBounds) {
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
}

// histogramQuantile edge cases — the math behind the bench harness's
// "quantiles" report section and benchgate's latency columns.
TEST(ObsMetrics, QuantileOfEmptyHistogramIsZero) {
  obs::Registry registry;
  registry.histogram("q.empty", {1.0, 2.0});
  const auto snap = registry.snapshot().histograms.at(0);
  EXPECT_DOUBLE_EQ(obs::histogramQuantile(snap, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(obs::histogramQuantile(snap, 0.99), 0.0);
}

TEST(ObsMetrics, QuantileOfSingleSampleStaysInItsBucket) {
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("q.single", {1.0, 2.0, 4.0});
  h.observe(1.5);  // lands in the (1, 2] bucket
  const auto snap = registry.snapshot().histograms.at(0);
  for (double q : {0.0, 0.5, 0.9, 1.0}) {
    const double v = obs::histogramQuantile(snap, q);
    EXPECT_GE(v, 1.0) << "q=" << q;
    EXPECT_LE(v, 2.0) << "q=" << q;
  }
}

TEST(ObsMetrics, QuantileBeyondLastBucketClampsToLastFiniteBound) {
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("q.inf", {1.0, 2.0});
  h.observe(100.0);  // +Inf bucket only
  const auto snap = registry.snapshot().histograms.at(0);
  // No finite upper edge exists for the sample; report the last finite
  // bound rather than inventing a value (Prometheus convention).
  EXPECT_DOUBLE_EQ(obs::histogramQuantile(snap, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(obs::histogramQuantile(snap, 0.99), 2.0);
}

TEST(ObsMetrics, QuantileExtractionIsMonotoneAcrossBuckets) {
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("q.spread", {1.0, 2.0, 4.0, 8.0});
  // 10 samples in (0,1], 80 in (1,2], 10 in (2,4].
  for (int i = 0; i < 10; ++i) h.observe(0.5);
  for (int i = 0; i < 80; ++i) h.observe(1.5);
  for (int i = 0; i < 10; ++i) h.observe(3.0);
  const auto snap = registry.snapshot().histograms.at(0);
  const double p10 = obs::histogramQuantile(snap, 0.10);
  const double p50 = obs::histogramQuantile(snap, 0.50);
  const double p90 = obs::histogramQuantile(snap, 0.90);
  const double p99 = obs::histogramQuantile(snap, 0.99);
  EXPECT_LE(p10, 1.0);           // the bottom decile sits in bucket 1
  EXPECT_GT(p50, 1.0);           // the median is in the fat middle bucket
  EXPECT_LE(p50, 2.0);
  EXPECT_GT(p99, 2.0);           // the top percentile spills into (2,4]
  EXPECT_LE(p99, 4.0);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Out-of-range q is clamped, not undefined.
  EXPECT_DOUBLE_EQ(obs::histogramQuantile(snap, -1.0),
                   obs::histogramQuantile(snap, 0.0));
  EXPECT_DOUBLE_EQ(obs::histogramQuantile(snap, 2.0),
                   obs::histogramQuantile(snap, 1.0));
}

TEST(ObsMetrics, MergeFromAccumulatesMatchingHistograms) {
  obs::Registry a, b;
  obs::Histogram& ha = a.histogram("m.lat", {1.0, 2.0, 4.0});
  obs::Histogram& hb = b.histogram("m.lat", {1.0, 2.0, 4.0});
  ha.observe(0.5);
  ha.observe(1.5);
  hb.observe(1.5);
  hb.observe(3.0);
  hb.observe(9.0);  // +Inf bucket

  obs::HistogramSnapshot merged;  // empty seed adopts the first shape
  EXPECT_TRUE(merged.mergeFrom(a.snapshot().histograms.at(0)));
  EXPECT_TRUE(merged.mergeFrom(b.snapshot().histograms.at(0)));
  EXPECT_EQ(merged.count, 5u);
  EXPECT_NEAR(merged.sum, 0.5 + 1.5 + 1.5 + 3.0 + 9.0, 1e-9);
  ASSERT_EQ(merged.bucketCounts.size(), 4u);
  EXPECT_EQ(merged.bucketCounts[0], 1u);  // (0, 1]
  EXPECT_EQ(merged.bucketCounts[1], 2u);  // (1, 2]
  EXPECT_EQ(merged.bucketCounts[2], 1u);  // (2, 4]
  EXPECT_EQ(merged.bucketCounts[3], 1u);  // +Inf
}

TEST(ObsMetrics, MergeFromRejectsMismatchedBoundsUntouched) {
  obs::Registry a, b;
  a.histogram("m.a", {1.0, 2.0}).observe(0.5);
  b.histogram("m.b", {1.0, 4.0}).observe(0.5);
  obs::HistogramSnapshot target = a.snapshot().histograms.at(0);
  const obs::HistogramSnapshot before = target;
  EXPECT_FALSE(target.mergeFrom(b.snapshot().histograms.at(0)));
  EXPECT_EQ(target.count, before.count);
  EXPECT_EQ(target.bucketCounts, before.bucketCounts)
      << "a rejected merge must leave the accumulator untouched";
}

TEST(ObsMetrics, MergedQuantileMatchesPooledSamples) {
  // Three "readers" observing the same latency metric; the merged p50
  // must equal the quantile of one histogram holding all the samples.
  const std::vector<double> bounds = {1.0, 2.0, 4.0, 8.0};
  obs::Registry pooledRegistry;
  obs::Histogram& pooled = pooledRegistry.histogram("m.pooled", bounds);
  std::vector<obs::HistogramSnapshot> snapshots;
  for (int reader = 0; reader < 3; ++reader) {
    obs::Registry registry;
    obs::Histogram& h = registry.histogram("m.lat", bounds);
    for (int i = 0; i <= reader * 5; ++i) {
      const double v = 0.5 + static_cast<double>((i + reader) % 6);
      h.observe(v);
      pooled.observe(v);
    }
    snapshots.push_back(registry.snapshot().histograms.at(0));
  }
  const auto pooledSnap = pooledRegistry.snapshot().histograms.at(0);
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(obs::mergedQuantile(snapshots, q),
                     obs::histogramQuantile(pooledSnap, q))
        << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(obs::mergedQuantile({}, 0.5), 0.0);
}

TEST(ObsMetrics, RegistryReturnsSameInstanceAndChecksKind) {
  obs::Registry registry;
  obs::Counter& a = registry.counter("x.calls");
  obs::Counter& b = registry.counter("x.calls");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_THROW(registry.gauge("x.calls"), std::logic_error);
  EXPECT_THROW(registry.histogram("x.calls"), std::logic_error);
}

TEST(ObsMetrics, SnapshotAndReset) {
  obs::Registry registry;
  registry.counter("a.count").inc(7);
  registry.gauge("b.level").set(1.25);
  registry.histogram("c.seconds", {0.1, 1.0}).observe(0.05);

  const obs::RegistrySnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "a.count");
  EXPECT_EQ(snap.counters[0].value, 7u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 1.25);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  ASSERT_EQ(snap.histograms[0].bucketCounts.size(), 3u);
  EXPECT_EQ(snap.histograms[0].bucketCounts[0], 1u);

  registry.reset();
  // Handles survive a reset; values are zeroed, registrations kept.
  EXPECT_EQ(registry.counter("a.count").value(), 0u);
  const obs::RegistrySnapshot after = registry.snapshot();
  ASSERT_EQ(after.counters.size(), 1u);
  EXPECT_EQ(after.counters[0].value, 0u);
  EXPECT_EQ(after.histograms[0].count, 0u);

  // The pre-reset snapshot is an independent copy.
  EXPECT_EQ(snap.counters[0].value, 7u);
}

TEST(ObsMetrics, ExpositionTextFormat) {
  obs::Registry registry;
  registry.counter("decoder.crc_pass").inc(3);
  registry.gauge("daemon.energy_joules").set(0.5);
  obs::Histogram& h = registry.histogram("dsp.fft.seconds", {0.001, 0.01});
  h.observe(0.0005);
  h.observe(0.5);

  const std::string text = registry.expositionText();
  EXPECT_NE(text.find("# TYPE decoder.crc_pass counter"), std::string::npos);
  EXPECT_NE(text.find("decoder.crc_pass 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE daemon.energy_joules gauge"), std::string::npos);
  EXPECT_NE(text.find("dsp.fft.seconds_bucket{le=\"0.001\"} 1"),
            std::string::npos);
  // Cumulative buckets: the +Inf bucket equals the total count.
  EXPECT_NE(text.find("dsp.fft.seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("dsp.fft.seconds_count 2"), std::string::npos);
}

TEST(ObsMetrics, JsonTextIsWellFormed) {
  obs::Registry registry;
  registry.counter("a").inc(1);
  registry.gauge("b").set(2.0);
  registry.histogram("c", {1.0}).observe(0.5);
  const std::string json = registry.jsonText();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\":{\"a\":1}"), std::string::npos);
  EXPECT_NE(json.find("\"b\":2"), std::string::npos);
  EXPECT_NE(json.find("\"c\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":\"+Inf\",\"count\":0}"), std::string::npos);
}

TEST(ObsTrace, SpanRecordsDurationIntoHistogram) {
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("stage.seconds");
  {
    obs::ObsSpan span(h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
}

TEST(ObsEvents, JsonLineRoundTrip) {
  obs::Event event;
  event.ts = 12.5;
  event.type = "daemon.uplink_flush";
  event.fields.push_back({"bytes", std::int64_t{1234}});
  event.fields.push_back({"duty", 0.375});
  event.fields.push_back({"ok", true});
  event.fields.push_back({"note", std::string("tab\there \"quoted\"\n")});

  const std::string line = obs::toJsonLine(event);
  const auto parsed = obs::parseJsonLine(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_DOUBLE_EQ(parsed->ts, 12.5);
  EXPECT_EQ(parsed->type, "daemon.uplink_flush");
  ASSERT_EQ(parsed->fields.size(), 4u);
  EXPECT_EQ(std::get<std::int64_t>(*parsed->find("bytes")), 1234);
  EXPECT_DOUBLE_EQ(std::get<double>(*parsed->find("duty")), 0.375);
  EXPECT_EQ(std::get<bool>(*parsed->find("ok")), true);
  EXPECT_EQ(std::get<std::string>(*parsed->find("note")),
            "tab\there \"quoted\"\n");
}

TEST(ObsEvents, ParserRejectsMalformedLines) {
  EXPECT_FALSE(obs::parseJsonLine("").has_value());
  EXPECT_FALSE(obs::parseJsonLine("{").has_value());
  EXPECT_FALSE(obs::parseJsonLine("{}").has_value());  // missing ts/type
  EXPECT_FALSE(obs::parseJsonLine("{\"ts\":1}").has_value());
  EXPECT_FALSE(
      obs::parseJsonLine("{\"ts\":1,\"type\":\"x\"} trailing").has_value());
  EXPECT_FALSE(
      obs::parseJsonLine("{\"ts\":\"notanumber\",\"type\":\"x\"}").has_value());
}

TEST(ObsEvents, ParserRejectsEveryTruncationOfAValidLine) {
  obs::Event event;
  event.ts = 3.25;
  event.type = "daemon.count";
  event.fields.push_back({"n", std::int64_t{4}});
  event.fields.push_back({"note", std::string("a\"b\\c\td")});
  const std::string line = obs::toJsonLine(event);
  ASSERT_TRUE(obs::parseJsonLine(line).has_value()) << line;
  // Chop the line anywhere — mid-key, mid-escape, mid-number, before the
  // closing brace — and the parser must refuse, never crash or return a
  // half-filled event.
  for (std::size_t len = 0; len < line.size(); ++len) {
    EXPECT_FALSE(obs::parseJsonLine(line.substr(0, len)).has_value())
        << "accepted truncation at byte " << len << ": "
        << line.substr(0, len);
  }
}

TEST(ObsEvents, ParserRejectsNestedStructures) {
  // The schema is a flat object; nested objects and arrays are refused
  // rather than skipped (a tool seeing them should treat the line as
  // foreign, not silently drop fields).
  EXPECT_FALSE(obs::parseJsonLine(
      "{\"ts\":1,\"type\":\"x\",\"a\":{\"b\":2}}").has_value());
  EXPECT_FALSE(obs::parseJsonLine(
      "{\"ts\":1,\"type\":\"x\",\"a\":{}}").has_value());
  EXPECT_FALSE(obs::parseJsonLine(
      "{\"ts\":1,\"type\":\"x\",\"a\":[1,2]}").has_value());
  EXPECT_FALSE(obs::parseJsonLine(
      "{\"ts\":1,\"type\":\"x\",\"a\":{\"deep\":{\"er\":{}}}}").has_value());
}

TEST(ObsEvents, ParserRejectsBadUnicodeEscapes) {
  EXPECT_FALSE(obs::parseJsonLine(
      "{\"ts\":1,\"type\":\"x\",\"s\":\"\\uZZZZ\"}").has_value());
  // toJsonLine only emits \u00XX; larger code points are foreign.
  EXPECT_FALSE(obs::parseJsonLine(
      "{\"ts\":1,\"type\":\"x\",\"s\":\"\\u0100\"}").has_value());
  // Escape truncated by end-of-line.
  EXPECT_FALSE(obs::parseJsonLine(
      "{\"ts\":1,\"type\":\"x\",\"s\":\"\\u00").has_value());
  EXPECT_FALSE(obs::parseJsonLine(
      "{\"ts\":1,\"type\":\"x\",\"s\":\"\\q\"}").has_value());
}

TEST(ObsEvents, ParserHandlesNonUtf8Bytes) {
  // Raw high bytes *outside* a string can never start a token.
  std::string outside = "{\"ts\":1,\"type\":\"x\",\"v\":";
  outside += static_cast<char>(0xFF);
  outside += static_cast<char>(0xFE);
  outside += "}";
  EXPECT_FALSE(obs::parseJsonLine(outside).has_value());

  // Inside a quoted string the parser is byte-transparent: undecodable
  // bytes ride through unmangled (the flight ring can carry whatever a
  // caller stuffed into a field; consumers decode with replacement).
  std::string inside = "{\"ts\":1,\"type\":\"x\",\"s\":\"a";
  inside += static_cast<char>(0xC3);  // lone lead byte: invalid UTF-8
  inside += static_cast<char>(0xFF);
  inside += "b\"}";
  const auto parsed = obs::parseJsonLine(inside);
  ASSERT_TRUE(parsed.has_value());
  const auto* value = parsed->find("s");
  ASSERT_NE(value, nullptr);
  const std::string& s = std::get<std::string>(*value);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(s[1]), 0xC3);
  EXPECT_EQ(static_cast<unsigned char>(s[2]), 0xFF);
}

TEST(ObsEvents, EmitGoesToAttachedSinkOnly) {
  obs::emitEvent("dropped.no_sink", {});  // no sink attached: no-op

  obs::MemoryEventSink sink;
  {
    obs::ScopedEventSink scoped(&sink);
    EXPECT_TRUE(obs::eventsAttached());
    obs::emitEvent("captured", {{"k", 1}});
  }
  EXPECT_FALSE(obs::eventsAttached());
  obs::emitEvent("dropped.after_detach", {});

  const auto events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, "captured");
  EXPECT_GE(events[0].ts, 0.0);
}

TEST(ObsEvents, FileSinkWritesParseableLines) {
  const std::string path = ::testing::TempDir() + "obs_events_test.jsonl";
  {
    obs::JsonLinesFileSink sink(path);
    ASSERT_TRUE(sink.ok());
    obs::ScopedEventSink scoped(&sink);
    obs::emitEvent("a", {{"n", 1}});
    obs::emitEvent("b", {{"x", 2.5}});
    EXPECT_EQ(sink.linesWritten(), 2u);
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[512];
  std::size_t lines = 0;
  while (std::fgets(buf, sizeof buf, f) != nullptr) {
    std::string line(buf);
    if (!line.empty() && line.back() == '\n') line.pop_back();
    EXPECT_TRUE(obs::parseJsonLine(line).has_value()) << line;
    ++lines;
  }
  std::fclose(f);
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

TEST(ObsMetrics, ConcurrentIncrementsAreLossless) {
  obs::Registry registry;
  obs::Counter& c = registry.counter("concurrent.count");
  obs::Histogram& h = registry.histogram("concurrent.seconds", {0.5});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(0.25);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_NEAR(h.sum(), 0.25 * kThreads * kPerThread, 1e-6);
}

}  // namespace
}  // namespace caraoke
