// End-to-end sighting provenance: trace contexts minted per query burst,
// carried through the pipeline, over the v3 wire envelope, past the lossy
// link's retransmissions, and recovered at the backend — where the
// speed-fix event must still carry the originating reader's traceId.
// The flagship test drives a moving car past a two-reader plaza through a
// 20% drop link and then hands the flight-recorder dumps to
// tools/tracecat.py to reconstruct the journey.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/reader_daemon.hpp"
#include "common/rng.hpp"
#include "net/backend.hpp"
#include "net/framing.hpp"
#include "net/link.hpp"
#include "net/message.hpp"
#include "net/outbox.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenes_helpers.hpp"
#include "sim/mobility.hpp"
#include "sim/scene.hpp"

using namespace caraoke;

namespace {

net::SightingReport makeSighting(std::uint64_t traceId,
                                 std::uint64_t spanId) {
  net::SightingReport s;
  s.readerId = 7;
  s.timestamp = 1.25;
  s.cfoHz = 312e3;
  s.pairIndex = 1;
  s.angleRad = 0.8;
  s.peakMagnitude = 3.5;
  s.traceId = traceId;
  s.spanId = spanId;
  return s;
}

}  // namespace

TEST(TraceContext, HexRendersAndParses) {
  EXPECT_EQ(obs::traceHex(0), "0000000000000000");
  EXPECT_EQ(obs::traceHex(0xdeadbeefull), "00000000deadbeef");
  EXPECT_EQ(obs::traceHex(0xffffffffffffffffull), "ffffffffffffffff");
  EXPECT_EQ(obs::parseTraceHex("00000000deadbeef"), 0xdeadbeefull);
  EXPECT_EQ(obs::parseTraceHex(obs::traceHex(0x0123456789abcdefull)),
            0x0123456789abcdefull);
  // Malformed inputs all collapse to the "no trace" sentinel.
  EXPECT_EQ(obs::parseTraceHex(""), 0u);
  EXPECT_EQ(obs::parseTraceHex("deadbeef"), 0u);            // too short
  EXPECT_EQ(obs::parseTraceHex("00000000deadbeef00"), 0u);  // too long
  EXPECT_EQ(obs::parseTraceHex("00000000DEADBEEF"), 0u);    // uppercase
  EXPECT_EQ(obs::parseTraceHex("00000000deadbeeg"), 0u);    // bad digit
}

TEST(FramingV3, RoundTripPreservesPerMessageTrace) {
  std::vector<net::Message> messages;
  messages.push_back(net::CountReport{7, 1.0, 3, 0xa1, 0xb1});
  messages.push_back(makeSighting(0xa2, 0xb2));
  messages.push_back(net::CountReport{7, 2.0, 4, 0, 0});  // untraced
  const auto frame = net::encodeBatchV3({7, 41}, messages);

  const auto decoded = net::decodeBatch(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  ASSERT_EQ(decoded.value().messages.size(), 3u);
  EXPECT_EQ(decoded.value().header.readerId, 7u);
  EXPECT_EQ(decoded.value().header.seq, 41u);

  const auto trace0 = net::messageTrace(decoded.value().messages[0]);
  const auto trace1 = net::messageTrace(decoded.value().messages[1]);
  const auto trace2 = net::messageTrace(decoded.value().messages[2]);
  EXPECT_EQ(trace0.traceId, 0xa1u);
  EXPECT_EQ(trace0.spanId, 0xb1u);
  EXPECT_EQ(trace1.traceId, 0xa2u);
  EXPECT_EQ(trace1.spanId, 0xb2u);
  EXPECT_FALSE(trace2.valid());

  const auto* sighting =
      std::get_if<net::SightingReport>(&decoded.value().messages[1]);
  ASSERT_NE(sighting, nullptr);
  EXPECT_DOUBLE_EQ(sighting->cfoHz, 312e3);
}

TEST(FramingV3, OlderWireVersionsRejectedAsBadMagic) {
  // Untraced v1 (0xCA0C: count + entries, no header or CRC) and v2
  // (0xCA0D: v3's header and CRC, entries without the trace prefix)
  // frames, byte for byte as their encoders wrote them.
  const auto payload = net::encodeMessage(makeSighting(0x55, 0x66));
  net::ByteWriter v1;
  v1.u16(0xCA0C);
  v1.u16(1);
  v1.u16(static_cast<std::uint16_t>(payload.size()));
  v1.raw(payload);
  net::ByteWriter v2;
  v2.u16(0xCA0D);
  v2.u32(7);
  v2.u32(9);
  v2.u16(1);
  v2.u16(static_cast<std::uint16_t>(payload.size()));
  v2.raw(payload);
  v2.u32(0);  // trailer placeholder, resealed below

  net::Backend backend;
  obs::Counter& batchErrors =
      obs::globalRegistry().counter("net.backend.batch_errors");
  for (const auto& frame : {v1.bytes(), testhelpers::reseal(v2.bytes())}) {
    const auto decoded = net::decodeBatch(frame);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error(), "bad batch magic");
    const std::uint64_t errorsBefore = batchErrors.value();
    EXPECT_FALSE(backend.ingestBatch(frame).ok());  // no ack either
    EXPECT_EQ(batchErrors.value(), errorsBefore + 1);
  }
  EXPECT_EQ(backend.pendingSightings(), 0u);
}

TEST(FramingV3, CrcCoversTheTracePrefix) {
  const auto frame =
      net::encodeBatchV3({7, 1}, {net::Message(makeSighting(0x77, 0x88))});
  // Flip one bit inside the 16-byte trace prefix (starts right after
  // magic+readerId+seq+count+len = 2+4+4+2+2 = 14 bytes).
  auto corrupted = frame;
  corrupted[14 + 3] ^= 0x10;
  const auto decoded = net::decodeBatch(corrupted);
  EXPECT_FALSE(decoded.ok());
}

TEST(OutboxTrace, TransmissionsListDistinctTracesAcrossRetries) {
  net::OutboxConfig config;
  config.readerId = 3;
  config.initialBackoffSec = 2.0;
  config.jitterFraction = 0.0;
  config.metricsPrefix = "trace_test.outbox";
  obs::Registry registry;
  net::Outbox outbox(config, Rng(99), &registry);

  outbox.add(net::CountReport{3, 1.0, 2, 0xaaa, 0x1});
  outbox.add(makeSighting(0xbbb, 0x2));
  outbox.add(makeSighting(0xaaa, 0x3));  // same journey, second message
  outbox.add(net::CountReport{3, 1.5, 2, 0, 0});  // untraced
  ASSERT_TRUE(outbox.seal(1.0));

  auto first = outbox.collectTransmissions(1.0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].attempt, 1u);
  EXPECT_EQ(first[0].traceIds, (std::vector<std::uint64_t>{0xaaa, 0xbbb}));

  // No ack arrives: the retry must advertise the same journeys, and the
  // retransmitted frame must still decode with traces intact.
  auto retry = outbox.collectTransmissions(10.0);
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_EQ(retry[0].attempt, 2u);
  EXPECT_EQ(retry[0].traceIds, first[0].traceIds);
  const auto decoded = net::decodeBatch(retry[0].frame);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  std::set<std::uint64_t> aboard;
  for (const auto& message : decoded.value().messages)
    aboard.insert(net::messageTrace(message).traceId);
  EXPECT_EQ(aboard, (std::set<std::uint64_t>{0, 0xaaa, 0xbbb}));
}

// ------------------------------------------------------ the flagship ----

// A car drives past two poles 8 m apart while both readers report over a
// 20% drop link. The backend's speed pairing must produce a fix whose
// traceId names a measurement window minted by a reader daemon, and
// tracecat.py must reconstruct the journey from the three
// flight-recorder dumps.
TEST(TraceJourney, TwoReaderPlazaSpeedPairSharesReaderTrace) {
  Rng rng(42);
  phy::EmpiricalCfoModel cfoModel;
  sim::Scene scene(sim::Road{});
  scene.addReader(testhelpers::makeReader(0.0));
  scene.addReader(testhelpers::makeReader(8.0));
  // One car, 4 m/s, abeam of pole A at t=3.5 s and pole B at t=5.5 s.
  scene.addCar(sim::Transponder::random(cfoModel, rng),
               std::make_unique<sim::ConstantSpeedMobility>(-14.0, 1.8, 1.2,
                                                            4.0));

  net::LinkConfig lossy;
  lossy.dropProbability = 0.20;
  lossy.latencyMeanSec = 0.02;
  testhelpers::LinkPair link1(lossy, 101);
  testhelpers::LinkPair link2(lossy, 201);

  apps::ReaderDaemonConfig config;
  config.queriesPerWindow = 4;
  config.measurementPeriodSec = 0.25;  // dense angle track for abeam fit
  config.decodeCollisionsPerWindow = 2;
  config.uplinkPeriodSec = 2.0;
  config.flightCapacity = 8192;
  config.outbox.initialBackoffSec = 1.0;
  config.outbox.maxBackoffSec = 4.0;

  config.readerId = 1;
  apps::ReaderDaemon d1(config, scene, 0, rng.fork());
  link1.attach(d1);
  config.readerId = 2;
  apps::ReaderDaemon d2(config, scene, 1, rng.fork());
  link2.attach(d2);

  net::BackendConfig backendConfig;
  backendConfig.flightCapacity = 8192;
  net::Backend backend(backendConfig);
  backend.registerReader(1, testhelpers::geometryFor(scene.reader(0)));
  backend.registerReader(2, testhelpers::geometryFor(scene.reader(1)));

  // Lossy phase: the car's whole passage happens here, through 20% drop
  // on both the data and ack directions.
  for (double t = 0.5; t <= 30.0; t += 0.5) {
    d1.runUntil(t);
    d2.runUntil(t);
    link1.pump(backend, t);
    link2.pump(backend, t);
  }
  // Drain phase: swap in lossless links so still-pending retries land
  // (34/36 are flush-period multiples).
  testhelpers::LinkPair quiet1;
  testhelpers::LinkPair quiet2;
  quiet1.attach(d1);
  quiet2.attach(d2);
  for (double t = 30.5; t <= 36.0; t += 0.5) {
    d1.runUntil(t);
    d2.runUntil(t);
    quiet1.pump(backend, t);
    quiet2.pump(backend, t);
  }

  const auto fixes = backend.pairSpeeds(36.0);
  ASSERT_GE(fixes.size(), 1u) << "no speed fix paired; pending samples: "
                              << backend.pendingSpeedSamples();
  const net::SpeedFix& fix = fixes.front();
  EXPECT_NEAR(std::abs(fix.speedMps), 4.0, 1.5);
  EXPECT_NEAR(fix.abeamTimeA, 3.5, 1.0);
  EXPECT_NEAR(fix.abeamTimeB, 5.5, 1.0);
  ASSERT_NE(fix.traceId, 0u) << "speed fix lost its provenance";

  // The flight rings agree end to end under the fix's trace: the
  // backend logged the speed fix, and the minting reader logged the
  // query burst that started the journey.
  const std::string traceHex = obs::traceHex(fix.traceId);
  const auto ringHas = [&](const obs::FlightRecorder& ring,
                           const std::string& type) {
    const auto events = ring.snapshot(0, traceHex);
    return std::any_of(events.begin(), events.end(),
                       [&](const obs::Event& e) { return e.type == type; });
  };
  EXPECT_TRUE(ringHas(backend.flight(), "backend.speed_fix"));
  EXPECT_TRUE(ringHas(d1.flight(), "daemon.query_burst") ||
              ringHas(d2.flight(), "daemon.query_burst"));

  // Journey reconstruction: dump the three rings and let tracecat.py
  // reassemble the per-stage latency budget.
  if (std::system("python3 --version > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "python3 unavailable; tracecat reconstruction skipped";
  const std::string dir = ::testing::TempDir();
  const auto dump = [&](const std::string& name, const std::string& body) {
    const std::string path = dir + "/" + name;
    std::ofstream out(path, std::ios::trunc);
    out << body;
    return path;
  };
  const std::string f1 = dump("trace_reader1.jsonl", d1.flight().jsonLines());
  const std::string f2 = dump("trace_reader2.jsonl", d2.flight().jsonLines());
  const std::string f3 =
      dump("trace_backend.jsonl", backend.flight().jsonLines());
  const std::string outPath = dir + "/tracecat.out";
  const std::string cmd =
      "python3 " CARAOKE_TOOLS_DIR "/tracecat.py " + f1 + " " + f2 + " " +
      f3 +
      " --assert-stages"
      " query,peak,decode,enqueue,link_attempt,ingest,speed_pair"
      " > " + outPath + " 2>&1";
  const int rc = std::system(cmd.c_str());
  std::ifstream in(outPath);
  std::stringstream captured;
  captured << in.rdbuf();
  EXPECT_EQ(rc, 0) << "tracecat output:\n" << captured.str();
  EXPECT_NE(captured.str().find("assert-stages ok"), std::string::npos)
      << captured.str();
}
