// Shared scene-construction and uplink helpers for tests (the scene
// half mirrors bench/scenes.hpp without creating a dependency between
// the two trees).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "apps/reader_daemon.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/aoa.hpp"
#include "net/backend.hpp"
#include "net/link.hpp"
#include "phy/crc.hpp"
#include "sim/medium.hpp"

namespace caraoke::testhelpers {

inline sim::ReaderNode makeReader(double x, double y = -6.0,
                                  double tiltDeg = 0.0) {
  sim::ReaderNode reader;
  reader.pole.base = {x, y, 0.0};
  reader.pole.heightMeters = feet(12.5);
  reader.tiltRad = deg2rad(tiltDeg);
  return reader;
}

inline core::ArrayGeometry geometryFor(const sim::ReaderNode& reader) {
  core::ArrayGeometry g;
  g.elements = reader.array().elements();
  g.pairs = sim::TriangleArray::pairs();
  return g;
}

/// A fault-free channel with no latency: a frame sent at `t` arrives at
/// `t`.
inline net::LinkConfig losslessLink() {
  net::LinkConfig config;
  config.latencyMeanSec = 0.0;
  config.latencyJitterSec = 0.0;
  return config;
}

/// One reader's uplink (frames toward the backend) and ack downlink,
/// seeded `seed` and `seed + 1`. Lossless unless given a LinkConfig.
struct LinkPair {
  net::UplinkLink up;
  net::UplinkLink down;

  explicit LinkPair(net::LinkConfig config = losslessLink(),
                    std::uint64_t seed = 1, net::FaultPlan plan = {})
      : up(config, Rng(seed), plan), down(config, Rng(seed + 1), plan) {}

  void attach(apps::ReaderDaemon& daemon) { daemon.attachUplink(&up, &down); }

  /// Ingest every frame that has arrived by `t` and send each ack back;
  /// the daemon reads the acks on its next tick. Returns the delivered
  /// frames in arrival order.
  std::vector<std::vector<std::uint8_t>> pump(net::Backend& backend,
                                              double t) {
    auto frames = up.deliver(t);
    for (const auto& frame : frames) {
      const auto result = backend.ingestBatch(frame);
      if (result.ok()) down.send(result.value().ack, t);
    }
    return frames;
  }

  /// Power the pole down at `t` over a lossless pair: seal and send its
  /// tail, ingest it, then let the daemon read the acks, so its outbox
  /// ends empty.
  void shutdown(apps::ReaderDaemon& daemon, net::Backend& backend, double t) {
    daemon.shutdownFlush(t);
    pump(backend, t);
    daemon.shutdownFlush(t);  // nothing left to seal: reads the acks
  }
};

/// Recompute a batch frame's CRC-32 trailer after a test edited its
/// body, so the damage reaches the entry decoder instead of failing the
/// envelope check.
inline std::vector<std::uint8_t> reseal(std::vector<std::uint8_t> frame) {
  const std::size_t body = frame.size() - 4;
  const std::uint32_t crc =
      phy::crc32(std::span<const std::uint8_t>(frame.data(), body));
  for (std::size_t i = 0; i < 4; ++i)
    frame[body + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  return frame;
}

}  // namespace caraoke::testhelpers
