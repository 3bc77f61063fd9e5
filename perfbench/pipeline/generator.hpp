// Seeded input generator, kept apart from the program under test.
//
// The generator turns (workload seed, episode index) into plain data:
// reader poles, transponder identities/carriers/trajectories, and for the
// fleet workload, per-pole report streams. The workloads build the sim world
// model and the pipeline objects from that data; nothing here touches a
// daemon, outbox or backend, and none of it is timed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "net/message.hpp"
#include "phy/channel.hpp"
#include "phy/packet.hpp"

namespace perfbench {

/// One pole-mounted reader.
struct PoleSpec {
  double x = 0.0;
  double y = -6.0;
  double heightMeters = 3.81;  // 12.5 ft street lamp
  double tiltDeg = 0.0;
};

/// One transponder and how its car moves: parked at `position`, or
/// driving along +x from `startX` (reached at time `t0`) at `speedMps`.
struct TagSpec {
  caraoke::phy::TransponderId id;
  double carrierHz = 0.0;
  std::uint64_t deviceSeed = 0;
  bool parked = true;
  caraoke::phy::Vec3 position;
  double startX = 0.0;
  double laneY = 0.0;
  double speedMps = 0.0;
  double t0 = 0.0;
};

/// One closed-loop reader episode: poles, tags, and the window schedule.
struct ReaderEpisode {
  std::vector<PoleSpec> poles;
  std::vector<TagSpec> tags;
  double periodSec = 1.0;        ///< Measurement window period.
  double uplinkPeriodSec = 1.0;  ///< Outbox seal period.
  std::size_t steps = 0;         ///< Windows per reader.
  std::uint64_t daemonSeed = 0;  ///< Reader noise stream (scene + twin).
};

/// plaza_dense: one tilted gantry, ~20 parked tags in range, with
/// near-same-bin carrier pairs.
ReaderEpisode plazaEpisode(std::uint64_t seed, std::size_t index);

/// corridor_pass: two poles 200 ft apart, 1-3 cars passing at 10-50 mph.
ReaderEpisode corridorEpisode(std::uint64_t seed, std::size_t index);

/// Ground truth for one synthetic fleet car.
struct FleetCar {
  caraoke::phy::TransponderId id;
  double cfoHz = 0.0;
  double speedMps = 0.0;
  std::size_t firstPole = 0;  ///< Index of the first pole it passes abeam.
  std::size_t poles = 0;      ///< Poles passed abeam, consecutive.
  double laneY = 0.0;
  double startX = 0.0;  ///< Position at spawn time.
  double spawnSec = 0.0;
  double endX = 0.0;  ///< Leaves the corridor here.
};

/// One second of the fleet's uplink traffic, per pole.
struct FleetTick {
  double startSec = 0.0;
  /// reports[p] = pole p's messages for this tick (count first).
  std::vector<std::vector<caraoke::net::Message>> reports;
  /// Poles whose sealed frame this tick is delivered a second time (an
  /// uplink retransmission the backend must deduplicate).
  std::vector<std::size_t> duplicatePoles;
};

/// fleet_ingest: streams 64 poles' synthetic report traffic one tick at
/// a time (cars enter at 15-50 mph, cross 2-5 consecutive poles, and
/// leave), holding only the cars currently on the road plus a per-episode
/// ground-truth list.
class FleetGenerator {
 public:
  static constexpr std::size_t kPoles = 64;
  static constexpr double kSpacingMeters = 40.0;
  static constexpr double kTickSec = 1.0;
  static constexpr double kSampleSec = 0.2;
  /// Backend speed-sample retention the stream is generated for.
  static constexpr double kSpeedWindowSec = 20.0;
  /// A carrier is not reused until this long after its car left.
  static constexpr double kCarrierReuseSec = kSpeedWindowSec + 5.0;

  FleetGenerator(std::uint64_t seed, std::size_t episode);

  /// Pole geometry: 40 m apart along x, alternating sides of the street.
  static PoleSpec pole(std::size_t index);

  /// The next tick's reports.
  FleetTick next();

  /// Every car spawned so far in this episode.
  const std::vector<FleetCar>& cars() const { return cars_; }

 private:
  caraoke::Rng rng_;
  std::size_t tick_ = 0;
  std::vector<FleetCar> cars_;
  /// Indices into cars_ still on the road.
  std::vector<std::size_t> active_;
  /// decoded_[car][k]: a decode was reported at its k-th pole.
  std::vector<std::vector<bool>> decoded_;
};

}  // namespace perfbench
