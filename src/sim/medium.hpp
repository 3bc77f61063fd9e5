// The wireless medium and the reader's RF front-end.
//
// This is the simulator's stand-in for the paper's testbed: it turns "these
// transponders, at these positions, answer this reader's query" into the
// per-antenna complex baseband sample buffers the Caraoke algorithms
// consume. Responses from all triggered transponders superpose sample-
// aligned (§3: every device fires exactly 100 us after the query; the
// sub-microsecond propagation differences are far below the 0.25 us sample
// period). Each device keeps one oscillator, so its random initial phase
// is common across the reader's antennas while its channel differs per
// antenna — the property AoA estimation relies on (§6).
#pragma once

#include <optional>
#include <vector>

#include "phy/protocol.hpp"
#include "sim/geometry.hpp"
#include "sim/transponder.hpp"

namespace caraoke::sim {

/// Multipath environment toggles. Defaults model the paper's outdoor
/// LoS-dominant setting (§12.2): a weak ground bounce and, optionally, a
/// building facade along the road.
struct MultipathConfig {
  bool groundReflection = true;
  double groundLoss = 0.25;
  /// If set, a vertical reflector plane at this y (building wall).
  std::optional<double> wallY;
  double wallLoss = 0.15;
};

/// Reader receive-chain parameters.
struct FrontEndConfig {
  phy::SamplingParams sampling{};
  /// AWGN standard deviation per I/Q component at the ADC input.
  double noiseSigma = 1e-4;
  /// ADC resolution (paper: AD7356, 12 bits) and full-scale amplitude.
  int adcBits = 12;
  double adcFullScale = 0.1;
  bool enableAdc = true;
  /// Transponder response turn-around jitter, uniform in [0, maxSamples].
  /// 0 reproduces the paper's aligned-response assumption.
  std::size_t turnaroundJitterMaxSamples = 0;
  /// Residual per-antenna phase calibration error [rad], static for the
  /// reader (cable-length mismatch after calibration). Applied as
  /// e^{j offset} on each antenna's received signal. Empty = perfectly
  /// calibrated. This is the dominant AoA error source in practice.
  std::vector<double> antennaPhaseOffsetsRad{};
};

/// A pole-mounted reader: geometry plus front-end configuration.
struct ReaderNode {
  Pole pole;
  /// Antenna baseline d (paper: lambda/2 = 6.5 in) and array tilt.
  double baselineMeters = 0.1651;  // 6.5 inches
  double tiltRad = 0.0;
  FrontEndConfig frontEnd{};

  /// The three-antenna array centered at the pole top.
  TriangleArray array() const {
    return TriangleArray(pole.arrayCenter(), baselineMeters, tiltRad);
  }
};

/// A transponder instance placed in the world for one capture.
struct ActiveDevice {
  Transponder* device = nullptr;
  Vec3 position;
};

/// The result of one query: one buffer per antenna, plus the ground truth
/// the experiments use for scoring.
struct Capture {
  std::vector<dsp::CVec> antennaSamples;
  /// Per responding device: CFO relative to the reader LO [Hz] at the time
  /// of this response (ground truth, not visible to the algorithms).
  std::vector<double> trueCfosHz;
};

/// Simulate one query/response round at a reader. Every device in
/// `devices` responds (range filtering is the caller's job; the scene does
/// it). Deterministic given the Rng and device states.
Capture captureCollision(const ReaderNode& reader,
                         std::vector<ActiveDevice>& devices,
                         const MultipathConfig& multipath, Rng& rng);

/// Same, but at an arbitrary set of antenna positions (used by the
/// synthetic-aperture profiler, whose "array" is a static reference
/// element plus a position on the rotating arm).
Capture captureAtAntennas(const FrontEndConfig& frontEnd,
                          const std::vector<Vec3>& antennas,
                          std::vector<ActiveDevice>& devices,
                          const MultipathConfig& multipath, Rng& rng);

/// The paper's ground-truth trick (§12.1): capture a single transponder in
/// isolation, as with a directional antenna.
Capture captureIsolated(const ReaderNode& reader, Transponder& device,
                        const Vec3& position, const MultipathConfig& multipath,
                        Rng& rng);

/// Channel coefficient from a device position to one antenna under the
/// multipath config (exposed for tests and for oracle comparisons).
dsp::cdouble channelTo(const Vec3& devicePos, const Vec3& antennaPos,
                       const MultipathConfig& multipath, double wavelength);

}  // namespace caraoke::sim
