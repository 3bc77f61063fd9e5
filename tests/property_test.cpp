// Property-based and fuzz-style tests over the library's invariants:
// randomized round-trips, parse-never-crashes, estimator identities over
// random geometry, and parameterized FFT laws.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/aoa.hpp"
#include "core/localizer.hpp"
#include "dsp/fft.hpp"
#include "dsp/filter.hpp"
#include "dsp/stats.hpp"
#include "net/framing.hpp"
#include "net/message.hpp"
#include "phy/crc.hpp"
#include "phy/manchester.hpp"
#include "phy/ook.hpp"
#include "phy/packet.hpp"

namespace caraoke {
namespace {

TEST(Property, PacketDecodeNeverCrashesOnRandomBits) {
  Rng rng(1);
  for (int trial = 0; trial < 2000; ++trial) {
    phy::BitVec bits(phy::Packet::kBits);
    for (auto& b : bits) b = rng.chance(0.5) ? 1 : 0;
    // Must not throw; almost surely fails the sync/CRC check.
    const auto result = phy::Packet::decode(bits);
    if (result.ok()) {
      // Astronomically unlikely (needs sync + CRC to hold), but if it
      // happens the decode must at least round-trip.
      EXPECT_EQ(phy::Packet::encode(result.value()), bits);
    }
  }
}

TEST(Property, PacketBitFlipAlwaysDetected) {
  // Any 1- or 2-bit corruption of a valid packet must fail validation
  // (CRC-16 detects all 1- and 2-bit errors within its span).
  Rng rng(2);
  const phy::BitVec clean = phy::Packet::encode(phy::Packet::randomId(rng));
  for (int trial = 0; trial < 400; ++trial) {
    phy::BitVec corrupted = clean;
    const auto i = static_cast<std::size_t>(rng.uniformInt(16, 255));
    corrupted[i] ^= 1;
    if (rng.chance(0.5)) {
      auto j = static_cast<std::size_t>(rng.uniformInt(16, 255));
      if (j == i) j = (j + 1) % 240 + 16;
      corrupted[j] ^= 1;
    }
    EXPECT_FALSE(phy::Packet::checksumOk(corrupted));
  }
}

TEST(Property, CrcDetectsAllBurstErrorsUpTo16Bits) {
  Rng rng(3);
  std::vector<std::uint8_t> bits(224);
  for (auto& b : bits) b = rng.chance(0.5) ? 1 : 0;
  const std::uint16_t clean = phy::crc16Bits(bits);
  for (std::size_t start = 0; start + 16 <= bits.size(); start += 7) {
    for (std::size_t len : {2u, 5u, 16u}) {
      auto corrupted = bits;
      for (std::size_t k = 0; k < len; ++k) corrupted[start + k] ^= 1;
      EXPECT_NE(phy::crc16Bits(corrupted), clean)
          << "burst at " << start << " len " << len;
    }
  }
}

TEST(Property, ManchesterRoundTripAnyLength) {
  Rng rng(4);
  for (std::size_t length : {0u, 1u, 7u, 64u, 255u, 1024u}) {
    phy::BitVec bits(length);
    for (auto& b : bits) b = rng.chance(0.5) ? 1 : 0;
    EXPECT_EQ(phy::manchesterDecode(phy::manchesterEncode(bits)), bits);
  }
}

TEST(Property, ModulateDemodulateIdentityOverRandomPackets) {
  Rng rng(5);
  const phy::SamplingParams sampling;
  for (int trial = 0; trial < 25; ++trial) {
    const phy::BitVec bits =
        phy::Packet::encode(phy::Packet::randomId(rng));
    // Zero-CFO, unit-channel modulation demodulates exactly.
    const auto wave = phy::modulateResponse(bits, sampling, 0.0, 0.0);
    EXPECT_EQ(phy::demodulateOok(wave, sampling), bits);
  }
}

TEST(Property, BatchDecodeNeverCrashesOnRandomBytes) {
  Rng rng(6);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint8_t> junk(
        static_cast<std::size_t>(rng.uniformInt(0, 64)));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    (void)net::decodeBatch(junk);      // must not throw
    (void)net::decodeMessage(junk);    // must not throw
  }
}

TEST(Property, EnvelopeCorruptionNeverCrashesAndNeverLies) {
  // Random byte corruption of a valid envelope: decode either fails
  // (CRC catches it) or — when the corruption misses the frame entirely,
  // which a single forced flip cannot — returns the original content.
  // Either way it must never crash and never return corrupt messages.
  Rng rng(16);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<net::Message> messages;
    const auto n = static_cast<std::size_t>(rng.uniformInt(1, 5));
    for (std::size_t i = 0; i < n; ++i)
      messages.push_back(net::CountReport{
          static_cast<std::uint32_t>(rng.uniformInt(1, 9)),
          rng.uniform(0.0, 100.0),
          static_cast<std::uint32_t>(rng.uniformInt(0, 50))});
    auto bytes = net::encodeBatchV3(
        net::BatchHeader{static_cast<std::uint32_t>(rng.uniformInt(1, 9)),
                         static_cast<std::uint32_t>(rng.uniformInt(1, 1000))},
        messages);
    const auto at = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(bytes.size()) - 1));
    const auto mask =
        static_cast<std::uint8_t>(rng.uniformInt(1, 255));
    bytes[at] ^= mask;
    const auto decoded = net::decodeBatch(bytes);  // must not throw
    EXPECT_FALSE(decoded.ok());  // a real flip is always caught by CRC
  }
}

TEST(Property, GoertzelEqualsFftBinForRandomSignals) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    dsp::CVec x(256);
    for (auto& v : x)
      v = dsp::cdouble(rng.gaussian(0, 1), rng.gaussian(0, 1));
    const auto spectrum = dsp::fft(x);
    const auto k = static_cast<std::size_t>(rng.uniformInt(0, 255));
    EXPECT_NEAR(std::abs(dsp::goertzel(x, static_cast<double>(k)) -
                         spectrum[k]),
                0.0, 1e-8);
  }
}

TEST(Property, AoaIdentityOverRandomFarFieldGeometry) {
  // For any baseline orientation and far-field target, measuring the
  // phase of ideal channels recovers the true baseline-target angle.
  Rng rng(8);
  for (int trial = 0; trial < 60; ++trial) {
    const double carrier = rng.uniform(phy::kCarrierMinHz,
                                       phy::kCarrierMaxHz);
    const double d = wavelength(carrier) / 2.0;
    // Random baseline direction.
    const double az = rng.phase(), el = rng.uniform(-0.8, 0.8);
    const phy::Vec3 u{std::cos(el) * std::cos(az),
                      std::cos(el) * std::sin(az), std::sin(el)};
    core::ArrayGeometry g;
    g.elements = {phy::Vec3{0, 0, 0}, u * d};
    g.pairs = {{0, 1}};

    // Random far-field target.
    const double taz = rng.phase(), tel = rng.uniform(-0.8, 0.8);
    const phy::Vec3 target = phy::Vec3{std::cos(tel) * std::cos(taz),
                                       std::cos(tel) * std::sin(taz),
                                       std::sin(tel)} * 500.0;

    core::TransponderObservation obs;
    obs.cfoHz = carrier - 914.3e6;
    const double lambda = wavelength(carrier);
    for (const auto& e : g.elements) {
      const double dist = phy::distance(e, target);
      const double phase = -kTwoPi * dist / lambda;
      obs.channels.push_back(
          0.01 * dsp::cdouble(std::cos(phase), std::sin(phase)));
    }
    const core::AoaEstimator estimator(g);
    const auto pa = estimator.pairAngle(obs.channels, 0, lambda);
    const double truth = std::acos(std::clamp(
        phy::dot(u, phy::direction({0, 0, 0}, target)), -1.0, 1.0));
    EXPECT_NEAR(pa.angleRad, truth, deg2rad(0.5)) << trial;
  }
}

TEST(Property, ConeResidualSignSeparatesInsideOutside) {
  // Points with a smaller angle to the axis than alpha give positive
  // residual; larger angle gives negative — the monotonicity the root
  // searches rely on.
  Rng rng(9);
  for (int trial = 0; trial < 40; ++trial) {
    core::ConeConstraint cone;
    cone.apex = {rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(2, 6)};
    cone.axis = {1, 0, 0};
    cone.angleRad = rng.uniform(0.3, 2.5);
    const double r = rng.uniform(3.0, 40.0);
    const double inside = cone.angleRad * 0.7;
    const double outside = std::min(kPi - 0.01, cone.angleRad * 1.3);
    const phy::Vec3 pIn =
        cone.apex + phy::Vec3{r * std::cos(inside), r * std::sin(inside), 0};
    const phy::Vec3 pOut =
        cone.apex +
        phy::Vec3{r * std::cos(outside), r * std::sin(outside), 0};
    EXPECT_GT(cone.residual(pIn), 0.0);
    EXPECT_LT(cone.residual(pOut), 0.0);
  }
}

// Parameterized FFT laws across sizes, including non-powers-of-two.
class FftSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeSweep, RoundTripAndParseval) {
  const std::size_t n = GetParam();
  Rng rng(10 + n);
  dsp::CVec x(n);
  for (auto& v : x) v = dsp::cdouble(rng.gaussian(0, 1), rng.gaussian(0, 1));
  const auto spectrum = dsp::fft(x);
  const auto back = dsp::ifft(spectrum);
  double timeEnergy = 0, freqEnergy = 0, maxErr = 0;
  for (std::size_t i = 0; i < n; ++i) {
    timeEnergy += std::norm(x[i]);
    freqEnergy += std::norm(spectrum[i]);
    maxErr = std::max(maxErr, std::abs(back[i] - x[i]));
  }
  EXPECT_NEAR(timeEnergy, freqEnergy / static_cast<double>(n),
              1e-6 * timeEnergy);
  EXPECT_LT(maxErr, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeSweep,
                         ::testing::Values(2, 3, 16, 60, 100, 255, 256, 257,
                                           1000, 2048));

// Parameterized modulation property: the CFO spike lands in the right bin
// for any on-grid CFO.
class CfoBinSweep : public ::testing::TestWithParam<int> {};

TEST_P(CfoBinSweep, SpikeInExpectedBin) {
  Rng rng(20 + GetParam());
  const phy::SamplingParams sampling;
  const double cfo = GetParam() * sampling.fftResolutionHz();
  const auto wave = phy::modulateResponse(
      phy::Packet::encode(phy::Packet::randomId(rng)), sampling, cfo,
      rng.phase());
  const auto mag = dsp::magnitude(dsp::fft(wave));
  EXPECT_EQ(dsp::argmax(mag), static_cast<std::size_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Bins, CfoBinSweep,
                         ::testing::Values(3, 50, 128, 256, 400, 511, 600));

}  // namespace
}  // namespace caraoke
