// Reproduces Fig 15: detected speed vs actual speed, 10-50 mph, 10 runs
// per speed. Two pole-mounted readers 200 ft apart time the car's abeam
// passages (cos(alpha) zero crossing on the road-parallel baseline); the
// delay between NTP-synchronized readers plus the known pole spacing give
// the speed. Paper: within 8% (1-4 mph) across the range.
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/aoa.hpp"
#include "core/speed.hpp"
#include "dsp/stats.hpp"
#include "harness.hpp"
#include "net/clock.hpp"
#include "scenes.hpp"

using namespace caraoke;

namespace {

// Track one car past one reader: AoA samples every 20 ms while in range.
std::vector<core::AngleSample> trackPassage(
    const sim::ReaderNode& reader, sim::Transponder& device, double speedMps,
    double laneY, const net::ReaderClock& clock,
    const sim::MultipathConfig& multipath, Rng& rng) {
  const core::AoaEstimator estimator(bench::geometryFor(reader));
  const std::size_t roadPair = estimator.geometry().roadPair();

  std::vector<core::AngleSample> samples;
  core::SpectrumAnalyzer analyzer;
  const double targetCfo =
      device.carrierHz() - reader.frontEnd.sampling.loFrequencyHz;
  const double startX = reader.pole.base.x - 15.0;
  const double endX = reader.pole.base.x + 15.0;
  for (double x = startX; x <= endX; x += speedMps * 0.040) {
    const double t = x / speedMps;  // car passes x=0 at t=0
    std::vector<sim::ActiveDevice> active{
        {&device, phy::Vec3{x, laneY, 1.2}}};
    const sim::Capture capture = sim::captureAtAntennas(
        reader.frontEnd, reader.array().elements(), active, multipath, rng);
    const auto observations = analyzer.analyze(capture.antennaSamples);
    const core::TransponderObservation* best = nullptr;
    double bestGap = 4e3;
    for (const auto& obs : observations) {
      const double gap = std::abs(obs.cfoHz - targetCfo);
      if (gap < bestGap) {
        bestGap = gap;
        best = &obs;
      }
    }
    if (best == nullptr) continue;
    const auto pa = estimator.pairAngle(
        best->channels, roadPair,
        wavelength(reader.frontEnd.sampling.loFrequencyHz + best->cfoHz));
    samples.push_back({clock.localTime(t), std::cos(pa.angleRad)});
  }
  return samples;
}

int run(const bench::BenchArgs& args, obs::Registry& results) {
  const std::size_t runs = args.sizeAt(0, 10);
  printBanner("Fig 15 — speed detection accuracy (" + std::to_string(runs) +
              " runs per speed)");
  Rng rng(1515);
  phy::EmpiricalCfoModel cfoModel;
  sim::MultipathConfig multipath;

  const double poleSpacing = feet(200.0);
  const sim::ReaderNode readerA = bench::makeReader(0.0);
  const sim::ReaderNode readerB = bench::makeReader(poleSpacing);
  const double laneY = 1.8;

  Table table({"actual (mph)", "detected mean (mph)", "90th pct (mph)",
               "mean err", "paper"});
  dsp::RunningStats allErrors;
  for (int mphSpeed = 10; mphSpeed <= 50; mphSpeed += 10) {
    const double v = mph(mphSpeed);
    std::vector<double> detected;
    std::vector<double> errs;
    for (std::size_t r = 0; r < runs; ++r) {
      sim::Transponder device = sim::Transponder::random(cfoModel, rng);
      net::ReaderClock clockA, clockB;
      clockA.ntpSync(0.0, net::kNtpResidualRmsSec, rng);
      clockB.ntpSync(0.0, net::kNtpResidualRmsSec, rng);

      const auto trackA = trackPassage(readerA, device, v, laneY, clockA,
                                       multipath, rng);
      const auto trackB = trackPassage(readerB, device, v, laneY, clockB,
                                       multipath, rng);
      const auto tA = core::findAbeamTime(trackA);
      const auto tB = core::findAbeamTime(trackB);
      if (!tA || !tB) continue;
      const auto est = core::estimateSpeed(readerA.pole.base.x, *tA,
                                           readerB.pole.base.x, *tB);
      if (!est) continue;
      detected.push_back(toMph(std::abs(*est)));
      const double err = std::abs(toMph(std::abs(*est)) - mphSpeed);
      errs.push_back(err);
      allErrors.add(err / mphSpeed);
    }
    table.addRow({std::to_string(mphSpeed),
                  Table::num(dsp::mean(detected), 1),
                  Table::num(dsp::percentile(detected, 90), 1),
                  Table::num(dsp::mean(errs), 1) + " mph",
                  "within 8% (1-4 mph)"});
  }
  table.print();
  std::cout << "\nOverall mean relative error: "
            << Table::num(allErrors.mean() * 100, 1)
            << "%  (paper: within 8%)\n";
  results.counter("bench.fig15.runs_per_speed").inc(runs);
  results.gauge("bench.fig15.mean_rel_err_pct").set(allErrors.mean() * 100);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::benchMain(argc, argv, "", run); }
