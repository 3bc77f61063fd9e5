// Shared pieces of the pipeline benchmark: run options, the
// outside-in timer, sample statistics, and the result a workload hands to
// the reporter.
//
// Every timing here brackets a call into one layer's public functions
// from the benchmark's own code; nothing inside src/ is instrumented.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the durable backend's WAL and snapshots.
  std::string stateDir;
};

/// Monotonic seconds since an arbitrary origin.
inline double now() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Times one bracketed call: `Stopwatch sw; call(); double s = sw.lap();`.
class Stopwatch {
 public:
  Stopwatch() : start_(now()) {}
  /// Seconds since construction or the previous lap.
  double lap() {
    const double t = now();
    const double dt = t - start_;
    start_ = t;
    return dt;
  }

 private:
  double start_;
};

/// A stream of positive samples in fixed memory: exact count and mean,
/// percentiles from log-spaced buckets 0.1% wide (interpolated by rank
/// within a bucket). Fixed memory keeps the benchmark's own bookkeeping
/// out of the program's peak RSS however many operations a run gets
/// through.
class Samples {
 public:
  void add(double v) {
    if (counts_.empty()) counts_.assign(kBuckets, 0);
    ++counts_[bucketOf(v)];
    ++count_;
    sum_ += v;
  }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// Percentile, p in [0, 100]; 0 when empty.
  double percentile(double p) const {
    if (count_ == 0) return 0.0;
    const double rank = p / 100.0 * static_cast<double>(count_ - 1);
    double below = 0.0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const auto c = static_cast<double>(counts_[b]);
      if (c == 0.0) continue;
      if (rank < below + c) {
        const double frac = (rank - below + 0.5) / c;
        return kMin * std::pow(kGrowth, static_cast<double>(b) + frac);
      }
      below += c;
    }
    return kMin * std::pow(kGrowth, static_cast<double>(kBuckets));
  }
  double median() const { return percentile(50.0); }
  /// Samples ranked above the p-th percentile.
  std::size_t beyond(double p) const {
    if (count_ == 0) return 0;
    const double rank = p / 100.0 * static_cast<double>(count_ - 1);
    return count_ - 1 - static_cast<std::size_t>(rank);
  }

 private:
  static constexpr double kMin = 1e-7;
  static constexpr double kGrowth = 1.001;
  static constexpr std::size_t kBuckets = 32'300;  // up to ~1e7

  static std::size_t bucketOf(double v) {
    if (!(v > kMin)) return 0;
    const auto b =
        static_cast<std::size_t>(std::log(v / kMin) / std::log(kGrowth));
    return std::min(b, kBuckets - 1);
  }

  std::vector<std::uint32_t> counts_;
  std::size_t count_ = 0;
  double sum_ = 0.0;
};

/// Six significant digits, for the human-readable table.
inline std::string formatNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// One reported number.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run produces.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable descriptions of failed output checks (first few).
  std::vector<std::string> failures;
  /// Metrics for the result line, in print order.
  std::vector<std::pair<std::string, Metric>> metrics;
  /// Extra rows for the human-readable table only (name, value, unit,
  /// note), e.g. quality figures and metrics that do not apply ("n/a").
  struct Row {
    std::string name;
    std::string value;
    std::string unit;
    std::string note;
  };
  std::vector<Row> table;

  void fail(std::string what, std::uint64_t ops = 1) {
    failed += ops;
    if (failures.size() < 8) failures.push_back(std::move(what));
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, Metric{value, unit});
  }
  void row(std::string name, std::string value, std::string unit,
           std::string note) {
    table.push_back({std::move(name), std::move(value), std::move(unit),
                     std::move(note)});
  }
};

/// Un-timed warm-up before the measured phases: 2 s, or a quarter of a
/// short run. Warm-up episodes are numbered from kWarmupEpisodeBase so the
/// measured episodes are the same whatever the warm-up got through.
inline double warmupSeconds(const Options& options) {
  return std::min(2.0, options.seconds / 4.0);
}
inline constexpr std::size_t kWarmupEpisodeBase = 1'000'000;

/// Peak resident set size of this process [MB] (VmHWM).
double peakRssMb();

/// Run one workload. Each returns the metrics for the requested mode
/// (end-to-end with tracing off, per-layer with tracing on).
RunResult runPlazaDense(const Options& options);
RunResult runCorridorPass(const Options& options);
RunResult runFleetIngest(const Options& options);

/// Print the human-readable table, then the one-line JSON result.
void printReport(const Options& options, const RunResult& result);

}  // namespace perfbench
