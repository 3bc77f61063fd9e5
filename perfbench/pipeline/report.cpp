#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "pipeline/layers.hpp"

namespace perfbench {

namespace {

double meanOr0(const Samples& s) { return s.empty() ? 0.0 : s.mean(); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// JSON number with every digit (round-trip precision); non-finite
/// values cannot appear in JSON, so they print as 0.
std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double peakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the pre-exec peak
  // of the launching process (the Python wrapper) across execve.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

void emitEndToEnd(const EndToEnd& e2e, double rtTailPercentile,
                  double ingestTailPercentile, RunResult& out) {
  out.metric("rt_tail", e2e.rt.percentile(rtTailPercentile), "ratio");
  out.metric("batches_per_s", ratio(static_cast<double>(e2e.batches),
                                    e2e.computeSec),
             "1/s");
  out.metric("setup_s", e2e.setupSec.median(), "s");
  out.metric("peak_rss_mb", peakRssMb(), "MB");

  auto tailNote = [](const Samples& s, double percentile) {
    const std::size_t beyond = s.beyond(percentile);
    std::string note = "p" + formatNumber(percentile) + " of " +
                       std::to_string(s.size()) + " samples, " +
                       std::to_string(beyond) + " beyond";
    if (beyond < 10) note += " (fewer than 10: run longer)";
    return note;
  };
  out.row("rt_tail", "", "", tailNote(e2e.rt, rtTailPercentile));
  out.row("setup_s", "", "",
          "median of " + std::to_string(e2e.setupSec.size()) +
              " episode set-ups");
  // Printed, not in the result line: on a shared machine that flips
  // between a fast and a slow mode every few seconds, a run's median
  // lands in either mode (run-to-run spread up to 0.2), while the tail
  // and the mean-based batches_per_s hold within about 0.1. Ingest
  // latency on the reader workloads is a cold-cache figure after a window
  // of DSP and swings more still.
  out.row("rt_p50", formatNumber(e2e.rt.median()), "ratio",
          "median per operation");
  out.row("ingest_us_p50", formatNumber(e2e.ingestUs.median()), "us",
          "Backend::ingestBatch per frame");
  out.row("ingest_us_tail",
          formatNumber(e2e.ingestUs.percentile(ingestTailPercentile)), "us",
          tailNote(e2e.ingestUs, ingestTailPercentile));
}

void emitLayers(const Layers& l, double traceOverheadFrac, RunResult& out) {
  out.metric("sim.query_us", meanOr0(l.simQueryUs), "us");
  out.metric("dsp.fft_us", meanOr0(l.fftUs), "us");
  out.metric("dsp.cfar_us", meanOr0(l.cfarUs), "us");
  out.metric("core.count_us", meanOr0(l.countUs), "us");
  out.metric("core.count_spikes",
             ratio(l.spikes, static_cast<double>(l.countUs.size())), "count");
  out.metric("core.analyze_us", meanOr0(l.analyzeUs), "us");
  out.metric("core.observations",
             ratio(l.observations, static_cast<double>(l.analyzeUs.size())),
             "count");
  out.metric("core.aoa_us", meanOr0(l.aoaUs), "us");
  out.metric("core.track_us", meanOr0(l.trackUs), "us");
  out.metric("core.tracks",
             ratio(l.tracks, static_cast<double>(l.trackUs.size())), "count");
  out.metric("core.decode_us", meanOr0(l.decodeUs), "us");
  out.metric("core.decode_combines",
             ratio(static_cast<double>(l.combines),
                   static_cast<double>(l.decodeWindows)),
             "count");
  out.metric("core.decode_success_ratio",
             ratio(static_cast<double>(l.decodedIds),
                   static_cast<double>(l.combines)),
             "ratio");
  out.metric("apps.window_ms", meanOr0(l.windowMs), "ms");
  out.metric("net.outbox_us", meanOr0(l.outboxUs), "us");
  out.metric("net.frame_bytes", meanOr0(l.frameBytes), "bytes");
  out.metric("net.ingest_us", meanOr0(l.ingestUs), "us");
  out.metric("net.dedup_ratio",
             ratio(static_cast<double>(l.dedups),
                   static_cast<double>(l.ingestUs.size())),
             "ratio");
  out.metric("net.wal_fsyncs_per_batch",
             ratio(static_cast<double>(l.walFsyncs),
                   static_cast<double>(l.ingestUs.size())),
             "count");
  out.metric("net.wal_bytes_per_batch",
             ratio(static_cast<double>(l.walBytes),
                   static_cast<double>(l.ingestUs.size())),
             "bytes");
  out.metric("net.snapshot_us", meanOr0(l.snapshotUs), "us");
  out.metric("net.state_bytes", meanOr0(l.stateBytes), "bytes");
  out.metric("net.fuse_us", meanOr0(l.fuseUs), "us");
  out.metric("net.fuse_fixes",
             ratio(l.fuseFixes, static_cast<double>(l.fuseUs.size())),
             "count");
  out.metric("net.pending_sightings",
             ratio(l.pendingSightings, static_cast<double>(l.fuseUs.size())),
             "count");
  out.metric("net.pair_us", meanOr0(l.pairUs), "us");
  out.metric("net.pair_fixes",
             ratio(l.pairFixes, static_cast<double>(l.pairUs.size())),
             "count");
  out.metric("net.pending_speed_samples",
             ratio(l.pendingSpeed, static_cast<double>(l.pairUs.size())),
             "count");
  out.metric("uncovered_frac", 1.0 - ratio(l.coveredSec, l.computeSec),
             "ratio");
  out.metric("trace_overhead_frac", traceOverheadFrac, "ratio");
}

void printReport(const Options& options, const RunResult& result) {
  std::printf("# perfbench pipeline: workload=%s seed=%llu seconds=%g "
              "trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("%-28s %16s  %-6s  %s\n", "metric", "value", "unit", "note");
  for (const auto& [name, m] : result.metrics) {
    std::string note;
    for (const auto& row : result.table)
      if (row.name == name && row.value.empty()) note = row.note;
    std::printf("%-28s %16s  %-6s  %s\n", name.c_str(),
                formatNumber(m.value).c_str(), m.unit.c_str(), note.c_str());
  }
  for (const auto& row : result.table)
    if (!row.value.empty())
      std::printf("%-28s %16s  %-6s  %s\n", row.name.c_str(),
                  row.value.c_str(), row.unit.c_str(), row.note.c_str());
  const double errorFrac =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 0.0;
  std::printf("%-28s %16s  %-6s  %s\n", "error_frac",
              formatNumber(errorFrac).c_str(), "ratio",
              (std::to_string(result.failed) + " failed of " +
               std::to_string(result.attempted) + " operations")
                  .c_str());
  for (const auto& f : result.failures)
    std::printf("# check failed: %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + jsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
