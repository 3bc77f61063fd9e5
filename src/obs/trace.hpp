// Trace identity and the one scoped histogram timer.
//
// A TraceContext names one end-to-end transponder journey; producers
// carry its id as an explicit `trace` event field and in the v3 wire
// envelope, so nothing here is ambient or thread-local.
//
// ObsSpan times a scope into a pre-resolved histogram:
//
//   obs::Histogram& windowSec = registry.histogram("daemon.x.seconds");
//   {
//     obs::ObsSpan span(windowSec);
//     ... work ...
//   }  // duration observed into windowSec
//
// It costs two steady_clock reads and one lock-free histogram observe.
// Per-stage cost inside a window belongs to the hot-path profiler
// (obs/prof.hpp), not to spans: use ObsSpan only where the histogram is
// exported and read.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace caraoke::obs {

/// Monotonic seconds since process start (steady clock); the timestamp
/// base shared by spans and events.
double monotonicSeconds();

/// Cross-process trace identity: a traceId names one end-to-end journey
/// (minted per ReaderDaemon measurement window) and spanId names the
/// minting window within it. traceId 0 means "no trace" so that
/// zero-initialized records and untraced producers degrade gracefully.
struct TraceContext {
  std::uint64_t traceId = 0;
  std::uint64_t spanId = 0;
  bool valid() const { return traceId != 0; }
};

/// Canonical 16-hex-char lowercase rendering of a trace/span id, used in
/// event fields and /trace/<id> URLs (u64 does not fit a JSON int64).
std::string traceHex(std::uint64_t id);
/// Inverse of traceHex; returns 0 on malformed input (which is also the
/// "no trace" sentinel, so callers need no separate error path).
std::uint64_t parseTraceHex(const std::string& hex);

/// RAII scoped timer observing its duration (seconds) into `histogram`.
/// Takes no lock and does no lookup: resolve the histogram once.
class ObsSpan {
 public:
  explicit ObsSpan(Histogram& histogram);
  ~ObsSpan();

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  Histogram& histogram_;
  double startSec_;
};

}  // namespace caraoke::obs
