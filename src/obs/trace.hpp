// Per-stage pipeline tracing: RAII scoped timers that feed duration
// histograms, plus an optional span sink that sees begin/end pairs so a
// whole pipeline pass (e.g. one ReaderDaemon measurement window) can be
// reconstructed as a span tree.
//
//   {
//     obs::ObsSpan span("counter.phase_test");
//     ... work ...
//   }  // duration recorded into histogram "counter.phase_test"
//
// Nesting is tracked per thread; a sink receives the depth with each
// begin/end, which is all SpanTreeSink needs to rebuild the call tree.
// With no sink attached a span costs two steady_clock reads and one
// histogram observe.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"

namespace caraoke::obs {

/// Monotonic seconds since process start (steady clock); the timestamp
/// base shared by spans, events, and the log prefix.
double monotonicSeconds();

/// Cross-process trace identity: a traceId names one end-to-end journey
/// (minted per ReaderDaemon query burst) and spanId names the minting
/// span within it. traceId 0 means "no trace" so that zero-initialized
/// records and untraced producers degrade gracefully.
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

/// The calling thread's current trace context (invalid when none).
TraceContext currentTraceContext();

/// RAII guard installing a trace context for the enclosed scope; spans
/// and daemon events created inside pick it up implicitly. Restores the
/// previous context on destruction so scopes nest.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext context);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext previous_;
};

/// A finished span as delivered to sinks.
struct SpanRecord {
  std::string name;
  int depth = 0;        ///< 0 = top-level span on its thread.
  double startSec = 0;  ///< monotonicSeconds() at construction.
  double endSec = 0;
  std::uint64_t traceId = 0;  ///< 0 when no trace context was active.
  std::uint64_t spanId = 0;
};

/// Receives span begin/end notifications (same thread as the span).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void onSpanBegin(const char* name, int depth, double startSec) = 0;
  virtual void onSpanEnd(const SpanRecord& span) = 0;
};

/// Attach/detach the process-wide trace sink (non-owning; nullptr
/// detaches). The caller keeps the sink alive while attached.
void attachTraceSink(TraceSink* sink);
TraceSink* traceSink();

/// RAII scoped timer. The histogram lives in the given registry (global
/// by default) under the span's name; hot paths can pre-resolve the
/// histogram once and use the (name, histogram) constructor to skip the
/// per-span registry lookup.
class ObsSpan {
 public:
  explicit ObsSpan(const char* name, Registry* registry = nullptr);
  ObsSpan(const char* name, Histogram& histogram);
  ~ObsSpan();

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  void begin();
  const char* name_;
  Histogram* histogram_;
  double startSec_ = 0.0;
  int depth_ = 0;
};

/// Trace sink that aggregates spans into a tree keyed by call path
/// ("daemon.window" -> "daemon.window/counter.count" -> ...), with call
/// counts and total time per node. summary() renders it indented:
///
///   daemon.window                 30 calls   120.4 ms
///     counter.count               30 calls    80.1 ms
///     decoder.add_collision       64 calls    22.0 ms
class SpanTreeSink : public TraceSink {
 public:
  void onSpanBegin(const char* name, int depth, double startSec) override;
  void onSpanEnd(const SpanRecord& span) override;

  struct Node {
    std::string name;
    std::size_t calls = 0;
    double totalSec = 0.0;
    std::vector<Node> children;
  };

  /// Aggregated roots (one per distinct top-level span name).
  std::vector<Node> roots() const;
  /// Human-readable indented rendering of the tree.
  std::string summary() const;
  void clear();

 private:
  /// Walks/extends a level of the tree rooted at roots_; the caller
  /// already holds mutex_.
  Node* findOrAdd(std::vector<Node>& level, const std::string& name) const
      CARAOKE_REQUIRES(mutex_);

  mutable std::mutex mutex_;
  std::vector<Node> roots_ CARAOKE_GUARDED_BY(mutex_);
  // Per-thread open-span path; keyed by an opaque thread token.
  std::map<unsigned long long, std::vector<std::string>> openPaths_
      CARAOKE_GUARDED_BY(mutex_);
};

}  // namespace caraoke::obs
