// Crash/degradation flight recorder: a fixed-capacity ring buffer that
// always retains the last K structured events, so the moment a daemon's
// watchdog trips (degraded / uplink_down) there is a post-mortem trail
// to dump — without paying for an unbounded log in the steady state. This is the black box the chaos tests read after a
// failure: "what was the reader doing in the 200 windows before the
// uplink died?".
//
// The recorder is an EventSink, so it can be attached process-wide
// (tests, tools) or fed directly (ReaderDaemon and Backend record their
// own events into a private recorder regardless of whether a global
// sink is attached). Events that belong to a journey carry an explicit
// `trace` field, which the filtered snapshot() matches on.
//
// Thread safety: every method takes the internal mutex; recording is a
// ring-slot assignment (no allocation churn beyond the Event's own
// strings), safe to call from the expo server thread and the daemon
// thread concurrently.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "obs/events.hpp"

namespace caraoke::obs {

/// Fixed-capacity ring of the most recent events.
class FlightRecorder : public EventSink {
 public:
  /// `capacity` is clamped to >= 1 (a zero-capacity black box records
  /// nothing and would turn every dump into an empty file silently).
  explicit FlightRecorder(std::size_t capacity = 256);

  /// Record one event (overwrites the oldest entry when full).
  void record(Event event);

  // EventSink: events flow straight into the ring.
  void emit(const Event& event) override { record(event); }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  /// Total record() calls ever; minus size() gives the overwritten count.
  std::uint64_t totalRecorded() const;

  /// Ring contents, oldest first.
  std::vector<Event> snapshot() const;
  /// Filtered view: entries whose "trace" field equals `traceHexFilter`
  /// (empty = all entries), truncated to the newest `maxEntries`
  /// (0 = unlimited). Backs /flight?n=K&trace=<id> and /trace/<id>.
  std::vector<Event> snapshot(std::size_t maxEntries,
                              const std::string& traceHexFilter) const;
  /// JSON-lines rendering of snapshot() (one toJsonLine per entry,
  /// trailing newline) — the dump format, also served at /flight.
  std::string jsonLines(std::size_t maxEntries = 0,
                        const std::string& traceHexFilter = {}) const;
  /// Write jsonLines() to `path` (truncating). False on I/O failure.
  bool dumpToFile(const std::string& path) const;

  void clear();

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;  ///< Immutable after construction.
  /// Grows to capacity_, then cycles.
  std::vector<Event> ring_ CARAOKE_GUARDED_BY(mutex_);
  /// Slot the next record lands in.
  std::size_t next_ CARAOKE_GUARDED_BY(mutex_) = 0;
  std::uint64_t total_ CARAOKE_GUARDED_BY(mutex_) = 0;
};

}  // namespace caraoke::obs
