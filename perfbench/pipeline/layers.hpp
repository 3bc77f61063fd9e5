// Accumulators shared by the workloads: the end-to-end figures every
// workload reports, and the per-layer figures of a traced run.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "net/backend.hpp"
#include "obs/metrics.hpp"
#include "pipeline/bench.hpp"

namespace perfbench {

/// End-to-end figures, measured with the per-layer timers off.
struct EndToEnd {
  Samples rt;          ///< Compute per operation / real time it stands for.
  Samples ingestUs;    ///< Backend::ingestBatch per frame [us].
  Samples setupSec;    ///< Pipeline construction (+ restore) per episode.
  double computeSec = 0.0;  ///< Pipeline compute (world model excluded).
  std::uint64_t batches = 0;
};

/// Per-layer figures of a traced run; each time is one bracketed call.
struct Layers {
  Samples simQueryUs, fftUs, cfarUs;
  Samples countUs, analyzeUs, aoaUs, trackUs, decodeUs;
  double spikes = 0, observations = 0, tracks = 0;
  std::uint64_t decodeWindows = 0, combines = 0, decodedIds = 0;
  Samples windowMs;
  Samples outboxUs, frameBytes;
  Samples ingestUs;
  std::uint64_t dedups = 0;
  std::uint64_t walFsyncs = 0, walBytes = 0;
  Samples snapshotUs, stateBytes;
  Samples fuseUs, pairUs;
  double fuseFixes = 0, pendingSightings = 0, pairFixes = 0, pendingSpeed = 0;
  /// Coverage: compute the timed layers account for, against the
  /// pipeline compute measured around the whole operation.
  double coveredSec = 0.0, computeSec = 0.0;
};

/// Global WAL counters (net.backend.wal.*), read before and after a run
/// to attribute fsyncs and bytes per batch.
struct WalCounters {
  std::uint64_t fsyncs = 0, bytes = 0;
  static WalCounters read() {
    auto& r = caraoke::obs::globalRegistry();
    return {r.counter("net.backend.wal.fsyncs").value(),
            r.counter("net.backend.wal.bytes").value()};
  }
};

/// Per-(reader, seq) ack ledger for the "acked exactly once" check.
class AckLedger {
 public:
  /// A first-time (non-deduplicated) ingest of this batch.
  void ingested(std::uint32_t reader, std::uint32_t seq) {
    ++firstIngests_[{reader, seq}];
  }
  /// Batches 1..lastSeq of `reader` not ingested exactly once.
  std::uint64_t violations(std::uint32_t reader, std::uint32_t lastSeq) const {
    std::uint64_t bad = 0;
    for (std::uint32_t s = 1; s <= lastSeq; ++s) {
      const auto it = firstIngests_.find({reader, s});
      if (it == firstIngests_.end() || it->second != 1) ++bad;
    }
    return bad;
  }

 private:
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> firstIngests_;
};

/// Append every per-layer metric, in the order BENCHMARK.json lists them.
void emitLayers(const Layers& layers, double traceOverheadFrac,
                RunResult& out);

/// Append the end-to-end metrics plus their table rows. Each workload
/// fixes its tail percentiles up front, so a faster build cannot change
/// which percentile is reported; the table shows how many samples lie
/// beyond each (a tail needs at least ten).
void emitEndToEnd(const EndToEnd& e2e, double rtTailPercentile,
                  double ingestTailPercentile, RunResult& out);

}  // namespace perfbench
