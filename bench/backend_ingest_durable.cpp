// WAL-overhead ablation for the durable backend: ingest the same batch
// stream into a Backend under every fsync policy and compare against the
// durability-off baseline.
//
//   off           no durability dir configured (the pre-PR7 backend)
//   every_append  fsync after every WAL append (strongest guarantee)
//   every_8       group commit: fsync once per 8 appends
//   on_snapshot   fsync only when a snapshot is cut (weakest, fastest)
//
// Reports per-batch latency, throughput, and the WAL counter deltas
// (appends / bytes / fsyncs / snapshots) per policy, plus the overhead
// fraction of each durable policy versus `off`. benchgate.py gates the
// binary's bench.wall_seconds against the committed baseline, so a WAL
// hot-path regression beyond the standard 10% threshold fails CI.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "net/backend.hpp"
#include "net/framing.hpp"
#include "obs/trace.hpp"

using namespace caraoke;

namespace {

struct Policy {
  const char* name;
  bool durable;
  net::WalFsyncPolicy fsync;
  std::size_t fsyncEveryN;
  std::size_t snapshotEveryAppends;
};

constexpr Policy kPolicies[] = {
    {"off", false, net::WalFsyncPolicy::kEveryAppend, 0, 0},
    {"every_append", true, net::WalFsyncPolicy::kEveryAppend, 0, 0},
    {"every_8", true, net::WalFsyncPolicy::kEveryN, 8, 0},
    {"on_snapshot", true, net::WalFsyncPolicy::kOnSnapshot, 0, 64},
};

/// The same pre-encoded uplink stream every policy ingests: one count
/// plus a few sightings per batch, seq strictly increasing (no dedups,
/// so every batch takes the full WAL-append + apply path).
std::vector<std::vector<std::uint8_t>> makeStream(std::size_t batches,
                                                  Rng& rng) {
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(batches);
  for (std::size_t i = 0; i < batches; ++i) {
    const double t = 0.5 * static_cast<double>(i);
    std::vector<net::Message> messages;
    messages.push_back(net::CountReport{1, t, 3, 0, 0});
    for (std::uint32_t s = 0; s < 4; ++s) {
      messages.push_back(net::SightingReport{
          1, t, 600e3 + 100.0 * rng.uniform(0.0, 1.0),
          s % 3, rng.uniform(-0.8, 0.8), 2.0, 0, 0});
    }
    net::BatchHeader header;
    header.readerId = 1;
    header.seq = static_cast<std::uint32_t>(i + 1);
    frames.push_back(net::encodeBatchV3(header, messages));
  }
  return frames;
}

std::uint64_t counterValue(const char* name) {
  return obs::globalRegistry().counter(name).value();
}

int run(const bench::BenchArgs& args, obs::Registry& results) {
  const std::size_t batches = args.sizeAt(0, 200);
  Rng rng(707);
  const auto frames = makeStream(batches, rng);

  Table table({"policy", "batches", "wall ms", "us/batch", "batches/s",
               "fsyncs", "wal KiB", "snapshots", "vs off"});
  double offSeconds = 0.0;
  for (const Policy& policy : kPolicies) {
    std::string dir;
    net::BackendConfig config;
    if (policy.durable) {
      char tmplt[] = "/tmp/caraoke_bench_walXXXXXX";
      if (::mkdtemp(tmplt) == nullptr) {
        std::cerr << "mkdtemp failed\n";
        return 1;
      }
      dir = tmplt;
      config.durability.dir = dir;
      config.durability.fsyncPolicy = policy.fsync;
      if (policy.fsyncEveryN > 0)
        config.durability.fsyncEveryN = policy.fsyncEveryN;
      config.durability.snapshotEveryAppends = policy.snapshotEveryAppends;
    }
    net::Backend backend(config);
    if (policy.durable && !backend.restore().ok()) {
      std::cerr << "restore failed for " << policy.name << "\n";
      return 1;
    }

    const std::uint64_t fsyncs0 = counterValue("net.backend.wal.fsyncs");
    const std::uint64_t bytes0 = counterValue("net.backend.wal.bytes");
    const std::uint64_t snaps0 = counterValue("net.backend.snapshots_written");
    const double t0 = obs::monotonicSeconds();
    for (const auto& frame : frames) {
      const auto stats = backend.ingestBatch(frame);
      if (!stats.ok()) {
        std::cerr << "ingest failed under " << policy.name << ": "
                  << stats.error() << "\n";
        return 1;
      }
    }
    const double seconds = obs::monotonicSeconds() - t0;
    const std::uint64_t fsyncs = counterValue("net.backend.wal.fsyncs") - fsyncs0;
    const std::uint64_t walBytes = counterValue("net.backend.wal.bytes") - bytes0;
    const std::uint64_t snapshots =
        counterValue("net.backend.snapshots_written") - snaps0;
    if (!policy.durable) offSeconds = seconds;
    const double overhead =
        offSeconds > 0.0 ? seconds / offSeconds - 1.0 : 0.0;

    table.addRow({policy.name, std::to_string(batches),
                  Table::num(seconds * 1e3, 2),
                  Table::num(seconds / batches * 1e6, 2),
                  Table::num(batches / seconds, 0),
                  std::to_string(fsyncs),
                  Table::num(static_cast<double>(walBytes) / 1024.0, 1),
                  std::to_string(snapshots),
                  policy.durable ? Table::num(overhead * 100.0, 1) + "%"
                                 : "baseline"});

    const std::string prefix = std::string("bench.ingest.") + policy.name;
    results.gauge(prefix + ".seconds").set(seconds);
    results.gauge(prefix + ".batches_per_sec").set(batches / seconds);
    if (policy.durable) {
      results.gauge(prefix + ".overhead_frac").set(overhead);
      results.gauge(prefix + ".fsyncs").set(static_cast<double>(fsyncs));
      results.gauge(prefix + ".wal_bytes").set(static_cast<double>(walBytes));
      results.gauge(prefix + ".snapshots").set(static_cast<double>(snapshots));
    }
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
  table.print();
  std::cout << "\nDurability cost is dominated by fsync frequency: group "
               "commit (every_8) and on_snapshot amortize the flush; the "
               "bench's overall wall time rides under benchgate's standard "
               "10% regression gate.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::benchMain(argc, argv,
                          "durable backend — WAL fsync-policy ablation", run);
}
