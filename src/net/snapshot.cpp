#include "net/snapshot.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "net/framing.hpp"
#include "phy/crc.hpp"

namespace caraoke::net {

namespace {

constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".snap";

bool fsyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Parse `snapshot-<seq>.snap`; false for anything else (tmp files,
/// the WAL, strangers).
bool parseSnapshotName(const std::string& name, std::uint64_t& seq) {
  const std::string prefix = kSnapshotPrefix;
  const std::string suffix = kSnapshotSuffix;
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
    return false;
  seq = 0;
  for (std::size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    const char ch = name[i];
    if (ch < '0' || ch > '9') return false;
    seq = seq * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  return true;
}

std::vector<std::pair<std::uint64_t, std::string>> listSnapshots(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::uint64_t seq = 0;
    if (parseSnapshotName(entry.path().filename().string(), seq))
      out.emplace_back(seq, entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::string snapshotFileName(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s%010llu%s", kSnapshotPrefix,
                static_cast<unsigned long long>(seq), kSnapshotSuffix);
  return buf;
}

std::vector<std::uint8_t> encodeSnapshot(const BackendSnapshot& snapshot) {
  ByteWriter out;
  out.u16(kSnapshotMagic);
  out.u16(kSnapshotVersion);
  out.u64(snapshot.walOffset);

  out.u32(static_cast<std::uint32_t>(snapshot.seq.size()));
  for (const ReaderSeqRecord& r : snapshot.seq) {
    out.u32(r.readerId);
    out.u32(r.maxSeq);
    out.u32(static_cast<std::uint32_t>(r.seen.size()));
    for (const std::uint32_t s : r.seen) out.u32(s);
  }

  auto appendSection = [&out](auto const& reports) {
    out.u32(static_cast<std::uint32_t>(reports.size()));
    for (const auto& report : reports) appendTracedEntry(out, Message{report});
  };
  appendSection(snapshot.sightings);
  appendSection(snapshot.counts);
  appendSection(snapshot.decodes);

  out.u32(static_cast<std::uint32_t>(snapshot.speedSamples.size()));
  for (const SpeedSampleRecord& s : snapshot.speedSamples) {
    out.u32(s.readerId);
    out.f64(s.timestamp);
    out.f64(s.cfoHz);
    out.f64(s.cosAlpha);
    out.u64(s.traceId);
  }

  out.u32(phy::crc32(out.bytes()));
  return out.take();
}

caraoke::Result<BackendSnapshot> decodeSnapshot(
    std::span<const std::uint8_t> bytes) {
  using R = caraoke::Result<BackendSnapshot>;
  if (bytes.size() < 16) return R::failure("truncated snapshot");
  const auto body = bytes.first(bytes.size() - 4);
  std::uint32_t stored = 0;
  ByteReader(bytes.last(4)).u32(stored);
  if (stored != phy::crc32(body)) return R::failure("snapshot crc mismatch");

  ByteReader c(body);
  std::uint16_t magic = 0;
  std::uint16_t version = 0;
  BackendSnapshot out;
  if (!c.u16(magic) || magic != kSnapshotMagic)
    return R::failure("bad snapshot magic");
  if (!c.u16(version) || version != kSnapshotVersion)
    return R::failure("unsupported snapshot version");
  if (!c.u64(out.walOffset)) return R::failure("truncated snapshot header");

  std::uint32_t readers = 0;
  if (!c.u32(readers)) return R::failure("truncated snapshot seq section");
  for (std::uint32_t i = 0; i < readers; ++i) {
    ReaderSeqRecord r;
    std::uint32_t n = 0;
    if (!c.u32(r.readerId) || !c.u32(r.maxSeq) || !c.u32(n))
      return R::failure("truncated snapshot seq record");
    r.seen.reserve(n);
    for (std::uint32_t j = 0; j < n; ++j) {
      std::uint32_t s = 0;
      if (!c.u32(s)) return R::failure("truncated snapshot seq record");
      r.seen.push_back(s);
    }
    out.seq.push_back(std::move(r));
  }

  auto readSection = [&c](auto& reports, const char** error) {
    using ReportT = typename std::decay_t<decltype(reports)>::value_type;
    std::uint32_t n = 0;
    if (!c.u32(n)) {
      *error = "truncated snapshot section";
      return false;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      Message m;
      if (readTracedEntry(c, m) != EntryRead::kOk) {
        *error = "bad snapshot report entry";
        return false;
      }
      const auto* report = std::get_if<ReportT>(&m);
      if (report == nullptr) {
        *error = "snapshot report entry of unexpected type";
        return false;
      }
      reports.push_back(*report);
    }
    return true;
  };
  const char* error = nullptr;
  if (!readSection(out.sightings, &error)) return R::failure(error);
  if (!readSection(out.counts, &error)) return R::failure(error);
  if (!readSection(out.decodes, &error)) return R::failure(error);

  std::uint32_t samples = 0;
  if (!c.u32(samples)) return R::failure("truncated snapshot speed section");
  for (std::uint32_t i = 0; i < samples; ++i) {
    SpeedSampleRecord s;
    if (!c.u32(s.readerId) || !c.f64(s.timestamp) || !c.f64(s.cfoHz) ||
        !c.f64(s.cosAlpha) || !c.u64(s.traceId))
      return R::failure("truncated snapshot speed sample");
    out.speedSamples.push_back(s);
  }
  if (!c.atEnd()) return R::failure("trailing bytes in snapshot");
  return out;
}

bool writeSnapshotFile(const std::string& dir, std::uint64_t seq,
                       std::span<const std::uint8_t> bytes) {
  const std::string finalPath = dir + "/" + snapshotFileName(seq);
  const std::string tmpPath = finalPath + ".tmp";
  {
    const int fd =
        ::open(tmpPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return false;
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n = ::write(fd, bytes.data() + written,
                                bytes.size() - written);
      if (n < 0) {
        ::close(fd);
        return false;
      }
      written += static_cast<std::size_t>(n);
    }
    const bool synced = ::fsync(fd) == 0;
    ::close(fd);
    if (!synced) return false;
  }
  if (std::rename(tmpPath.c_str(), finalPath.c_str()) != 0) return false;
  // Publish the rename: fsync the directory so the new name survives a
  // power cut (best-effort — some filesystems refuse O_RDONLY dir fds).
  (void)fsyncPath(dir);
  return true;
}

LoadedSnapshot loadNewestSnapshot(const std::string& dir,
                                  std::size_t* rejected) {
  if (rejected != nullptr) *rejected = 0;
  auto candidates = listSnapshots(dir);
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    std::ifstream in(it->second, std::ios::binary);
    if (!in) {
      if (rejected != nullptr) ++*rejected;
      continue;
    }
    std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
    auto decoded = decodeSnapshot(bytes);
    if (!decoded.ok()) {
      if (rejected != nullptr) ++*rejected;
      continue;
    }
    return {it->first, std::move(decoded.value())};
  }
  return {};
}

std::uint64_t newestSnapshotSeq(const std::string& dir) {
  auto candidates = listSnapshots(dir);
  return candidates.empty() ? 0 : candidates.back().first;
}

}  // namespace caraoke::net
