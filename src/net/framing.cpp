#include "net/framing.hpp"

#include "phy/crc.hpp"

namespace caraoke::net {

namespace {

/// magic + readerId + seq + count.
constexpr std::size_t kHeaderBytes = 12;
constexpr std::size_t kCrcBytes = 4;

}  // namespace

void appendTracedEntry(ByteWriter& out, const Message& message) {
  const std::vector<std::uint8_t> payload = encodeMessage(message);
  const obs::TraceContext trace = messageTrace(message);
  out.u16(static_cast<std::uint16_t>(kTracePrefixBytes + payload.size()));
  out.u64(trace.traceId);
  out.u64(trace.spanId);
  out.raw(payload);
}

EntryRead readTracedEntry(ByteReader& in, Message& out) {
  std::uint16_t len = 0;
  std::span<const std::uint8_t> entry;
  if (!in.u16(len) || !in.take(len, entry)) return EntryRead::kTruncated;
  ByteReader prefix(entry);
  obs::TraceContext trace;
  if (!prefix.u64(trace.traceId) || !prefix.u64(trace.spanId))
    return EntryRead::kDamaged;
  auto decoded = decodeMessage(entry.subspan(kTracePrefixBytes));
  if (!decoded.ok()) return EntryRead::kDamaged;
  out = std::move(decoded.value());
  setMessageTrace(out, trace);
  return EntryRead::kOk;
}

std::vector<std::uint8_t> encodeBatchV3(const BatchHeader& header,
                                        const std::vector<Message>& messages) {
  ByteWriter out;
  out.u16(kMagicV3);
  out.u32(header.readerId);
  out.u32(header.seq);
  out.u16(static_cast<std::uint16_t>(messages.size()));
  for (const Message& m : messages) appendTracedEntry(out, m);
  out.u32(phy::crc32(out.bytes()));
  return out.take();
}

caraoke::Result<DecodedBatch> decodeBatch(std::span<const std::uint8_t> bytes) {
  using R = caraoke::Result<DecodedBatch>;
  std::uint16_t magic = 0;
  if (!ByteReader(bytes).u16(magic))
    return R::failure("truncated batch header");
  if (magic != kMagicV3) return R::failure("bad batch magic");
  if (bytes.size() < kHeaderBytes + kCrcBytes)
    return R::failure("truncated batch header");
  const auto body = bytes.first(bytes.size() - kCrcBytes);
  std::uint32_t stored = 0;
  ByteReader(bytes.last(kCrcBytes)).u32(stored);
  if (stored != phy::crc32(body)) return R::failure("batch crc mismatch");

  DecodedBatch out;
  std::uint16_t count = 0;
  ByteReader in(body.subspan(sizeof magic));
  in.u32(out.header.readerId);
  in.u32(out.header.seq);
  in.u16(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    Message message;
    switch (readTracedEntry(in, message)) {
      case EntryRead::kOk:
        out.messages.push_back(std::move(message));
        break;
      case EntryRead::kDamaged:
        ++out.droppedMessages;
        break;
      case EntryRead::kTruncated:
        out.droppedMessages += static_cast<std::size_t>(count - i);
        return out;
    }
  }
  // An unclaimed fragment: something was lost.
  if (!in.atEnd()) ++out.droppedMessages;
  return out;
}

double batchAirTimeSec(std::size_t batchBytes, double uplinkBitsPerSec) {
  if (uplinkBitsPerSec <= 0.0) return 0.0;
  return static_cast<double>(batchBytes) * 8.0 / uplinkBitsPerSec;
}

}  // namespace caraoke::net
