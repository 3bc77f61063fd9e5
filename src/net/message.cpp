#include "net/message.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>

namespace caraoke::net {

void ByteWriter::u8(std::uint8_t v) { buffer_.push_back(v); }
void ByteWriter::u16(std::uint16_t v) {
  for (int i = 0; i < 2; ++i) buffer_.push_back((v >> (8 * i)) & 0xFF);
}
void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buffer_.push_back((v >> (8 * i)) & 0xFF);
}
void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buffer_.push_back((v >> (8 * i)) & 0xFF);
}
void ByteWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void ByteWriter::raw(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

bool ByteReader::take(std::size_t n, std::span<const std::uint8_t>& out) {
  if (n > bytes_.size() - cursor_) return false;
  out = bytes_.subspan(cursor_, n);
  cursor_ += n;
  return true;
}

namespace {

template <typename T>
bool readLittleEndian(ByteReader& r, T& v) {
  std::span<const std::uint8_t> p;
  if (!r.take(sizeof(T), p)) return false;
  v = 0;
  for (std::size_t i = sizeof(T); i-- > 0;)
    v = static_cast<T>((static_cast<std::uint64_t>(v) << 8) | p[i]);
  return true;
}

}  // namespace

bool ByteReader::u8(std::uint8_t& v) { return readLittleEndian(*this, v); }
bool ByteReader::u16(std::uint16_t& v) { return readLittleEndian(*this, v); }
bool ByteReader::u32(std::uint32_t& v) { return readLittleEndian(*this, v); }
bool ByteReader::u64(std::uint64_t& v) { return readLittleEndian(*this, v); }
bool ByteReader::f64(double& v) {
  std::uint64_t bits;
  if (!u64(bits)) return false;
  std::memcpy(&v, &bits, sizeof v);
  return true;
}

namespace {

enum class Tag : std::uint8_t { kCount = 1, kSighting = 2, kDecode = 3 };

bool allFinite(std::initializer_list<double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

}  // namespace

obs::TraceContext messageTrace(const Message& message) {
  return std::visit(
      [](const auto& report) {
        return obs::TraceContext{report.traceId, report.spanId};
      },
      message);
}

void setMessageTrace(Message& message, const obs::TraceContext& trace) {
  std::visit(
      [&trace](auto& report) {
        report.traceId = trace.traceId;
        report.spanId = trace.spanId;
      },
      message);
}

std::vector<std::uint8_t> encodeMessage(const Message& message) {
  ByteWriter w;
  if (const auto* count = std::get_if<CountReport>(&message)) {
    w.u8(static_cast<std::uint8_t>(Tag::kCount));
    w.u32(count->readerId);
    w.f64(count->timestamp);
    w.u32(count->count);
  } else if (const auto* sighting = std::get_if<SightingReport>(&message)) {
    w.u8(static_cast<std::uint8_t>(Tag::kSighting));
    w.u32(sighting->readerId);
    w.f64(sighting->timestamp);
    w.f64(sighting->cfoHz);
    w.u32(sighting->pairIndex);
    w.f64(sighting->angleRad);
    w.f64(sighting->peakMagnitude);
  } else if (const auto* decode = std::get_if<DecodeReport>(&message)) {
    w.u8(static_cast<std::uint8_t>(Tag::kDecode));
    w.u32(decode->readerId);
    w.f64(decode->timestamp);
    w.f64(decode->cfoHz);
    w.u64(decode->id.factoryId);
    w.u32(decode->id.agencyId);
    w.u64(decode->id.programmable);
    w.u32(decode->id.flags);
  }
  return w.bytes();
}

caraoke::Result<Message> decodeMessage(std::span<const std::uint8_t> bytes) {
  using R = caraoke::Result<Message>;
  ByteReader r(bytes);
  std::uint8_t tag;
  if (!r.u8(tag)) return R::failure("empty message");
  switch (static_cast<Tag>(tag)) {
    case Tag::kCount: {
      CountReport m;
      if (!r.u32(m.readerId) || !r.f64(m.timestamp) || !r.u32(m.count))
        return R::failure("truncated CountReport");
      if (!r.atEnd()) return R::failure("trailing bytes in CountReport");
      if (!allFinite({m.timestamp}))
        return R::failure("non-finite CountReport field");
      return Message{m};
    }
    case Tag::kSighting: {
      SightingReport m;
      if (!r.u32(m.readerId) || !r.f64(m.timestamp) || !r.f64(m.cfoHz) ||
          !r.u32(m.pairIndex) || !r.f64(m.angleRad) ||
          !r.f64(m.peakMagnitude))
        return R::failure("truncated SightingReport");
      if (!r.atEnd()) return R::failure("trailing bytes in SightingReport");
      if (!allFinite({m.timestamp, m.cfoHz, m.angleRad, m.peakMagnitude}))
        return R::failure("non-finite SightingReport field");
      return Message{m};
    }
    case Tag::kDecode: {
      DecodeReport m;
      if (!r.u32(m.readerId) || !r.f64(m.timestamp) || !r.f64(m.cfoHz) ||
          !r.u64(m.id.factoryId) || !r.u32(m.id.agencyId) ||
          !r.u64(m.id.programmable) || !r.u32(m.id.flags))
        return R::failure("truncated DecodeReport");
      if (!r.atEnd()) return R::failure("trailing bytes in DecodeReport");
      if (!allFinite({m.timestamp, m.cfoHz}))
        return R::failure("non-finite DecodeReport field");
      return Message{m};
    }
    default:
      return R::failure("unknown message tag");
  }
}

}  // namespace caraoke::net
