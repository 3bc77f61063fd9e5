// Reader -> backend wire protocol.
//
// A reader uploads the *results* of processing a query — channels, CFOs,
// counts, decoded ids — not raw samples (paper footnote 15: "a few kbits
// per query"), which is what makes modem duty-cycling viable. Messages are
// framed with a type tag and length and serialized little-endian.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/result.hpp"
#include "obs/trace.hpp"
#include "phy/packet.hpp"

namespace caraoke::net {

/// Serialization buffer writer (little-endian, append-only).
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void raw(std::span<const std::uint8_t> bytes);
  const std::vector<std::uint8_t>& bytes() const { return buffer_; }
  /// Hand the buffer over (the writer is empty afterwards).
  std::vector<std::uint8_t> take() { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked little-endian reader over a borrowed byte view; the
/// bytes must outlive the reader. A failed read consumes nothing.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}
  bool u8(std::uint8_t& v);
  bool u16(std::uint16_t& v);
  bool u32(std::uint32_t& v);
  bool u64(std::uint64_t& v);
  bool f64(double& v);
  /// View the next `n` bytes and step past them.
  bool take(std::size_t n, std::span<const std::uint8_t>& out);
  bool atEnd() const { return cursor_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

// Trace provenance (traceId/spanId) on the reports below is carried by
// the v3 entry prefix in net/framing, not by the per-message payload
// encoding — encodeMessage/decodeMessage ignore the two fields. traceId
// 0 means "no trace" (tracing disabled or an untraced producer).

/// Periodic count sample (traffic monitoring).
struct CountReport {
  std::uint32_t readerId = 0;
  double timestamp = 0.0;   ///< Reader-local time [s].
  std::uint32_t count = 0;  ///< Estimated transponders in range.
  std::uint64_t traceId = 0;
  std::uint64_t spanId = 0;
};

/// One transponder sighting: CFO plus the chosen-pair AoA.
struct SightingReport {
  std::uint32_t readerId = 0;
  double timestamp = 0.0;
  double cfoHz = 0.0;
  std::uint32_t pairIndex = 0;
  double angleRad = 0.0;
  double peakMagnitude = 0.0;
  std::uint64_t traceId = 0;
  std::uint64_t spanId = 0;
};

/// A decoded transponder identity.
struct DecodeReport {
  std::uint32_t readerId = 0;
  double timestamp = 0.0;
  double cfoHz = 0.0;
  phy::TransponderId id{};
  std::uint64_t traceId = 0;
  std::uint64_t spanId = 0;
};

using Message = std::variant<CountReport, SightingReport, DecodeReport>;

/// Envelope-level trace identity of any Message alternative (all three
/// carry the same two fields).
obs::TraceContext messageTrace(const Message& message);
/// Stamp the envelope-recovered trace identity onto a decoded Message.
void setMessageTrace(Message& message, const obs::TraceContext& trace);

/// Frame a message: [type:u8][payload]. The payload layout is fixed per
/// type, so no length prefix is needed inside a frame.
std::vector<std::uint8_t> encodeMessage(const Message& message);

/// Parse one framed message. Fails on truncation, trailing bytes, an
/// unknown type tag, or a non-finite value in any double field (a NaN
/// timestamp or angle would poison every comparison downstream).
caraoke::Result<Message> decodeMessage(std::span<const std::uint8_t> bytes);

}  // namespace caraoke::net
