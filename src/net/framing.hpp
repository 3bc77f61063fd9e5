// Uplink batching (paper footnote 15): the reader conveys only a few
// kbits per query and keeps the LTE modem asleep most of the time by
// batching many messages into one transmission burst.
//
// Batch wire format, v3 (little-endian):
//   [magic u16 = 0xCA0E] [readerId u32] [seq u32] [count u16]
//   { [len u16] [traceId u64] [spanId u64] [message bytes] } x count
//   [crc32 u32]
//
// The header names the sending reader and the batch's place in that
// reader's sequence space, so the backend can ack, dedup
// retransmissions, and account for gaps. The CRC-32 trailer covers
// everything before it, so bit corruption on the lossy uplink is
// *detected* rather than discovered by parse luck. Every entry carries
// the originating trace context (16 bytes, covered by `len` and the
// CRC) so backend spans can join the reader's trace. Any other magic is
// rejected.
//
// The traced entry is this module's: the backend snapshot file stores
// its reports with the same entry codec (appendTracedEntry /
// readTracedEntry), so the two layouts cannot drift apart.
#pragma once

#include <span>
#include <vector>

#include "net/message.hpp"

namespace caraoke::net {

/// The batch envelope magic number.
inline constexpr std::uint16_t kMagicV3 = 0xCA0E;
/// Bytes of trace context (traceId + spanId) ahead of each entry's
/// message payload.
inline constexpr std::size_t kTracePrefixBytes = 16;

/// Envelope header: who sent the batch and where it sits in that
/// reader's sequence space (seq starts at 1 and increments per batch).
struct BatchHeader {
  std::uint32_t readerId = 0;
  std::uint32_t seq = 0;
};

/// Append one traced entry, [len u16][traceId u64][spanId u64][message],
/// where `len` counts the trace prefix plus the message bytes.
void appendTracedEntry(ByteWriter& out, const Message& message);

/// What readTracedEntry found at the reader's position.
enum class EntryRead {
  kOk,         ///< `out` holds the message, its trace stamped on.
  kDamaged,    ///< The entry is framed but undecodable; stepped past.
  kTruncated,  ///< The entry runs past the end of the input.
};

/// Read one traced entry (see appendTracedEntry).
EntryRead readTracedEntry(ByteReader& in, Message& out);

/// Encode a batch frame. An empty message list is legal and yields a
/// count=0 frame — the store-and-forward outbox uses this to keep a
/// reader's sequence space dense when shedding empties a batch.
std::vector<std::uint8_t> encodeBatchV3(const BatchHeader& header,
                                        const std::vector<Message>& messages);

/// What decodeBatch recovered.
struct DecodedBatch {
  std::vector<Message> messages;
  /// Inner messages (or trailing fragments) that could not be decoded
  /// and were skipped.
  std::size_t droppedMessages = 0;
  BatchHeader header{};
};

/// Parse a batch frame back into messages. Fails on a bad magic, a
/// truncated header, or a CRC-32 mismatch. Damaged inner messages are
/// salvaged: skipped and counted in droppedMessages while their intact
/// siblings survive, because one corrupt message must not destroy the
/// rest of the batch.
caraoke::Result<DecodedBatch> decodeBatch(std::span<const std::uint8_t> bytes);

/// Modem air-time estimate for a batch at a given uplink rate [bit/s] —
/// the quantity the §12.5 footnote's duty-cycling argument depends on.
double batchAirTimeSec(std::size_t batchBytes, double uplinkBitsPerSec);

}  // namespace caraoke::net
