// Wire protocol for the pipelsm network service (docs/SERVER.md).
//
// Every message — request or response — travels as one length-prefixed
// binary frame:
//
//   offset  size  field
//   0       2     magic "PL"
//   2       1     protocol version (kProtocolVersion)
//   3       1     message type (MessageType; responses set kReplyBit)
//   4       4     body length, fixed32 little-endian
//   8       8     sequence number, fixed64 (echoed verbatim in the reply,
//                 so clients can pipeline many requests per connection)
//   16      len   body (per-type payload, see below)
//   16+len  4     masked CRC32C over header+body (util/crc32c, the same
//                 masked form the WAL and SSTables store)
//
// Request bodies (all strings are varint-length-prefixed slices):
//   PING         (empty)
//   GET          key
//   PUT          key value
//   DELETE       key
//   WRITE_BATCH  varint32 count, then count × { 1-byte op (0=put 1=del),
//                key [, value when op=put] }
//   STATS        property name (empty = "pipelsm.stats")
//   SCAN_OPEN    start_key, varint32 limit (0 = unbounded): opens a
//                server-side streaming cursor over a pinned snapshot
//                (a one-shot scan is the first batch of one)
//   SCAN_NEXT    fixed64 cursor id: next bounded batch
//   SCAN_CLOSE   fixed64 cursor id: release the cursor (idempotent)
//
// Response bodies start with a 1-byte status code (the Status code
// numbering) followed by the error message (status != 0) or the per-type
// payload (status == 0):
//   GET          value
//   STATS        property value
//   PING/PUT/DELETE/WRITE_BATCH   (empty)
//   SCAN_OPEN /  fixed64 cursor id, varint32 count, count × { key,
//   SCAN_NEXT    value }, 1-byte done flag (1 = exhausted; the server
//                already released the cursor)
//   SCAN_CLOSE   (empty)
//
// The decoder is incremental: feed it whatever the socket produced and it
// emits complete frames. Any malformed input — bad magic, unknown
// version, oversized length, CRC mismatch — is a hard protocol error; the
// peer is expected to drop the connection (the server does, with an EVENT
// line).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/slice.h"
#include "src/util/status.h"

namespace pipelsm::server {

inline constexpr char kMagic0 = 'P';
inline constexpr char kMagic1 = 'L';
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kHeaderSize = 16;
inline constexpr size_t kFrameOverhead = kHeaderSize + 4;  // + trailing CRC

// Default ceiling on one frame's body. A length field above the decoder's
// limit is a protocol error, so a garbage preamble can never make the
// server buffer gigabytes.
inline constexpr size_t kDefaultMaxBodyBytes = 4 * 1024 * 1024;

inline constexpr uint8_t kReplyBit = 0x80;

enum class MessageType : uint8_t {
  kPing = 1,
  kGet = 2,
  kPut = 3,
  kDelete = 4,
  kWriteBatch = 5,
  // 6 (kRetiredScanType) was the one-shot SCAN; never reuse it.
  kStats = 7,
  kScanOpen = 8,
  kScanNext = 9,
  kScanClose = 10,
};

// Number of message-type slots (index 0 and the retired 6 unused) — sizes
// the server's per-type instrument arrays.
inline constexpr size_t kNumMessageTypes =
    static_cast<size_t>(MessageType::kScanClose) + 1;

const char* MessageTypeName(MessageType type);

inline constexpr uint8_t kRetiredScanType = 6;

inline bool IsValidRequestType(uint8_t raw) {
  return raw >= static_cast<uint8_t>(MessageType::kPing) &&
         raw <= static_cast<uint8_t>(MessageType::kScanClose) &&
         raw != kRetiredScanType;
}

// One decoded update of a WRITE_BATCH request.
struct BatchOp {
  bool is_delete = false;
  std::string key;
  std::string value;
};

// ---- frame encoding ----

// Appends one complete frame (header + body + CRC) to *out. `reply` sets
// kReplyBit on the type byte.
void EncodeFrame(MessageType type, bool reply, uint64_t seq,
                 const Slice& body, std::string* out);

// Request body builders (compose with EncodeFrame via the helpers below).
void EncodePingRequest(uint64_t seq, std::string* out);
void EncodeGetRequest(uint64_t seq, const Slice& key, std::string* out);
void EncodePutRequest(uint64_t seq, const Slice& key, const Slice& value,
                      std::string* out);
void EncodeDeleteRequest(uint64_t seq, const Slice& key, std::string* out);
void EncodeWriteBatchRequest(uint64_t seq, const std::vector<BatchOp>& ops,
                             std::string* out);
void EncodeStatsRequest(uint64_t seq, const Slice& property, std::string* out);
void EncodeScanOpenRequest(uint64_t seq, const Slice& start_key,
                           uint32_t limit, std::string* out);
void EncodeScanNextRequest(uint64_t seq, uint64_t cursor_id,
                           std::string* out);
void EncodeScanCloseRequest(uint64_t seq, uint64_t cursor_id,
                            std::string* out);

// Response: status byte + message-or-payload. `payload` is the per-type
// success payload, already encoded by the caller (empty for acks).
void EncodeReply(MessageType type, uint64_t seq, const Status& status,
                 const Slice& payload, std::string* out);

// ---- body parsing (request side; return false on malformed body) ----

bool ParseGetRequest(Slice body, Slice* key);
bool ParsePutRequest(Slice body, Slice* key, Slice* value);
bool ParseDeleteRequest(Slice body, Slice* key);
bool ParseWriteBatchRequest(Slice body, std::vector<BatchOp>* ops);
bool ParseStatsRequest(Slice body, Slice* property);
bool ParseScanOpenRequest(Slice body, Slice* start_key, uint32_t* limit);
// SCAN_NEXT and SCAN_CLOSE bodies are both a bare fixed64 cursor id.
bool ParseCursorRequest(Slice body, uint64_t* cursor_id);

// ---- body parsing (client side) ----

// Splits a reply body into its Status and success payload. Returns false
// only on a malformed body (which the client treats as a protocol error).
bool ParseReply(Slice body, Status* status, Slice* payload);

// Encodes/decodes a SCAN_OPEN / SCAN_NEXT success payload (cursor id +
// one bounded batch + done flag).
void EncodeScanBatchPayload(
    uint64_t cursor_id,
    const std::vector<std::pair<std::string, std::string>>& entries,
    bool done, std::string* out);
bool ParseScanBatchPayload(
    Slice payload, uint64_t* cursor_id,
    std::vector<std::pair<std::string, std::string>>* out, bool* done);

// ---- incremental frame decoder ----

struct DecodedFrame {
  MessageType type = MessageType::kPing;
  bool reply = false;
  uint64_t seq = 0;
  std::string body;
};

// Buffering decoder. Append() raw socket bytes, then call Next() until it
// stops returning kFrame. After kError the decoder is poisoned: every
// further Next() returns kError and the connection must be dropped.
class FrameDecoder {
 public:
  enum class Result { kFrame, kNeedMore, kError };

  explicit FrameDecoder(size_t max_body_bytes = kDefaultMaxBodyBytes)
      : max_body_bytes_(max_body_bytes) {}

  void Append(const char* data, size_t n) { buf_.append(data, n); }

  Result Next(DecodedFrame* out);

  // Human-readable reason after kError.
  const std::string& error() const { return error_; }

  // Bytes buffered but not yet consumed (for tests / accounting).
  size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  Result Fail(const std::string& why) {
    if (error_.empty()) error_ = why;
    return Result::kError;
  }

  const size_t max_body_bytes_;
  std::string buf_;
  size_t pos_ = 0;
  std::string error_;
};

// Status <-> wire code mapping (code 0 = OK). Unknown codes decode to
// IOError so a version skew can't silently turn an error into success.
uint8_t StatusToWireCode(const Status& status);
Status WireCodeToStatus(uint8_t code, const Slice& message);

}  // namespace pipelsm::server
