#include "src/server/protocol.h"

#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace pipelsm::server {

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kPing:
      return "PING";
    case MessageType::kGet:
      return "GET";
    case MessageType::kPut:
      return "PUT";
    case MessageType::kDelete:
      return "DELETE";
    case MessageType::kWriteBatch:
      return "WRITE_BATCH";
    case MessageType::kStats:
      return "STATS";
    case MessageType::kScanOpen:
      return "SCAN_OPEN";
    case MessageType::kScanNext:
      return "SCAN_NEXT";
    case MessageType::kScanClose:
      return "SCAN_CLOSE";
  }
  return "UNKNOWN";
}

void EncodeFrame(MessageType type, bool reply, uint64_t seq, const Slice& body,
                 std::string* out) {
  const size_t header_at = out->size();
  out->push_back(kMagic0);
  out->push_back(kMagic1);
  out->push_back(static_cast<char>(kProtocolVersion));
  out->push_back(static_cast<char>(static_cast<uint8_t>(type) |
                                   (reply ? kReplyBit : 0)));
  PutFixed32(out, static_cast<uint32_t>(body.size()));
  PutFixed64(out, seq);
  out->append(body.data(), body.size());
  const uint32_t crc = crc32c::Value(out->data() + header_at,
                                     kHeaderSize + body.size());
  PutFixed32(out, crc32c::Mask(crc));
}

void EncodePingRequest(uint64_t seq, std::string* out) {
  EncodeFrame(MessageType::kPing, false, seq, Slice(), out);
}

void EncodeGetRequest(uint64_t seq, const Slice& key, std::string* out) {
  std::string body;
  PutLengthPrefixedSlice(&body, key);
  EncodeFrame(MessageType::kGet, false, seq, body, out);
}

void EncodePutRequest(uint64_t seq, const Slice& key, const Slice& value,
                      std::string* out) {
  std::string body;
  PutLengthPrefixedSlice(&body, key);
  PutLengthPrefixedSlice(&body, value);
  EncodeFrame(MessageType::kPut, false, seq, body, out);
}

void EncodeDeleteRequest(uint64_t seq, const Slice& key, std::string* out) {
  std::string body;
  PutLengthPrefixedSlice(&body, key);
  EncodeFrame(MessageType::kDelete, false, seq, body, out);
}

void EncodeWriteBatchRequest(uint64_t seq, const std::vector<BatchOp>& ops,
                             std::string* out) {
  std::string body;
  PutVarint32(&body, static_cast<uint32_t>(ops.size()));
  for (const BatchOp& op : ops) {
    body.push_back(op.is_delete ? '\1' : '\0');
    PutLengthPrefixedSlice(&body, op.key);
    if (!op.is_delete) {
      PutLengthPrefixedSlice(&body, op.value);
    }
  }
  EncodeFrame(MessageType::kWriteBatch, false, seq, body, out);
}

void EncodeStatsRequest(uint64_t seq, const Slice& property,
                        std::string* out) {
  std::string body;
  PutLengthPrefixedSlice(&body, property);
  EncodeFrame(MessageType::kStats, false, seq, body, out);
}

void EncodeScanOpenRequest(uint64_t seq, const Slice& start_key,
                           uint32_t limit, std::string* out) {
  std::string body;
  PutLengthPrefixedSlice(&body, start_key);
  PutVarint32(&body, limit);
  EncodeFrame(MessageType::kScanOpen, false, seq, body, out);
}

void EncodeScanNextRequest(uint64_t seq, uint64_t cursor_id,
                           std::string* out) {
  std::string body;
  PutFixed64(&body, cursor_id);
  EncodeFrame(MessageType::kScanNext, false, seq, body, out);
}

void EncodeScanCloseRequest(uint64_t seq, uint64_t cursor_id,
                            std::string* out) {
  std::string body;
  PutFixed64(&body, cursor_id);
  EncodeFrame(MessageType::kScanClose, false, seq, body, out);
}

void EncodeReply(MessageType type, uint64_t seq, const Status& status,
                 const Slice& payload, std::string* out) {
  std::string body;
  body.push_back(static_cast<char>(StatusToWireCode(status)));
  if (status.ok()) {
    body.append(payload.data(), payload.size());
  } else {
    PutLengthPrefixedSlice(&body, status.ToString());
  }
  EncodeFrame(type, true, seq, body, out);
}

bool ParseGetRequest(Slice body, Slice* key) {
  return GetLengthPrefixedSlice(&body, key) && body.empty();
}

bool ParsePutRequest(Slice body, Slice* key, Slice* value) {
  return GetLengthPrefixedSlice(&body, key) &&
         GetLengthPrefixedSlice(&body, value) && body.empty();
}

bool ParseDeleteRequest(Slice body, Slice* key) {
  return GetLengthPrefixedSlice(&body, key) && body.empty();
}

bool ParseWriteBatchRequest(Slice body, std::vector<BatchOp>* ops) {
  ops->clear();
  uint32_t count = 0;
  if (!GetVarint32(&body, &count)) return false;
  // Each op is at least 2 bytes (tag + empty key length); a count far
  // beyond the bytes present is malformed, not just empty-valued.
  if (count > body.size()) return false;
  ops->reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    if (body.empty()) return false;
    const char tag = body[0];
    body.remove_prefix(1);
    if (tag != '\0' && tag != '\1') return false;
    BatchOp op;
    op.is_delete = (tag == '\1');
    Slice key, value;
    if (!GetLengthPrefixedSlice(&body, &key)) return false;
    op.key.assign(key.data(), key.size());
    if (!op.is_delete) {
      if (!GetLengthPrefixedSlice(&body, &value)) return false;
      op.value.assign(value.data(), value.size());
    }
    ops->push_back(std::move(op));
  }
  return body.empty();
}

bool ParseStatsRequest(Slice body, Slice* property) {
  return GetLengthPrefixedSlice(&body, property) && body.empty();
}

bool ParseScanOpenRequest(Slice body, Slice* start_key, uint32_t* limit) {
  return GetLengthPrefixedSlice(&body, start_key) &&
         GetVarint32(&body, limit) && body.empty();
}

bool ParseCursorRequest(Slice body, uint64_t* cursor_id) {
  if (body.size() != 8) return false;
  *cursor_id = DecodeFixed64(body.data());
  return true;
}

bool ParseReply(Slice body, Status* status, Slice* payload) {
  if (body.empty()) return false;
  const uint8_t code = static_cast<uint8_t>(body[0]);
  body.remove_prefix(1);
  if (code == 0) {
    *status = Status::OK();
    *payload = body;
    return true;
  }
  Slice message;
  if (!GetLengthPrefixedSlice(&body, &message) || !body.empty()) return false;
  *status = WireCodeToStatus(code, message);
  *payload = Slice();
  return true;
}

void EncodeScanBatchPayload(
    uint64_t cursor_id,
    const std::vector<std::pair<std::string, std::string>>& entries,
    bool done, std::string* out) {
  PutFixed64(out, cursor_id);
  PutVarint32(out, static_cast<uint32_t>(entries.size()));
  for (const auto& [key, value] : entries) {
    PutLengthPrefixedSlice(out, key);
    PutLengthPrefixedSlice(out, value);
  }
  out->push_back(done ? '\1' : '\0');
}

bool ParseScanBatchPayload(
    Slice payload, uint64_t* cursor_id,
    std::vector<std::pair<std::string, std::string>>* out, bool* done) {
  out->clear();
  if (payload.size() < 8) return false;
  *cursor_id = DecodeFixed64(payload.data());
  payload.remove_prefix(8);
  uint32_t count = 0;
  if (!GetVarint32(&payload, &count)) return false;
  if (count > payload.size()) return false;
  out->reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    Slice key, value;
    if (!GetLengthPrefixedSlice(&payload, &key) ||
        !GetLengthPrefixedSlice(&payload, &value)) {
      return false;
    }
    out->emplace_back(std::string(key.data(), key.size()),
                      std::string(value.data(), value.size()));
  }
  if (payload.size() != 1) return false;
  const char flag = payload[0];
  if (flag != '\0' && flag != '\1') return false;
  *done = (flag == '\1');
  return true;
}

FrameDecoder::Result FrameDecoder::Next(DecodedFrame* out) {
  if (!error_.empty()) return Result::kError;
  // Reclaim consumed prefix once it dominates the buffer, so a long-lived
  // connection does not grow its buffer without bound.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  const size_t avail = buf_.size() - pos_;
  if (avail < kHeaderSize) return Result::kNeedMore;
  const char* h = buf_.data() + pos_;
  if (h[0] != kMagic0 || h[1] != kMagic1) {
    return Fail("bad magic");
  }
  if (static_cast<uint8_t>(h[2]) != kProtocolVersion) {
    return Fail("unsupported protocol version " +
                std::to_string(static_cast<uint8_t>(h[2])));
  }
  const uint32_t body_len = DecodeFixed32(h + 4);
  if (body_len > max_body_bytes_) {
    return Fail("oversized frame: " + std::to_string(body_len) + " bytes");
  }
  if (avail < kFrameOverhead + body_len) return Result::kNeedMore;
  const uint32_t expected =
      crc32c::Unmask(DecodeFixed32(h + kHeaderSize + body_len));
  const uint32_t actual = crc32c::Value(h, kHeaderSize + body_len);
  if (expected != actual) {
    return Fail("frame CRC mismatch");
  }
  out->reply = (static_cast<uint8_t>(h[3]) & kReplyBit) != 0;
  const uint8_t raw_type = static_cast<uint8_t>(h[3]) & ~kReplyBit;
  if (!IsValidRequestType(raw_type)) {
    return Fail("unknown message type " + std::to_string(raw_type));
  }
  out->type = static_cast<MessageType>(raw_type);
  out->seq = DecodeFixed64(h + 8);
  out->body.assign(h + kHeaderSize, body_len);
  pos_ += kFrameOverhead + body_len;
  return Result::kFrame;
}

uint8_t StatusToWireCode(const Status& status) {
  if (status.ok()) return 0;
  if (status.IsNotFound()) return 1;
  if (status.IsCorruption()) return 2;
  if (status.IsNotSupported()) return 3;
  if (status.IsInvalidArgument()) return 4;
  if (status.IsIOError()) return 5;
  if (status.IsBusy()) return 6;
  return 5;
}

Status WireCodeToStatus(uint8_t code, const Slice& message) {
  switch (code) {
    case 0:
      return Status::OK();
    case 1:
      return Status::NotFound(message);
    case 2:
      return Status::Corruption(message);
    case 3:
      return Status::NotSupported(message);
    case 4:
      return Status::InvalidArgument(message);
    case 5:
      return Status::IOError(message);
    case 6:
      return Status::Busy(message);
    default:
      return Status::IOError("unknown wire status code", message);
  }
}

}  // namespace pipelsm::server
