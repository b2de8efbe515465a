// Wire-protocol framing tests: round trips for every message type, then
// the hostile inputs the ISSUE calls out — partial frames, oversized
// lengths, corrupted CRCs, garbage preambles, and a fuzz loop — all of
// which must produce a clean kError (or kNeedMore), never a crash.
#include "src/server/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/util/coding.h"
#include "src/util/random.h"

namespace pipelsm::server {
namespace {

// Feeds `wire` into a fresh decoder and expects exactly one good frame.
DecodedFrame DecodeOne(const std::string& wire) {
  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  DecodedFrame frame;
  EXPECT_EQ(FrameDecoder::Result::kFrame, decoder.Next(&frame))
      << decoder.error();
  EXPECT_EQ(0u, decoder.buffered_bytes());
  return frame;
}

TEST(ProtocolTest, PingRoundTrip) {
  std::string wire;
  EncodePingRequest(7, &wire);
  const DecodedFrame frame = DecodeOne(wire);
  EXPECT_EQ(MessageType::kPing, frame.type);
  EXPECT_FALSE(frame.reply);
  EXPECT_EQ(7u, frame.seq);
  EXPECT_TRUE(frame.body.empty());
}

TEST(ProtocolTest, PutRoundTrip) {
  std::string wire;
  EncodePutRequest(42, "key", "value", &wire);
  const DecodedFrame frame = DecodeOne(wire);
  EXPECT_EQ(MessageType::kPut, frame.type);
  EXPECT_EQ(42u, frame.seq);
  Slice key, value;
  ASSERT_TRUE(ParsePutRequest(Slice(frame.body), &key, &value));
  EXPECT_EQ("key", key.ToString());
  EXPECT_EQ("value", value.ToString());
}

TEST(ProtocolTest, GetDeleteStatsRoundTrip) {
  std::string wire;
  EncodeGetRequest(1, "g", &wire);
  EncodeDeleteRequest(2, "d", &wire);
  EncodeStatsRequest(3, "pipelsm.stats", &wire);

  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  DecodedFrame frame;
  ASSERT_EQ(FrameDecoder::Result::kFrame, decoder.Next(&frame));
  Slice key;
  ASSERT_TRUE(ParseGetRequest(Slice(frame.body), &key));
  EXPECT_EQ("g", key.ToString());
  ASSERT_EQ(FrameDecoder::Result::kFrame, decoder.Next(&frame));
  ASSERT_TRUE(ParseDeleteRequest(Slice(frame.body), &key));
  EXPECT_EQ("d", key.ToString());
  ASSERT_EQ(FrameDecoder::Result::kFrame, decoder.Next(&frame));
  Slice property;
  ASSERT_TRUE(ParseStatsRequest(Slice(frame.body), &property));
  EXPECT_EQ("pipelsm.stats", property.ToString());
  EXPECT_EQ(FrameDecoder::Result::kNeedMore, decoder.Next(&frame));
}

TEST(ProtocolTest, WriteBatchRoundTrip) {
  std::vector<BatchOp> ops(3);
  ops[0].key = "a";
  ops[0].value = "1";
  ops[1].is_delete = true;
  ops[1].key = "b";
  ops[2].key = "c";
  ops[2].value = std::string(1000, 'v');
  std::string wire;
  EncodeWriteBatchRequest(9, ops, &wire);
  const DecodedFrame frame = DecodeOne(wire);
  std::vector<BatchOp> decoded;
  ASSERT_TRUE(ParseWriteBatchRequest(Slice(frame.body), &decoded));
  ASSERT_EQ(3u, decoded.size());
  EXPECT_EQ("a", decoded[0].key);
  EXPECT_EQ("1", decoded[0].value);
  EXPECT_TRUE(decoded[1].is_delete);
  EXPECT_EQ("b", decoded[1].key);
  EXPECT_EQ(ops[2].value, decoded[2].value);
}

TEST(ProtocolTest, ScanRoundTrip) {
  std::string wire;
  EncodeScanOpenRequest(5, "start", 99, &wire);
  EncodeScanNextRequest(6, 0x0123456789abcdefull, &wire);
  EncodeScanCloseRequest(7, 42, &wire);

  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  DecodedFrame frame;
  ASSERT_EQ(FrameDecoder::Result::kFrame, decoder.Next(&frame));
  EXPECT_EQ(MessageType::kScanOpen, frame.type);
  Slice start;
  uint32_t limit = 0;
  ASSERT_TRUE(ParseScanOpenRequest(Slice(frame.body), &start, &limit));
  EXPECT_EQ("start", start.ToString());
  EXPECT_EQ(99u, limit);
  uint64_t id = 0;
  ASSERT_EQ(FrameDecoder::Result::kFrame, decoder.Next(&frame));
  EXPECT_EQ(MessageType::kScanNext, frame.type);
  ASSERT_TRUE(ParseCursorRequest(Slice(frame.body), &id));
  EXPECT_EQ(0x0123456789abcdefull, id);
  ASSERT_EQ(FrameDecoder::Result::kFrame, decoder.Next(&frame));
  EXPECT_EQ(MessageType::kScanClose, frame.type);
  ASSERT_TRUE(ParseCursorRequest(Slice(frame.body), &id));
  EXPECT_EQ(42u, id);
  EXPECT_EQ(FrameDecoder::Result::kNeedMore, decoder.Next(&frame));
}

// Fuzz-style SCAN_OPEN limit cases: the limit varint is attacker-
// controlled, so every extreme must parse cleanly (bounding each batch is
// the server's job) and every malformed encoding must be rejected rather
// than misread.
TEST(ProtocolTest, ScanLimitExtremesParseCleanly) {
  for (uint32_t hostile : {0u, 1u, 0x7fffffffu, 0xffffffffu}) {
    std::string wire;
    EncodeScanOpenRequest(5, "k", hostile, &wire);
    const DecodedFrame frame = DecodeOne(wire);
    Slice start;
    uint32_t limit = 0;
    ASSERT_TRUE(ParseScanOpenRequest(Slice(frame.body), &start, &limit))
        << hostile;
    EXPECT_EQ(hostile, limit);
  }

  // Truncated limit varint (five 0x80 continuation bytes, no terminator)
  // and trailing bytes after the limit are malformed, not huge values.
  std::string body;
  PutLengthPrefixedSlice(&body, "k");
  body.append(5, '\x80');
  Slice start;
  uint32_t limit = 0;
  EXPECT_FALSE(ParseScanOpenRequest(Slice(body), &start, &limit));

  body.clear();
  PutLengthPrefixedSlice(&body, "k");
  PutVarint32(&body, 10);
  body.append("extra");
  EXPECT_FALSE(ParseScanOpenRequest(Slice(body), &start, &limit));

  // A cursor id is exactly eight bytes.
  uint64_t id = 0;
  EXPECT_FALSE(ParseCursorRequest(Slice("1234567", 7), &id));
  EXPECT_FALSE(ParseCursorRequest(Slice("123456789", 9), &id));
}

// Hostile cursor-batch REPLY payloads: a huge count must not drive
// reservation (it is validated against the bytes actually present), and
// a short cursor id, a missing or invalid done byte, or trailing bytes
// are all malformed.
TEST(ProtocolTest, ScanPayloadHostileCountRejected) {
  std::vector<std::pair<std::string, std::string>> entries;
  uint64_t id = 0;
  bool done = false;
  auto batch = [](uint32_t count, const std::string& tail) {
    std::string payload;
    PutFixed64(&payload, 7);
    PutVarint32(&payload, count);
    PutLengthPrefixedSlice(&payload, "k1");
    PutLengthPrefixedSlice(&payload, "v1");
    payload.append(tail);
    return payload;
  };
  EXPECT_FALSE(ParseScanBatchPayload(Slice(batch(0xffffffff, "\1")), &id,
                                     &entries, &done));
  EXPECT_TRUE(entries.empty());
  EXPECT_FALSE(
      ParseScanBatchPayload(Slice(batch(2, "\1")), &id, &entries, &done));
  EXPECT_FALSE(ParseScanBatchPayload(Slice(batch(1, "")), &id, &entries,
                                     &done));  // no done byte
  EXPECT_FALSE(ParseScanBatchPayload(Slice(batch(1, "\2")), &id, &entries,
                                     &done));  // done byte not 0/1
  EXPECT_FALSE(ParseScanBatchPayload(Slice(batch(1, std::string("\0!", 2))),
                                     &id, &entries, &done));  // trailing
  EXPECT_FALSE(
      ParseScanBatchPayload(Slice("\0\0\0\0", 4), &id, &entries, &done));
  ASSERT_TRUE(
      ParseScanBatchPayload(Slice(batch(1, "\1")), &id, &entries, &done));
  EXPECT_EQ(7u, id);
  EXPECT_TRUE(done);
  ASSERT_EQ(1u, entries.size());
}

TEST(ProtocolTest, ReplyRoundTrip) {
  std::string wire;
  EncodeReply(MessageType::kGet, 11, Status::OK(), "payload", &wire);
  const DecodedFrame frame = DecodeOne(wire);
  EXPECT_TRUE(frame.reply);
  EXPECT_EQ(MessageType::kGet, frame.type);
  Status status;
  Slice payload;
  ASSERT_TRUE(ParseReply(Slice(frame.body), &status, &payload));
  EXPECT_TRUE(status.ok());
  EXPECT_EQ("payload", payload.ToString());
}

TEST(ProtocolTest, ErrorReplyRoundTrip) {
  std::string wire;
  EncodeReply(MessageType::kPut, 12, Status::NotFound("missing key"), "",
              &wire);
  const DecodedFrame frame = DecodeOne(wire);
  Status status;
  Slice payload;
  ASSERT_TRUE(ParseReply(Slice(frame.body), &status, &payload));
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_NE(std::string::npos, status.ToString().find("missing key"));
}

TEST(ProtocolTest, ScanPayloadRoundTrip) {
  const std::vector<std::pair<std::string, std::string>> batch = {
      {"k1", "v1"}, {"k2", std::string(1000, 'v')}};
  for (bool done : {false, true}) {
    std::string payload;
    EncodeScanBatchPayload(0xfeedull, batch, done, &payload);
    uint64_t id = 0;
    bool parsed_done = !done;
    std::vector<std::pair<std::string, std::string>> entries;
    ASSERT_TRUE(
        ParseScanBatchPayload(Slice(payload), &id, &entries, &parsed_done));
    EXPECT_EQ(0xfeedull, id);
    EXPECT_EQ(done, parsed_done);
    EXPECT_EQ(batch, entries);
  }
}

TEST(ProtocolTest, StatusCodesRoundTrip) {
  const Status statuses[] = {
      Status::OK(),           Status::NotFound("x"),
      Status::Corruption("x"), Status::NotSupported("x"),
      Status::InvalidArgument("x"), Status::IOError("x"), Status::Busy("x")};
  for (const Status& s : statuses) {
    const Status back = WireCodeToStatus(StatusToWireCode(s), "x");
    EXPECT_EQ(s.ok(), back.ok());
    EXPECT_EQ(s.IsNotFound(), back.IsNotFound());
    EXPECT_EQ(s.IsCorruption(), back.IsCorruption());
    EXPECT_EQ(s.IsBusy(), back.IsBusy());
  }
  // Unknown codes must decode to an error, never to OK.
  EXPECT_FALSE(WireCodeToStatus(250, "").ok());
}

TEST(ProtocolTest, PartialFramesByteByByte) {
  std::string wire;
  EncodePutRequest(1, "incremental-key", std::string(300, 'x'), &wire);
  EncodePingRequest(2, &wire);
  FrameDecoder decoder;
  DecodedFrame frame;
  size_t frames = 0;
  for (char c : wire) {
    decoder.Append(&c, 1);
    while (true) {
      const FrameDecoder::Result res = decoder.Next(&frame);
      if (res == FrameDecoder::Result::kNeedMore) break;
      ASSERT_EQ(FrameDecoder::Result::kFrame, res) << decoder.error();
      frames++;
    }
  }
  EXPECT_EQ(2u, frames);
  EXPECT_EQ(0u, decoder.buffered_bytes());
}

TEST(ProtocolTest, GarbagePreambleIsError) {
  FrameDecoder decoder;
  const std::string garbage = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  decoder.Append(garbage.data(), garbage.size());
  DecodedFrame frame;
  EXPECT_EQ(FrameDecoder::Result::kError, decoder.Next(&frame));
  EXPECT_NE(std::string::npos, decoder.error().find("magic"));
  // Poisoned: further calls keep failing even after more (valid) bytes.
  std::string wire;
  EncodePingRequest(1, &wire);
  decoder.Append(wire.data(), wire.size());
  EXPECT_EQ(FrameDecoder::Result::kError, decoder.Next(&frame));
}

// Type 6 was the one-shot SCAN. It is retired and never reused, so a
// well-formed frame carrying it is an unknown type, exactly like 0 or 11.
TEST(ProtocolTest, RetiredScanTypeIsError) {
  std::string body;
  PutLengthPrefixedSlice(&body, "start");
  PutVarint32(&body, 10);
  for (uint8_t raw : {uint8_t{0}, kRetiredScanType, uint8_t{11}}) {
    EXPECT_FALSE(IsValidRequestType(raw)) << int{raw};
    for (bool reply : {false, true}) {
      std::string wire;
      EncodeFrame(static_cast<MessageType>(raw), reply, 5, body, &wire);
      FrameDecoder decoder;
      decoder.Append(wire.data(), wire.size());
      DecodedFrame frame;
      EXPECT_EQ(FrameDecoder::Result::kError, decoder.Next(&frame))
          << int{raw};
      EXPECT_NE(std::string::npos,
                decoder.error().find("unknown message type " +
                                     std::to_string(raw)));
    }
  }
}

TEST(ProtocolTest, BadVersionIsError) {
  std::string wire;
  EncodePingRequest(1, &wire);
  wire[2] = 9;  // version byte
  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  DecodedFrame frame;
  EXPECT_EQ(FrameDecoder::Result::kError, decoder.Next(&frame));
  EXPECT_NE(std::string::npos, decoder.error().find("version"));
}

TEST(ProtocolTest, OversizedLengthIsError) {
  std::string wire;
  EncodePingRequest(1, &wire);
  // Stamp a body length beyond the decoder cap; the decoder must reject
  // it from the header alone instead of waiting to buffer gigabytes.
  wire[4] = '\xff';
  wire[5] = '\xff';
  wire[6] = '\xff';
  wire[7] = '\x7f';
  FrameDecoder decoder(1024);
  decoder.Append(wire.data(), wire.size());
  DecodedFrame frame;
  EXPECT_EQ(FrameDecoder::Result::kError, decoder.Next(&frame));
  EXPECT_NE(std::string::npos, decoder.error().find("oversized"));
}

TEST(ProtocolTest, BadCrcIsError) {
  std::string wire;
  EncodePutRequest(1, "key", "value", &wire);
  wire[wire.size() - 1] ^= 0x40;  // corrupt the trailing CRC
  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  DecodedFrame frame;
  EXPECT_EQ(FrameDecoder::Result::kError, decoder.Next(&frame));
  EXPECT_NE(std::string::npos, decoder.error().find("CRC"));
}

TEST(ProtocolTest, CorruptBodyFailsCrcNotParse) {
  std::string wire;
  EncodePutRequest(1, "key", "value", &wire);
  wire[kHeaderSize + 1] ^= 0x01;  // flip a body byte
  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  DecodedFrame frame;
  EXPECT_EQ(FrameDecoder::Result::kError, decoder.Next(&frame));
}

TEST(ProtocolTest, TruncatedBatchBodyRejected) {
  std::string body;
  PutVarint32(&body, 100);  // claims 100 ops, provides none
  std::vector<BatchOp> ops;
  EXPECT_FALSE(ParseWriteBatchRequest(Slice(body), &ops));

  body.clear();
  PutVarint32(&body, 1);
  body.push_back('\0');
  PutVarint32(&body, 50);  // key length beyond the buffer
  body.append("short", 5);
  EXPECT_FALSE(ParseWriteBatchRequest(Slice(body), &ops));
}

TEST(ProtocolTest, TrailingBytesRejected) {
  std::string body;
  PutLengthPrefixedSlice(&body, "key");
  body.push_back('!');
  Slice key;
  EXPECT_FALSE(ParseGetRequest(Slice(body), &key));
}

// Fuzz-ish: random byte streams must never crash the decoder (ASan is
// the real assertion here) and must never yield a frame whose CRC could
// not have matched.
TEST(ProtocolTest, RandomBytesNeverCrash) {
  Random rnd(301);
  for (int round = 0; round < 200; round++) {
    FrameDecoder decoder(4096);
    std::string noise;
    const int len = 1 + rnd.Uniform(512);
    for (int i = 0; i < len; i++) {
      noise.push_back(static_cast<char>(rnd.Next() & 0xff));
    }
    // Sometimes lead with valid magic so deeper header paths get hit.
    if (round % 3 == 0 && noise.size() >= 2) {
      noise[0] = kMagic0;
      noise[1] = kMagic1;
    }
    if (round % 9 == 0 && noise.size() >= 3) {
      noise[2] = static_cast<char>(kProtocolVersion);
    }
    decoder.Append(noise.data(), noise.size());
    DecodedFrame frame;
    FrameDecoder::Result res;
    int spins = 0;
    while ((res = decoder.Next(&frame)) == FrameDecoder::Result::kFrame) {
      ASSERT_LT(spins++, 1000);
    }
    SUCCEED();
  }
}

// Mutation fuzz: take a valid frame, flip one byte anywhere, and the
// decoder must either error or (header-only flips that keep everything
// consistent are impossible thanks to the CRC) still round-trip.
TEST(ProtocolTest, SingleByteMutationsNeverCrash) {
  std::string wire;
  EncodePutRequest(77, "mutation-key", std::string(64, 'm'), &wire);
  for (size_t i = 0; i < wire.size(); i++) {
    for (uint8_t bit = 1; bit != 0; bit <<= 1) {
      std::string mutated = wire;
      mutated[i] = static_cast<char>(mutated[i] ^ bit);
      FrameDecoder decoder;
      decoder.Append(mutated.data(), mutated.size());
      DecodedFrame frame;
      const FrameDecoder::Result res = decoder.Next(&frame);
      // A mutated frame may only decode if the flip missed header+body+
      // CRC coverage — which is the whole wire, so it must NOT decode.
      EXPECT_NE(FrameDecoder::Result::kFrame, res)
          << "byte " << i << " bit " << static_cast<int>(bit);
    }
  }
}

TEST(ProtocolTest, BufferCompactionKeepsDecoding) {
  // Push enough frames through one decoder to trigger the internal
  // consumed-prefix compaction and confirm nothing is lost around it.
  FrameDecoder decoder;
  DecodedFrame frame;
  uint64_t seq = 0;
  for (int round = 0; round < 50; round++) {
    std::string wire;
    for (int i = 0; i < 10; i++) {
      EncodePutRequest(seq++, "key", std::string(200, 'z'), &wire);
    }
    decoder.Append(wire.data(), wire.size());
    for (int i = 0; i < 10; i++) {
      ASSERT_EQ(FrameDecoder::Result::kFrame, decoder.Next(&frame));
    }
    ASSERT_EQ(FrameDecoder::Result::kNeedMore, decoder.Next(&frame));
  }
  EXPECT_EQ(500u, seq);
}

}  // namespace
}  // namespace pipelsm::server
