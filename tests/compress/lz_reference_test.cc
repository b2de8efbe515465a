// The codec against fixed references: the compressor's bytes against a
// golden CRC32C, and the decoder against a plain byte-at-a-time decoder
// of the same format.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/compress/lz_codec.h"
#include "src/table/block_builder.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"
#include "src/util/random.h"
#include "src/workload/generator.h"

namespace pipelsm::lz {
namespace {

// A seeded corpus of compressor inputs: 4 KiB data blocks built from the
// bench's keys and values (a run of one byte, then random bytes), plus
// text-like mixes, random bytes, long runs, tiny inputs and inputs past
// the compressor's 64 KiB window.
std::vector<std::string> GoldenCorpus() {
  std::vector<std::string> corpus;
  for (uint32_t seed = 1; seed <= 4; seed++) {
    WorkloadGenerator gen(2000, 16, 100, KeyOrder::kRandom, seed);
    BlockBuilder builder(16);
    for (uint64_t i = 0; i < 2000; i++) {
      builder.Add(gen.Key(i), gen.Value(i));
      if (builder.CurrentSizeEstimate() >= 4096) {
        corpus.push_back(builder.Finish().ToString());
        builder.Reset();
      }
    }
  }
  Random rnd(0x601d);
  Xoroshiro128pp payload(0x601d);
  static const char* kWords[] = {"alpha", "bravo", "charlie", "delta",
                                 "echo",  "fox",   "golf"};
  for (int round = 0; round < 40; round++) {
    std::string input;
    const int pieces = 1 + rnd.Uniform(round < 36 ? 300 : 6000);
    for (int p = 0; p < pieces; p++) {
      switch (rnd.Uniform(3)) {
        case 0:
          input.append(1 + rnd.Uniform(200),
                       static_cast<char>('a' + rnd.Uniform(26)));
          break;
        case 1:
          input.append(kWords[rnd.Uniform(7)]);
          break;
        default:
          for (uint32_t i = 0, n = rnd.Uniform(64); i < n; i++) {
            input.push_back(static_cast<char>(payload.Next()));
          }
          break;
      }
    }
    corpus.push_back(input);
  }
  for (size_t n : {0, 1, 3, 7, 8, 9, 64, 65, 4096, 70000}) {
    corpus.push_back(std::string(n, 'z'));
    std::string noise;
    for (size_t i = 0; i < n; i++) {
      noise.push_back(static_cast<char>(payload.Next()));
    }
    corpus.push_back(noise);
  }
  return corpus;
}

// Compressor output is part of the on-disk format's identity: SSTables
// written by one build must be byte-identical to those of another. The
// constant is the CRC32C of every (length, output) pair of the corpus,
// as first compressed by the push_back-per-byte compressor.
TEST(LzGolden, CompressorOutputIsByteIdentical) {
  const std::vector<std::string> corpus = GoldenCorpus();
  ASSERT_GT(corpus.size(), 100u);
  uint32_t crc = 0;
  std::string out;
  for (const std::string& input : corpus) {
    Compress(input.data(), input.size(), &out);
    ASSERT_LE(out.size(), MaxCompressedLength(input.size()));
    char len[4];
    EncodeFixed32(len, static_cast<uint32_t>(out.size()));
    crc = crc32c::Extend(crc, len, sizeof(len));
    crc = crc32c::Extend(crc, out.data(), out.size());
    std::string back;
    ASSERT_TRUE(Uncompress(out.data(), out.size(), &back).ok());
    ASSERT_EQ(input, back);
  }
  EXPECT_EQ(0x14b165c4u, crc);
}

// The format decoded the plain way: every copy byte by byte. Returns
// false wherever UncompressTo must return Corruption.
bool ReferenceUncompress(const std::string& in, std::string* out) {
  out->clear();
  const char* ip = in.data();
  const char* const end = in.data() + in.size();
  uint32_t ulen;
  ip = GetVarint32Ptr(ip, end, &ulen);
  if (ip == nullptr) return false;
  while (ip < end) {
    const uint8_t tag = static_cast<uint8_t>(*ip++);
    size_t len;
    size_t offset = 0;
    size_t extra;
    if ((tag & 3) == 0) {
      len = (tag >> 2) + 1;
      extra = len > 60 ? len - 60 : 0;
      if (extra > 2 || static_cast<size_t>(end - ip) < extra) return false;
      if (extra > 0) {
        len = 1;
        for (size_t i = 0; i < extra; i++) {
          len += static_cast<size_t>(static_cast<uint8_t>(ip[i])) << (8 * i);
        }
        ip += extra;
      }
      if (static_cast<size_t>(end - ip) < len) return false;
      if (out->size() + len > ulen) return false;
      out->append(ip, len);
      ip += len;
      continue;
    }
    if ((tag & 3) == 1) {
      len = ((tag >> 2) & 7) + 4;
      offset = static_cast<size_t>(tag >> 5) << 8;
      extra = 1;
    } else {
      len = (tag >> 2) + 1;
      extra = (tag & 3) == 2 ? 2 : 4;
    }
    if (static_cast<size_t>(end - ip) < extra) return false;
    for (size_t i = 0; i < extra; i++) {
      offset |= static_cast<size_t>(static_cast<uint8_t>(ip[i])) << (8 * i);
    }
    ip += extra;
    if (offset == 0 || offset > out->size()) return false;
    if (out->size() + len > ulen) return false;
    for (size_t i = 0; i < len; i++) {
      out->push_back((*out)[out->size() - offset]);
    }
  }
  return out->size() == ulen;
}

void PutLiteral(std::string* s, const std::string& bytes) {
  // Literal lengths up to 60 fit the tag.
  s->push_back(static_cast<char>((bytes.size() - 1) << 2));
  s->append(bytes);
}

void PutCopy2(std::string* s, size_t offset, size_t len) {
  s->push_back(static_cast<char>(0x02 | ((len - 1) << 2)));
  s->push_back(static_cast<char>(offset & 0xff));
  s->push_back(static_cast<char>(offset >> 8));
}

std::string Decode(const std::string& stream, Status* s) {
  std::string out;
  *s = Uncompress(stream.data(), stream.size(), &out);
  return out;
}

// Every short-offset copy the decoder can meet: a 64-byte literal, one
// copy of each offset 1..64 and length 1..64, then either nothing (the
// copy fills the output exactly) or a 20-byte literal tail (room for the
// decoder's fixed-size copies, whose overshoot the tail must overwrite).
TEST(LzDifferential, EveryShortOffsetAndLength) {
  Xoroshiro128pp payload(64);
  std::string prefix;
  for (int i = 0; i < 60; i++) {
    prefix.push_back(static_cast<char>(payload.Next()));
  }
  const std::string tail = "twenty-byte-tail-end";
  for (const std::string& after : {std::string(), tail}) {
    for (size_t offset = 1; offset <= 64; offset++) {
      for (size_t len = 1; len <= 64; len++) {
        std::string body;
        PutLiteral(&body, prefix);
        PutLiteral(&body, prefix.substr(0, 4));
        PutCopy2(&body, offset, len);
        if (!after.empty()) PutLiteral(&body, after);
        std::string stream;
        PutVarint32(&stream, static_cast<uint32_t>(64 + len + after.size()));
        stream += body;

        std::string expected;
        ASSERT_TRUE(ReferenceUncompress(stream, &expected));
        Status s;
        ASSERT_EQ(expected, Decode(stream, &s))
            << "offset=" << offset << " len=" << len
            << " tail=" << after.size();
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
    }
  }
}

// Seeded random element streams, valid and then mutated: the decoder
// and the reference agree on success and, when they succeed, on every
// output byte.
TEST(LzDifferential, RandomStreamsAgreeWithReference) {
  for (uint32_t seed = 1; seed <= 40; seed++) {
    Random rnd(seed);
    Xoroshiro128pp payload(seed);
    std::string body;
    size_t produced = 0;
    const int elements = 1 + rnd.Uniform(200);
    for (int e = 0; e < elements; e++) {
      if (produced == 0 || rnd.OneIn(3)) {
        std::string lit;
        for (uint32_t i = 0, n = 1 + rnd.Uniform(60); i < n; i++) {
          lit.push_back(static_cast<char>('a' + payload.Next() % 4));
        }
        PutLiteral(&body, lit);
        produced += lit.size();
      } else {
        const size_t limit = produced < 64 ? produced : 64;
        const size_t offset = 1 + rnd.Uniform(static_cast<int>(
                                      rnd.OneIn(2) ? limit : produced));
        const size_t len = 1 + rnd.Uniform(64);
        PutCopy2(&body, offset, len);
        produced += len;
      }
    }
    std::string stream;
    PutVarint32(&stream, static_cast<uint32_t>(produced));
    stream += body;

    for (int round = 0; round < 20; round++) {
      std::string mutated = stream;
      if (round > 0) {
        for (int f = 0, flips = 1 + rnd.Uniform(4); f < flips; f++) {
          const size_t pos = rnd.Uniform(static_cast<int>(mutated.size()));
          mutated[pos] ^= static_cast<char>(1 + rnd.Uniform(255));
        }
      }
      std::string expected;
      const bool ok = ReferenceUncompress(mutated, &expected);
      Status s;
      const std::string got = Decode(mutated, &s);
      ASSERT_EQ(ok, s.ok()) << "seed=" << seed << " round=" << round;
      if (ok) {
        ASSERT_EQ(expected, got) << "seed=" << seed << " round=" << round;
      }
    }
  }
}

}  // namespace
}  // namespace pipelsm::lz
