// A from-scratch Snappy-class byte-oriented LZ77 codec ("pz1" format).
//
// The paper compresses every data block with snappy in S5 and decompresses
// in S3; what matters for reproducing its results is a codec with the same
// cost profile: fast greedy compression (hash-table match finder, no entropy
// stage) and a much cheaper copy-based decompression. This codec follows the
// snappy tag design:
//
//   preamble: varint32 uncompressed length
//   elements: tag byte, low 2 bits select the kind
//     00 literal    — (len-1) in the upper 6 bits; 60/61 mean 1/2 extra
//                     length bytes follow (little-endian), then the bytes
//     01 copy-1     — len 4..11 in bits [2,4], offset 11 bits:
//                     bits [5,7] high + 1 following byte
//     10 copy-2     — (len-1) in upper 6 bits, 2-byte LE offset
//     11 copy-4     — (len-1) in upper 6 bits, 4-byte LE offset
//
// Matches are at least 4 bytes; offsets never exceed the bytes produced so
// far. Decompression validates every offset/length and fails cleanly on
// corrupt input (required: S2's checksum is the first line of defense, but
// the decoder must never read or write out of bounds regardless).
#pragma once

#include <cstddef>
#include <string>

#include "src/util/status.h"

namespace pipelsm::lz {

// Maximum size Compress may produce for an n-byte input.
size_t MaxCompressedLength(size_t n);

// Compresses input[0,n-1] into *output (replacing its contents).
void Compress(const char* input, size_t n, std::string* output);

// Reads the uncompressed-length preamble. False if it is malformed or
// declares more bytes than the rest of the stream can encode.
bool GetUncompressedLength(const char* input, size_t n, size_t* result);

// Decompresses into output[0, ulen), where ulen is the stream's declared
// length (GetUncompressedLength). Returns Corruption on any malformed
// input, including a stream that does not produce exactly ulen bytes.
Status UncompressTo(const char* input, size_t n, char* output, size_t ulen);

// Decompresses into *output (resized to the uncompressed length).
// Returns Corruption on any malformed input.
Status Uncompress(const char* input, size_t n, std::string* output);

}  // namespace pipelsm::lz
