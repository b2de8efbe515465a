// Number and escape helpers shared across modules.
#pragma once

#include <cstdint>
#include <string>

#include "src/util/slice.h"

namespace pipelsm {

// Append a human-readable printout of "num" to *str.
void AppendNumberTo(std::string* str, uint64_t num);

// Append a human-readable version of "value" to *str, escaping any
// non-printable characters.
void AppendEscapedStringTo(std::string* str, const Slice& value);

std::string NumberToString(uint64_t num);
std::string EscapeString(const Slice& value);

// Parse a decimal number from *in into *val; consumes the digits.
bool ConsumeDecimalNumber(Slice* in, uint64_t* val);

}  // namespace pipelsm
