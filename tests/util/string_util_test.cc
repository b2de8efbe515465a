#include "src/util/string_util.h"

#include <gtest/gtest.h>

#include <limits>

namespace pipelsm {
namespace {

TEST(Logging, NumberToString) {
  EXPECT_EQ("0", NumberToString(0));
  EXPECT_EQ("1", NumberToString(1));
  EXPECT_EQ("9", NumberToString(9));
  EXPECT_EQ("10", NumberToString(10));
  EXPECT_EQ("18446744073709551615",
            NumberToString(std::numeric_limits<uint64_t>::max()));
}

TEST(Logging, EscapeString) {
  EXPECT_EQ("abc", EscapeString("abc"));
  EXPECT_EQ("\\x00\\x01", EscapeString(Slice("\x00\x01", 2)));
  EXPECT_EQ("a\\xffb", EscapeString(Slice("a\xff" "b", 3)));
}

TEST(Logging, ConsumeDecimalNumberRoundtrip) {
  const uint64_t numbers[] = {0,     1,     9,
                              10,    100,   99999,
                              std::numeric_limits<uint64_t>::max()};
  for (uint64_t number : numbers) {
    std::string s = NumberToString(number);
    Slice in(s);
    uint64_t result;
    ASSERT_TRUE(ConsumeDecimalNumber(&in, &result));
    EXPECT_EQ(number, result);
    EXPECT_TRUE(in.empty());
  }
}

TEST(Logging, ConsumeDecimalNumberWithSuffix) {
  std::string s = "12345.log";
  Slice in(s);
  uint64_t result;
  ASSERT_TRUE(ConsumeDecimalNumber(&in, &result));
  EXPECT_EQ(12345u, result);
  EXPECT_EQ(".log", in.ToString());
}

TEST(Logging, ConsumeDecimalNumberOverflow) {
  // One past uint64 max.
  std::string s = "18446744073709551616";
  Slice in(s);
  uint64_t result;
  EXPECT_FALSE(ConsumeDecimalNumber(&in, &result));
}

TEST(Logging, ConsumeDecimalNumberNoDigits) {
  std::string s = "abc";
  Slice in(s);
  uint64_t result;
  EXPECT_FALSE(ConsumeDecimalNumber(&in, &result));
  EXPECT_EQ("abc", in.ToString());
}

}  // namespace
}  // namespace pipelsm
