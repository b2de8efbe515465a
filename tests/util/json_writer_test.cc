// JsonWriter: the one escaping rule (every byte value round-trips through
// a strict parser), the non-finite number rule, automatic commas in
// nested containers, and Raw() embedding.
#include "src/util/json_writer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "tests/obs/json_check.h"

namespace pipelsm {
namespace {

std::string Encode(const std::string& s) {
  std::string out;
  JsonWriter(&out).String(s);
  return out;
}

TEST(JsonWriter, EveryByteRoundTrips) {
  std::string all;
  for (int b = 0; b < 256; b++) {
    const std::string one(1, static_cast<char>(b));
    const std::string json = Encode(one);
    testjson::JsonValue v;
    std::string error;
    ASSERT_TRUE(testjson::ParseJson(json, &v, &error))
        << "byte " << b << ": " << json << ": " << error;
    ASSERT_EQ(testjson::JsonValue::kString, v.type);
    EXPECT_EQ(one, v.string_value) << "byte " << b;
    all += one;
  }
  testjson::JsonValue v;
  ASSERT_TRUE(testjson::ParseJson(Encode(all), &v));
  EXPECT_EQ(all, v.string_value);
}

TEST(JsonWriter, EscapesOnlyWhatItMust) {
  EXPECT_EQ("\"plain ascii ~\"", Encode("plain ascii ~"));
  EXPECT_EQ("\"a\\\"b\\\\c\"", Encode("a\"b\\c"));
  EXPECT_EQ("\"\\u000a\\u0001\\u00ff\"", Encode("\n\x01\xff"));
}

TEST(JsonWriter, NonFiniteDoublesPrintAsZero) {
  std::string out;
  JsonWriter w(&out);
  w.BeginArray();
  w.Double(std::numeric_limits<double>::quiet_NaN(), 3);
  w.Double(std::numeric_limits<double>::infinity(), 1);
  w.Double(-std::numeric_limits<double>::infinity(), 0);
  w.Double(2.5, 2).Double(1234.5678, 0);
  w.EndArray();
  EXPECT_EQ("[0.000,0.0,0,2.50,1235]", out);
}

TEST(JsonWriter, NestedContainersGetTheirCommas) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("a").Int(-1).Key("b").Uint(18446744073709551615ull);
  w.Key("empty_obj").BeginObject().EndObject();
  w.Key("empty_arr").BeginArray().EndArray();
  w.Key("list").BeginArray();
  w.BeginObject().Key("x").Bool(true).EndObject();
  w.BeginArray().Int(1).Int(2).EndArray();
  w.String("s").Bool(false);
  w.EndArray();
  w.Key("last").String("z");
  w.EndObject();
  EXPECT_EQ(
      "{\"a\":-1,\"b\":18446744073709551615,\"empty_obj\":{},"
      "\"empty_arr\":[],\"list\":[{\"x\":true},[1,2],\"s\",false],"
      "\"last\":\"z\"}",
      out);
  testjson::JsonValue v;
  EXPECT_TRUE(testjson::ParseJson(out, &v));
}

TEST(JsonWriter, RawEmbedsAFinishedDocument) {
  std::string inner;
  JsonWriter(&inner).BeginObject().Key("k").Int(1).EndObject();

  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("inner").Raw(inner).Key("list").BeginArray();
  w.Raw(inner).Raw(inner).EndArray().EndObject();
  EXPECT_EQ("{\"inner\":{\"k\":1},\"list\":[{\"k\":1},{\"k\":1}]}", out);
}

TEST(JsonWriter, AppendsToExistingText) {
  std::string out = "prefix ";
  JsonWriter(&out).BeginArray().Int(7).EndArray();
  EXPECT_EQ("prefix [7]", out);
}

}  // namespace
}  // namespace pipelsm
