// JsonWriter: the one JSON encoder. Every property, registry snapshot,
// advisor verdict and trace the engine emits is rendered through it, so
// there is one escaping rule and one number format:
//   - strings escape `"` and `\` with a backslash, and every byte below
//     0x20 or at 0x80 and above as \u00xx, so binary keys round-trip
//     byte for byte and the output is always valid JSON;
//   - doubles print as %.*f, and NaN/inf print as 0 (not JSON numbers).
// Commas are inserted automatically; callers only open, close and fill.
//
//   std::string out;
//   JsonWriter w(&out);
//   w.BeginObject().Key("hits").Uint(3).Key("ratio").Double(0.5, 3);
//   w.EndObject();  // out == {"hits":3,"ratio":0.500}
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace pipelsm {

class JsonWriter {
 public:
  // Appends to *out, which must outlive the writer.
  explicit JsonWriter(std::string* out) : out_(out) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  // An object member's name; the next call writes its value.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view s);
  JsonWriter& Int(int64_t v);
  JsonWriter& Uint(uint64_t v);
  JsonWriter& Bool(bool v);
  JsonWriter& Double(double v, int precision);
  // Embeds `json`, a value another writer already encoded, verbatim.
  JsonWriter& Raw(std::string_view json);

 private:
  void Separate();  // the comma before a value, when one is due
  JsonWriter& Open(char c);
  JsonWriter& Close(char c);

  std::string* const out_;
  bool need_comma_ = false;  // a value was written at the current depth
};

}  // namespace pipelsm
