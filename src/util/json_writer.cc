#include "src/util/json_writer.h"

#include <cmath>
#include <cstdio>

namespace pipelsm {

void JsonWriter::Separate() {
  if (need_comma_) out_->push_back(',');
  need_comma_ = true;
}

JsonWriter& JsonWriter::Open(char c) {
  Separate();
  out_->push_back(c);
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Close(char c) {
  out_->push_back(c);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginObject() { return Open('{'); }
JsonWriter& JsonWriter::EndObject() { return Close('}'); }
JsonWriter& JsonWriter::BeginArray() { return Open('['); }
JsonWriter& JsonWriter::EndArray() { return Close(']'); }

JsonWriter& JsonWriter::Key(std::string_view key) {
  String(key);
  out_->push_back(':');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  Separate();
  out_->push_back('"');
  for (const char c : s) {
    const auto b = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out_->push_back('\\');
      out_->push_back(c);
    } else if (b < 0x20 || b >= 0x80) {
      out_->append("\\u00");
      out_->push_back(kHex[b >> 4]);
      out_->push_back(kHex[b & 0xf]);
    } else {
      out_->push_back(c);
    }
  }
  out_->push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t v) { return Raw(std::to_string(v)); }
JsonWriter& JsonWriter::Uint(uint64_t v) { return Raw(std::to_string(v)); }
JsonWriter& JsonWriter::Bool(bool v) { return Raw(v ? "true" : "false"); }

JsonWriter& JsonWriter::Double(double v, int precision) {
  char buf[352];  // DBL_MAX at %.f is 309 digits
  std::snprintf(buf, sizeof(buf), "%.*f", precision,
                std::isfinite(v) ? v : 0.0);
  return Raw(buf);
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  Separate();
  out_->append(json);
  return *this;
}

}  // namespace pipelsm
