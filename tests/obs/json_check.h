// Minimal recursive-descent JSON parser for golden-format tests.
//
// The observability layer's contract is "emits valid JSON that external
// tools (Perfetto, jq) can load", so the tests must actually parse the
// output rather than substring-match it. This parser covers the full
// JSON grammar the emitters can produce; it is test-only and favours
// clarity over speed.
#pragma once

#include <cctype>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace pipelsm::testjson {

struct JsonValue {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = kNull;
  bool bool_value = false;
  double number_value = 0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const {
    if (type != kObject) return nullptr;
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  // Parses the whole input as one JSON value (trailing whitespace ok).
  bool Parse(JsonValue* out) {
    pos_ = 0;
    if (!ParseValue(out)) return false;
    SkipWhitespace();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool Fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      pos_++;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    pos_++;
    return true;
  }

  bool ConsumeLiteral(const char* lit) {
    size_t n = 0;
    while (lit[n] != '\0') n++;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->type = JsonValue::kString;
        return ParseString(&out->string_value);
      case 't':
        out->type = JsonValue::kBool;
        out->bool_value = true;
        return ConsumeLiteral("true") || Fail("bad literal");
      case 'f':
        out->type = JsonValue::kBool;
        out->bool_value = false;
        return ConsumeLiteral("false") || Fail("bad literal");
      case 'n':
        out->type = JsonValue::kNull;
        return ConsumeLiteral("null") || Fail("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::kObject;
    if (!Consume('{')) return Fail("expected '{'");
    SkipWhitespace();
    if (Consume('}')) return true;
    while (true) {
      SkipWhitespace();
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return true;
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::kArray;
    if (!Consume('[')) return Fail("expected '['");
    SkipWhitespace();
    if (Consume(']')) return true;
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return true;
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    out->clear();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected '\"'");
    }
    pos_++;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      // RFC 8259 section 7: control characters must be escaped.
      if (static_cast<unsigned char>(c) < 0x20) {
        pos_--;
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':  out->push_back('"');  break;
        case '\\': out->push_back('\\'); break;
        case '/':  out->push_back('/');  break;
        case 'b':  out->push_back('\b'); break;
        case 'f':  out->push_back('\f'); break;
        case 'n':  out->push_back('\n'); break;
        case 'r':  out->push_back('\r'); break;
        case 't':  out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; i++) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          // The emitters escape single bytes (code points up to 0xff),
          // so a plain byte append restores exactly what they encoded.
          out->push_back(static_cast<char>(code & 0xff));
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') pos_++;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      pos_++;
    }
    if (pos_ == start) return Fail("expected a value");
    out->type = JsonValue::kNumber;
    out->number_value = std::strtod(text_.substr(start, pos_ - start).c_str(),
                                    nullptr);
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

inline bool ParseJson(const std::string& text, JsonValue* out,
                      std::string* error = nullptr) {
  JsonParser parser(text);
  const bool ok = parser.Parse(out);
  if (!ok && error != nullptr) *error = parser.error();
  return ok;
}

}  // namespace pipelsm::testjson
