#include "obs/json_writer.h"

#include <cmath>
#include <cstdio>

#include "common/macros.h"

namespace swan::obs {

namespace {

void AppendEscaped(std::string* out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  *out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) {
          *out += c;
        } else {
          *out += {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        }
    }
  }
  *out += '"';
}

}  // namespace

void JsonWriter::Separate(bool key) {
  const bool in_object = !stack_.empty() && stack_.back().close == '}';
  SWAN_CHECK_MSG(key ? in_object && !after_key_ : in_object == after_key_,
                 "JsonWriter: key outside an object or member without a key");
  SWAN_CHECK_MSG(!complete(), "JsonWriter: second top-level value");
  if (after_key_) {
    after_key_ = false;  // the value of the key just written
  } else if (!stack_.empty()) {
    if (!stack_.back().first) out_ += stack_.back().lines ? ",\n" : ",";
    stack_.back().first = false;
  }
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Separate(/*key=*/true);
  AppendEscaped(&out_, key);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Open(char bracket, bool lines) {
  Separate(/*key=*/false);
  out_ += bracket;
  if (lines) out_ += '\n';
  stack_.push_back({bracket == '{' ? '}' : ']', lines});
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  SWAN_CHECK_MSG(!stack_.empty() && stack_.back().close == bracket &&
                     !after_key_,
                 "JsonWriter: unbalanced End");
  if (stack_.back().lines) out_ += '\n';
  out_ += bracket;
  stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  Separate(/*key=*/false);
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view text) {
  Separate(/*key=*/false);
  AppendEscaped(&out_, text);
  return *this;
}

JsonWriter& JsonWriter::Value(double value, int decimals) {
  SWAN_CHECK_MSG(decimals >= 0 && decimals <= 17,
                 "JsonWriter: decimals out of range");
  if (!std::isfinite(value)) return Raw("null");
  char buf[352];  // any finite double at up to 17 decimals
  const int n = std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return Raw(std::string_view(buf, static_cast<size_t>(n)));
}

JsonWriter& JsonWriter::Value(const JsonWriter& document) {
  SWAN_CHECK_MSG(document.complete(), "JsonWriter: embedding a partial value");
  return Raw(document.out_);
}

}  // namespace swan::obs
