#ifndef SWANDB_OBS_JSON_WRITER_H_
#define SWANDB_OBS_JSON_WRITER_H_

#include <concepts>
#include <string>
#include <string_view>
#include <vector>

namespace swan::obs {

// The one JSON emitter: the Chrome traces, the query log, the latency
// windows and the bench JSON are all written through it. It owns escaping
// (quote and backslash, \n \r \t by name, other control characters as
// \u00XX), separators and number output, so callers write keys and typed
// values and the result is valid JSON by construction: a key outside an
// object, a member without a key, a second top-level value or an
// unbalanced End aborts. Doubles print with a fixed number of decimals.
class JsonWriter {
 public:
  // kLines puts each array element on its own line ("[\n" a ",\n" b "\n]",
  // the Chrome trace's event layout); kCompact writes "[a,b]".
  enum class Layout { kCompact, kLines };

  JsonWriter& BeginObject() { return Open('{', false); }
  JsonWriter& BeginArray(Layout layout = Layout::kCompact) {
    return Open('[', layout == Layout::kLines);
  }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& EndArray() { return Close(']'); }

  // Names the next member of the enclosing object.
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view text);
  template <std::integral T>
  JsonWriter& Value(T value) {
    if constexpr (std::same_as<T, bool>) return Raw(value ? "true" : "false");
    else return Raw(std::to_string(value));
  }
  // `value` with exactly `decimals` digits after the point (printf "%.*f");
  // NaN and infinity, which JSON cannot hold, are written as null.
  JsonWriter& Value(double value, int decimals);
  // Another writer's complete document, as one value.
  JsonWriter& Value(const JsonWriter& document);

  template <typename... V>
  JsonWriter& Field(std::string_view key, const V&... value) {
    return Key(key).Value(value...);
  }

  const std::string& str() const { return out_; }
  bool complete() const { return stack_.empty() && !out_.empty(); }

 private:
  struct Level {
    char close;  // '}' or ']'
    bool lines;
    bool first = true;
  };

  // Checks that a key (or a value) may come next and writes the separator.
  void Separate(bool key);
  JsonWriter& Open(char bracket, bool lines);
  JsonWriter& Close(char bracket);
  JsonWriter& Raw(std::string_view json);  // one value, already JSON

  std::string out_;
  std::vector<Level> stack_;
  bool after_key_ = false;
};

}  // namespace swan::obs

#endif  // SWANDB_OBS_JSON_WRITER_H_
