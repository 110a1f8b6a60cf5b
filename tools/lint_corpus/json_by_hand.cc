// swan-lint-corpus-path: bench/bad_json_by_hand.cc
// Seeded corpus for the json-by-hand rule: JSON is written through
// obs::JsonWriter, never from printf-family or AppendF format strings,
// which escape none of their %s arguments and, in AppendF's case, cut
// each call at 511 bytes.
#include <cstdio>
#include <string>

namespace corpus {

void AppendF(std::string* out, const char* fmt, ...);

void HandBuilt(std::string* out, const char* name, double seconds) {
  AppendF(out, "{\"name\":\"%s\"}", name);  // expect(json-by-hand)
  std::printf("{\"seconds\":%.3f}\n", seconds);  // expect(json-by-hand)
  char buf[64];
  std::snprintf(buf, sizeof(buf),  // expect(json-by-hand)
                "{\"a\":1,"
                "\"b\":%d}",
                2);
  out->append(buf);
}

void NotJson(std::string* out, const char* name) {
  // Text tables and quoted prose stay allowed; so does a comment that
  // spells out printf("{\"x\":1}").
  AppendF(out, "%-40s %10s\n", name, "rows");
  std::printf("label \"%s\": ok\n", name);
}

void Sanctioned(const char* name) {
  // swan-lint: allow(json-by-hand)
  std::printf("{\"name\":\"%s\"}\n", name);
}

}  // namespace corpus
