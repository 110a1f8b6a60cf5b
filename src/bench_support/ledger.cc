#include "bench_support/ledger.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "common/macros.h"

namespace swan::bench_support {
namespace {

constexpr std::string_view kKeyColumns[] = {"backend", "codec",   "state",
                                            "query",   "pattern", "width"};

std::vector<std::string> Split(const std::string& line) {
  std::vector<std::string> cells(1);
  for (char c : line) {
    if (c == ',') {
      cells.emplace_back();
    } else {
      cells.back() += c;
    }
  }
  return cells;
}

std::string Join(const std::vector<std::string>& cells, const char* sep) {
  std::string out;
  for (size_t i = 0; i < cells.size(); ++i) {
    out += (i > 0 ? sep : "") + cells[i];
  }
  return out;
}

std::vector<std::string> KeyOf(const Ledger& ledger,
                               const std::vector<std::string>& row) {
  const auto keys = static_cast<std::ptrdiff_t>(ledger.KeyCount());
  return {row.begin(), row.begin() + keys};
}

// "(DBX triple SPO, q1, 8)"
std::string KeyText(const Ledger& ledger, const std::vector<std::string>& row) {
  return "(" + Join(KeyOf(ledger, row), ", ") + ")";
}

// The config line and header, which two ledgers must share.
std::string Head(const Ledger& ledger) {
  return "triples=" + std::to_string(ledger.triples) +
         " seed=" + std::to_string(ledger.seed) + " " +
         Join(ledger.columns, ",");
}

}  // namespace

size_t Ledger::KeyCount() const {
  size_t n = 0;
  while (n < columns.size() && std::ranges::find(kKeyColumns, columns[n]) !=
                                   std::end(kKeyColumns)) {
    ++n;
  }
  return n;
}

std::optional<uint64_t> Ledger::Count(const std::vector<std::string>& key,
                                      std::string_view column) const {
  const size_t col = std::ranges::find(columns, column) - columns.begin();
  for (const std::vector<std::string>& row : rows) {
    uint64_t value = 0;
    if (col < row.size() && KeyOf(*this, row) == key &&
        std::from_chars(row[col].data(), row[col].data() + row[col].size(),
                        value).ec == std::errc()) {
      return value;
    }
  }
  return std::nullopt;
}

std::string HexCell(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string SecondsCell(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", seconds);
  return buf;
}

Result<Ledger> LoadLedger(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  Ledger ledger;
  bool has_config = false;
  std::set<std::vector<std::string>> keys;
  std::string line;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    const std::string at = path + ":" + std::to_string(line_no) + ": ";
    if (line.starts_with("# triples=")) {
      unsigned long long triples = 0, seed = 0;
      int used = 0;
      if (std::sscanf(line.c_str(), "# triples=%llu seed=%llu%n", &triples,
                      &seed, &used) != 2 ||
          used != static_cast<int>(line.size())) {
        return Status::Corruption(at + "malformed config line");
      }
      ledger.triples = triples;
      ledger.seed = seed;
      has_config = true;
    } else if (line.starts_with('#')) {
      ledger.notes.push_back(line);
    } else if (ledger.columns.empty()) {
      ledger.columns = Split(line);
      const size_t key_count = ledger.KeyCount();
      if (key_count == 0 || key_count == ledger.columns.size()) {
        return Status::Corruption(at + "header needs keys, then counters");
      }
    } else {
      std::vector<std::string> row = Split(line);
      if (row.size() != ledger.columns.size()) {
        return Status::Corruption(at + std::to_string(row.size()) +
                                  " cells, header has " +
                                  std::to_string(ledger.columns.size()));
      }
      for (size_t i = ledger.KeyCount(); i < row.size(); ++i) {
        char* end = nullptr;
        std::strtod(row[i].c_str(), &end);
        if (row[i][0] < '0' || row[i][0] > '9' || *end != '\0') {
          return Status::Corruption(at + ledger.columns[i] + " '" + row[i] +
                                    "' is not a number");
        }
      }
      if (!keys.insert(KeyOf(ledger, row)).second) {
        return Status::Corruption(at + "duplicate key " +
                                  KeyText(ledger, row));
      }
      ledger.rows.push_back(std::move(row));
    }
  }
  if (!has_config) return Status::Corruption(path + ": no config line");
  if (ledger.columns.empty()) return Status::Corruption(path + ": no header");
  return ledger;
}

Status WriteLedger(const Ledger& ledger, const std::string& path) {
  std::error_code ignored;  // a failed mkdir shows as a failed write
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ignored);
  std::ofstream out(path);
  for (const std::string& note : ledger.notes) out << note << '\n';
  out << "# triples=" << ledger.triples << " seed=" << ledger.seed << '\n'
      << Join(ledger.columns, ",") << '\n';
  for (const auto& row : ledger.rows) out << Join(row, ",") << '\n';
  out.close();
  return out ? Status::OK() : Status::NotFound("cannot write " + path);
}

std::vector<std::string> CompareLedgers(const Ledger& want, const Ledger& got) {
  if (Head(want) != Head(got)) {
    return {"config and header: want " + Head(want) + ", got " + Head(got)};
  }
  const size_t keys = want.KeyCount();
  const size_t width =
      std::find(want.columns.begin(), want.columns.end(), "width") -
      want.columns.begin();
  std::vector<std::string> diffs;
  std::map<std::vector<std::string>, const std::vector<std::string>*> unseen;
  for (const auto& row : got.rows) {
    SWAN_CHECK(row.size() == want.columns.size());
    if (!unseen.emplace(KeyOf(got, row), &row).second) {
      diffs.push_back("row " + KeyText(got, row) + " measured twice");
    }
  }
  for (const auto& row : want.rows) {
    const auto it = unseen.find(KeyOf(want, row));
    if (it == unseen.end()) {
      diffs.push_back("missing row " + KeyText(want, row) + ": not measured");
      continue;
    }
    const std::vector<std::string>& have = *it->second;
    unseen.erase(it);
    for (size_t i = keys; i < row.size(); ++i) {
      if (have[i] == row[i]) continue;
      const double w = std::strtod(row[i].c_str(), nullptr);
      if (width < keys && row[width] != "1" && want.columns[i] == "seconds" &&
          std::fabs(std::strtod(have[i].c_str(), nullptr) - w) <= w * 1e-12) {
        continue;
      }
      diffs.push_back(KeyText(want, row) + " " + want.columns[i] + ": want " +
                      row[i] + ", got " + have[i]);
    }
  }
  for (const auto& [key, row] : unseen) {
    diffs.push_back("extra row " + KeyText(got, *row) +
                    ": measured, missing from the committed ledger");
  }
  return diffs;
}

std::string BaselinePath(const std::string& file) {
  return std::string(SWAN_BASELINE_DIR) + "/" + file;
}

std::string MeasuredPath(const std::string& suite) {
  return std::string(SWAN_LEDGER_OUT_DIR) + "/" + suite + ".csv";
}

std::vector<std::string> CheckPinnedLedger(const std::string& suite,
                                           Ledger got) {
  const Result<Ledger> want = LoadLedger(BaselinePath(suite + ".csv"));
  if (want.ok()) got.notes = want.value().notes;
  const Status written = WriteLedger(got, MeasuredPath(suite));
  if (!written.ok()) return {written.ToString()};
  if (!want.ok()) return {want.status().ToString()};
  std::vector<std::string> diffs = CompareLedgers(want.value(), got);
  for (std::string& diff : diffs) diff = suite + ".csv: " + diff;
  return diffs;
}

}  // namespace swan::bench_support
