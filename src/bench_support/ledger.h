#ifndef SWANDB_BENCH_SUPPORT_LEDGER_H_
#define SWANDB_BENCH_SUPPORT_LEDGER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_support/barton_generator.h"
#include "common/status.h"

namespace swan::bench_support {

// A cost ledger: the deterministic costs of one pinned suite, one row per
// cell, committed as bench/baselines/<suite>.csv:
//
//   # comment lines
//   # triples=40000 seed=7
//   backend,query,width,cold_bytes,seeks,seconds
//   DBX triple SPO,q1,1,974848,2,0x1.cab36f3336e5cp-9
//
// The config line names the generated dataset. The header's leading
// columns named backend, codec, state, query, pattern or width are the
// row's key; the rest are counters: counts in decimal, hashes as HexCell,
// seconds as SecondsCell. Each prints its value back unchanged, so equal
// text means equal bits.
struct Ledger {
  Ledger() = default;
  // An empty ledger for rows measured on the dataset `config` generates.
  Ledger(const BartonConfig& config, std::vector<std::string> columns)
      : triples(config.target_triples),
        seed(config.seed),
        columns(std::move(columns)) {}

  size_t KeyCount() const;
  // The decimal counter `column` of the row keyed `key`, if there is one.
  std::optional<uint64_t> Count(const std::vector<std::string>& key,
                                std::string_view column) const;

  std::vector<std::string> notes;  // the comment lines, verbatim
  uint64_t triples = 0;
  uint64_t seed = 0;
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;  // in file order
};

std::string HexCell(uint64_t value);     // 0x%llx
std::string SecondsCell(double seconds);  // %a

// The one loader. A malformed line is Status::Corruption naming the file
// and line: a cell count unlike the header's, a counter that is not wholly
// a number, a duplicate key, or no config line or header.
Result<Ledger> LoadLedger(const std::string& path);
Status WriteLedger(const Ledger& ledger, const std::string& path);

// Every difference of `got` from `want`: config, header, each differing
// cell (by key and column), each missing and each extra row. Rows match
// by key, not position. Seconds at a width other than 1 may differ by
// 1e-12 relative: lane clocks add the same costs in scheduling order.
std::vector<std::string> CompareLedgers(const Ledger& want, const Ledger& got);

// `file` in the source tree's bench/baselines/.
std::string BaselinePath(const std::string& file);
// tests/ledger/<suite>.csv in the build tree: where tests write ledgers.
std::string MeasuredPath(const std::string& suite);

// Writes `got`, with the committed ledger's notes, to MeasuredPath(suite)
// (copy it over the committed file to re-pin), then returns
// CompareLedgers against bench/baselines/<suite>.csv, or the load or write
// error.
std::vector<std::string> CheckPinnedLedger(const std::string& suite,
                                           Ledger got);

}  // namespace swan::bench_support

#endif  // SWANDB_BENCH_SUPPORT_LEDGER_H_
