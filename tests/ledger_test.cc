// The cost ledger: its loader rejects each kind of malformed line as
// Corruption naming the file and line, a written ledger loads back with
// an empty diff, and the comparison reports every difference by key.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "bench_support/ledger.h"

namespace swan::bench_support {
namespace {

const std::string kHead = "# note\n# triples=1 seed=2\nbackend,query,calls\n";

// {case name, ledger text, message after the file name}
using LedgerTest = ::testing::TestWithParam<std::vector<std::string>>;

TEST_P(LedgerTest, MalformedInputIsCorruption) {
  const std::string path = MeasuredPath("ledger_test_" + GetParam()[0]);
  std::ofstream(path) << GetParam()[1];
  const auto ledger = LoadLedger(path);
  ASSERT_FALSE(ledger.ok());
  EXPECT_EQ(ledger.status().code(), StatusCode::kCorruption);
  EXPECT_NE(ledger.status().ToString().find(path + GetParam()[2]),
            std::string::npos)
      << ledger.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, LedgerTest,
    ::testing::Values(
        std::vector<std::string>{"cell_count", kHead + "a,q1\n",
                                 ":4: 2 cells, header has 3"},
        std::vector<std::string>{"non_numeric", kHead + "a,q1,abc\n",
                                 ":4: calls 'abc' is not a number"},
        std::vector<std::string>{"trailing_junk", kHead + "a,q1,12x\n",
                                 ":4: calls '12x' is not a number"},
        std::vector<std::string>{"duplicate_key", kHead + "a,q1,1\na,q1,2\n",
                                 ":5: duplicate key (a, q1)"},
        std::vector<std::string>{"no_config", "backend,query,calls\n",
                                 ": no config line"},
        std::vector<std::string>{"bad_config", "# triples=1 seed=2x\n",
                                 ":1: malformed config line"},
        std::vector<std::string>{"no_header", "# triples=1 seed=2\n",
                                 ": no header"}),
    [](const auto& info) { return info.param[0]; });

// Every cell format prints back unchanged, and a backend name of any
// length survives.
TEST(LedgerDiffTest, WrittenLedgerLoadsBackWithEmptyDiff) {
  Ledger measured(BartonConfig{}, {"backend", "width", "hash", "seconds"});
  measured.notes = {"# measured"};
  measured.rows = {{std::string(80, 'b'), "1", HexCell(0x176aa8c94cfc229),
                    SecondsCell(0x1.29de937da40dp-4)},
                   {"DBX vert. SO", "8", HexCell(0), SecondsCell(0.0)}};
  const std::string path = MeasuredPath("ledger_test_round_trip");
  ASSERT_TRUE(WriteLedger(measured, path).ok());
  const auto loaded = LoadLedger(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().notes, measured.notes);
  EXPECT_EQ(loaded.value().rows, measured.rows);
  EXPECT_TRUE(CompareLedgers(loaded.value(), measured).empty());
}

// Rows match by key in any order. Seconds at width 8 may differ by 1e-12
// relative, at width 1 not at all.
TEST(LedgerDiffTest, ReportsEveryDifferenceByKey) {
  Ledger want(BartonConfig{}, {"backend", "width", "seeks", "seconds"});
  want.rows = {{"a", "1", "3", "0x1p+0"},
               {"a", "8", "3", "0x1p+0"},
               {"b", "1", "4", "0x1p+0"}};
  Ledger got = want;
  std::swap(got.rows[0], got.rows[1]);
  got.rows[0][3] = SecondsCell(1.0 + 1e-13);  // (a, 8)
  got.rows[1] = {"a", "1", "5", SecondsCell(1.0 + 0x1p-52)};
  got.rows[2][0] = "c";
  EXPECT_EQ(CompareLedgers(want, got),
            (std::vector<std::string>{
                "(a, 1) seeks: want 3, got 5",
                "(a, 1) seconds: want 0x1p+0, got 0x1.0000000000001p+0",
                "missing row (b, 1): not measured",
                "extra row (c, 1): measured, missing from the committed "
                "ledger"}));
}

}  // namespace
}  // namespace swan::bench_support
