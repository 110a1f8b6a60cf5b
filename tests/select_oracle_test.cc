// The select kernels and the marked count against an independent oracle:
// a plain loop over the column's Materialize()d values.
//
// Every kernel compacts its selection without a branch (CompactInto),
// so the inputs aim at what a compaction can get wrong: hit rates of 0%,
// 15%, 50% and 100%, runs of hits and misses across the 64Ki-row morsel
// edges, and the first and last row of a range. Each case runs under all
// six codecs, in the whole-column, range (lo > 0) and positional forms,
// at widths 1, 2 and 8.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "colstore/column.h"
#include "colstore/compression.h"
#include "colstore/ops.h"
#include "common/random.h"
#include "exec/exec_context.h"

namespace swan {
namespace {

using colstore::ColumnCodec;
using colstore::CompactInto;
using colstore::CountMarkedByKey;
using colstore::EncodedColumn;
using colstore::kCompactBlock;
using colstore::kMorsel;
using colstore::MarkSet;
using colstore::PositionVector;
using colstore::SelectEq;
using colstore::SelectMarked;

const ColumnCodec kAllCodecs[] = {ColumnCodec::kRaw, ColumnCodec::kRle,
                                  ColumnCodec::kDelta, ColumnCodec::kBitPack,
                                  ColumnCodec::kDictBitPack,
                                  ColumnCodec::kAuto};
const double kHitRates[] = {0.0, 0.15, 0.5, 1.0};
const int kWidths[] = {1, 2, 8};

// Ids below kUniverse; the probe value and the marked ids are the hits.
constexpr uint64_t kUniverse = 1000;
constexpr uint64_t kProbe = 7;
bool IsMarked(uint64_t v) { return v % 3 == 0; }

// Three morsels and a partial one, so wide contexts split every scan.
constexpr uint64_t kRows = 3 * kMorsel + 1234;

// A value that is a hit (hit) or a miss (!hit) for `marked` ids or, when
// !marked, for the probe value.
uint64_t Draw(Rng& rng, bool hit, bool marked) {
  if (!marked && hit) return kProbe;
  for (;;) {
    const uint64_t v = rng.Uniform(kUniverse);
    if ((marked ? IsMarked(v) : v == kProbe) == hit) return v;
  }
}

// kRows values in runs of 1..max_run equal values, each run a hit with
// probability `rate`, plus a run of hits and a run of misses straddling
// every morsel edge.
std::vector<uint64_t> RunsColumn(Rng& rng, double rate, size_t max_run,
                                 bool marked) {
  std::vector<uint64_t> out;
  out.reserve(kRows);
  while (out.size() < kRows) {
    const uint64_t v = Draw(rng, rng.Chance(rate), marked);
    const size_t len = 1 + rng.Uniform(max_run);
    out.insert(out.end(), std::min(len, kRows - out.size()), v);
  }
  for (uint64_t edge = kMorsel; edge < kRows; edge += kMorsel) {
    // At 0% and 100% the straddling runs keep the rate exact.
    const bool hit = rate >= 1.0 || (rate > 0.0 && (edge / kMorsel) % 2 == 0);
    std::fill(out.begin() + static_cast<ptrdiff_t>(edge - 5),
              out.begin() + static_cast<ptrdiff_t>(edge + 5),
              Draw(rng, hit, marked));
  }
  return out;
}

// An ascending selection: each row with probability 3/4 (more than two
// morsels of positions), always including the first and last row.
PositionVector Selection(Rng& rng) {
  PositionVector sel;
  for (uint64_t i = 0; i < kRows; ++i) {
    if (i == 0 || i + 1 == kRows || rng.Chance(0.75)) {
      sel.push_back(static_cast<uint32_t>(i));
    }
  }
  return sel;
}

using RowPred = std::function<bool(uint64_t)>;

// The oracle's positions: i in [lo, hi), or sel's entries, where pred
// holds for the value at i.
PositionVector Where(const std::vector<uint64_t>& values, uint64_t lo,
                     uint64_t hi, const RowPred& pred) {
  PositionVector out;
  for (uint64_t i = lo; i < hi; ++i) {
    if (pred(values[i])) out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}
PositionVector Where(const std::vector<uint64_t>& values,
                     const PositionVector& sel, const RowPred& pred) {
  PositionVector out;
  for (uint32_t i : sel) {
    if (pred(values[i])) out.push_back(i);
  }
  return out;
}

std::string Label(ColumnCodec codec, double rate, int width) {
  return ToString(codec) + ", hit rate " + std::to_string(rate) +
         ", width " + std::to_string(width);
}

TEST(SelectOracleTest, SelectEq) {
  Rng rng(11);
  const PositionVector sel = Selection(rng);
  const uint64_t lo = kMorsel - 3;
  const uint64_t hi = kRows - 17;
  for (double rate : kHitRates) {
    const auto raw = RunsColumn(rng, rate, 40, /*marked=*/false);
    for (ColumnCodec codec : kAllCodecs) {
      const auto enc = EncodedColumn::FromValues(raw, codec);
      const std::vector<uint64_t> values = enc.Materialize();
      ASSERT_EQ(values, raw);
      const RowPred eq = [](uint64_t v) { return v == kProbe; };
      const PositionVector whole = Where(values, 0, kRows, eq);
      const PositionVector range = Where(values, lo, hi, eq);
      const PositionVector picked = Where(values, sel, eq);
      for (int width : kWidths) {
        const exec::ExecContext ctx(width);
        const std::string at = Label(codec, rate, width);
        EXPECT_EQ(SelectEq(enc, kProbe, ctx), whole) << at;
        EXPECT_EQ(SelectEq(enc, lo, hi, kProbe, ctx), range) << at;
        EXPECT_EQ(SelectEq(enc, sel, kProbe, ctx), picked) << at;
        EXPECT_EQ(SelectEq(values, kProbe, ctx), whole) << at;
        EXPECT_EQ(SelectEq(values, sel, kProbe, ctx), picked) << at;
      }
    }
  }
}

TEST(SelectOracleTest, SelectEqValueAbsentFromColumn) {
  Rng rng(12);
  const auto raw = RunsColumn(rng, 0.0, 40, /*marked=*/false);
  for (ColumnCodec codec : kAllCodecs) {
    const auto enc = EncodedColumn::FromValues(raw, codec);
    for (int width : kWidths) {
      const exec::ExecContext ctx(width);
      // Above every id: no dictionary code, no run, no row.
      EXPECT_TRUE(SelectEq(enc, kUniverse + 5, ctx).empty()) << ToString(codec);
      EXPECT_TRUE(SelectEq(enc, 3, 3, kProbe, ctx).empty()) << ToString(codec);
    }
  }
}

TEST(SelectOracleTest, SelectMarked) {
  Rng rng(13);
  const PositionVector sel = Selection(rng);
  MarkSet marks(kUniverse);
  for (uint64_t v = 0; v < kUniverse; ++v) {
    if (IsMarked(v)) marks.Mark(v);
  }
  const RowPred marked = [](uint64_t v) { return IsMarked(v); };
  for (double rate : kHitRates) {
    const auto raw = RunsColumn(rng, rate, 40, /*marked=*/true);
    for (ColumnCodec codec : kAllCodecs) {
      const auto enc = EncodedColumn::FromValues(raw, codec);
      const std::vector<uint64_t> values = enc.Materialize();
      ASSERT_EQ(values, raw);
      const PositionVector whole = Where(values, 0, kRows, marked);
      const PositionVector picked = Where(values, sel, marked);
      for (int width : kWidths) {
        const exec::ExecContext ctx(width);
        const std::string at = Label(codec, rate, width);
        EXPECT_EQ(SelectMarked(enc, marks, ctx), whole) << at;
        EXPECT_EQ(SelectMarked(values, marks, ctx), whole) << at;
        EXPECT_EQ(SelectMarked(values, sel, marks, ctx), picked) << at;
      }
    }
  }
}

// (key, count) of the keys with a marked row: the plain loop.
std::vector<std::pair<uint64_t, uint64_t>> MarkedCounts(
    const std::vector<uint64_t>& keys, const std::vector<uint64_t>& marked) {
  std::vector<uint64_t> counts(kUniverse, 0);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (IsMarked(marked[i])) ++counts[keys[i]];
  }
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (uint64_t k = 0; k < kUniverse; ++k) {
    if (counts[k] != 0) out.emplace_back(k, counts[k]);
  }
  return out;
}

// Keys sorted in long runs (a PSO property column, which encodes as RLE)
// and unsorted keys (SPO), each against subjects at every hit rate.
TEST(SelectOracleTest, CountMarkedByKey) {
  Rng rng(14);
  MarkSet marks(kUniverse);
  for (uint64_t v = 0; v < kUniverse; ++v) {
    if (IsMarked(v)) marks.Mark(v);
  }
  std::vector<uint64_t> sorted_keys(kRows);
  for (uint64_t& k : sorted_keys) k = rng.Uniform(40);
  std::sort(sorted_keys.begin(), sorted_keys.end());
  std::vector<uint64_t> random_keys(kRows);
  for (uint64_t& k : random_keys) k = rng.Uniform(kUniverse);
  for (const auto* raw_keys : {&sorted_keys, &random_keys}) {
    for (double rate : kHitRates) {
      const auto raw_subjects = RunsColumn(rng, rate, 6, /*marked=*/true);
      for (ColumnCodec codec : kAllCodecs) {
        const auto keys = EncodedColumn::FromValues(*raw_keys, codec);
        const auto subjects = EncodedColumn::FromValues(raw_subjects, codec);
        const auto expected =
            MarkedCounts(keys.Materialize(), subjects.Materialize());
        for (int width : kWidths) {
          const exec::ExecContext ctx(width);
          EXPECT_EQ(CountMarkedByKey(keys, subjects, marks, kUniverse, ctx),
                    expected)
              << (raw_keys == &sorted_keys ? "sorted keys, " : "random keys, ")
              << Label(codec, rate, width);
        }
      }
    }
  }
}

// The helper itself, on a value type other than positions: every keep
// pattern of 6 rows, then random patterns across its block edges,
// appended after entries already in the vector.
TEST(SelectOracleTest, CompactIntoKeepsEntriesInOrder) {
  for (uint32_t pattern = 0; pattern < 64; ++pattern) {
    const auto keep = [&](uint64_t i) { return ((pattern >> i) & 1) != 0; };
    std::vector<uint64_t> expected;
    for (uint64_t i = 0; i < 6; ++i) {
      if (keep(i)) expected.push_back(10 + i);
    }
    std::vector<uint64_t> out;
    CompactInto(0, 6, keep, [](uint64_t i) { return 10 + i; }, &out);
    EXPECT_EQ(out, expected) << "pattern " << pattern;
  }
  Rng rng(15);
  for (double rate : kHitRates) {
    const uint64_t b = 3;
    const uint64_t e = 3 * kCompactBlock + 7;
    std::vector<bool> kept(e);
    for (uint64_t i = 0; i < e; ++i) kept[i] = rng.Chance(rate);
    kept[kCompactBlock - 1] = kept[kCompactBlock] = rate > 0.0;
    std::vector<uint64_t> expected = {7, 7};
    for (uint64_t i = b; i < e; ++i) {
      if (kept[i]) expected.push_back(i * 3);
    }
    std::vector<uint64_t> out = {7, 7};
    CompactInto(
        b, e, [&](uint64_t i) { return static_cast<bool>(kept[i]); },
        [](uint64_t i) { return i * 3; }, &out);
    EXPECT_EQ(out, expected) << "hit rate " << rate;
  }
}

}  // namespace
}  // namespace swan
