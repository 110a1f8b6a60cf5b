// MergeCountMatches and MergeSelectPositions against an independent
// oracle: a std::binary_search of every row's value in the keys.
//
// The inputs aim at the merge's own edges: runs of equal rows across the
// four lockstep segment splits and the parallel chunk edges, ranges short
// enough to take the forward-scan branch, keys wholly below, above or inside
// a range, and empty sides. Every case runs on the span kernel and on the
// encoded kernel under all six codecs, for the whole column and for a
// subrange with lo > 0, at widths 1, 2 and 8.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "colstore/column.h"
#include "colstore/compression.h"
#include "colstore/ops.h"
#include "common/random.h"
#include "exec/exec_context.h"

namespace swan {
namespace {

using colstore::ColumnCodec;
using colstore::EncodedColumn;
using colstore::MergeCountMatches;
using colstore::MergeSelectPositions;
using colstore::PositionVector;

const ColumnCodec kAllCodecs[] = {ColumnCodec::kRaw, ColumnCodec::kRle,
                                  ColumnCodec::kDelta, ColumnCodec::kBitPack,
                                  ColumnCodec::kDictBitPack,
                                  ColumnCodec::kAuto};

// Rows a parallel kernel hands one chunk (ops.cc's morsel).
constexpr uint64_t kChunk = 1ull << 16;

// n sorted rows from [first, first + span): runs of 1..max_run equal
// values with random gaps between them.
std::vector<uint64_t> SortedRuns(Rng& rng, size_t n, uint64_t first,
                                 uint64_t span, size_t max_run) {
  std::vector<uint64_t> out;
  out.reserve(n);
  while (out.size() < n) {
    const uint64_t v = first + rng.Uniform(span);
    const size_t len = 1 + rng.Uniform(max_run);
    out.insert(out.end(), std::min(len, n - out.size()), v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Rows [at - half, at + half) all take the value of row at - half, which
// keeps the column sorted and puts one run across position `at`.
void RunAcross(std::vector<uint64_t>& values, uint64_t at, uint64_t half) {
  if (at < half || at + half > values.size()) return;
  std::fill(values.begin() + static_cast<ptrdiff_t>(at - half),
            values.begin() + static_cast<ptrdiff_t>(at + half),
            values[at - half]);
}

// Runs across the segment splits of rows [lo, hi) and across every chunk
// edge inside it.
void RunsAcrossSplits(std::vector<uint64_t>& values, uint64_t lo,
                      uint64_t hi) {
  for (uint64_t s = 1; s < 4; ++s) {
    RunAcross(values, lo + (hi - lo) * s / 4, 3);
  }
  for (uint64_t at = lo + kChunk; at < hi; at += kChunk) {
    RunAcross(values, at, 5);
  }
}

// Sorted unique keys: each of `values`' distinct values with probability
// `hit`, plus `extra` random ids from [first, first + span).
std::vector<uint64_t> KeysFrom(Rng& rng, const std::vector<uint64_t>& values,
                               double hit, size_t extra, uint64_t first,
                               uint64_t span) {
  std::vector<uint64_t> keys;
  for (size_t i = 0; i < values.size(); ++i) {
    if ((i == 0 || values[i] != values[i - 1]) && rng.Chance(hit)) {
      keys.push_back(values[i]);
    }
  }
  for (size_t e = 0; e < extra; ++e) {
    keys.push_back(first + rng.Uniform(span));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// Checks both kernels on rows [lo, hi) of `values` against the oracle:
// the span kernel on the subspan and the encoded kernel under every
// codec, at widths 1, 2 and 8. Positions are relative to lo.
void ExpectOracle(const std::vector<uint64_t>& values, uint64_t lo,
                  uint64_t hi, const std::vector<uint64_t>& keys,
                  const std::string& what) {
  PositionVector expected;
  for (uint64_t i = lo; i < hi; ++i) {
    if (std::binary_search(keys.begin(), keys.end(), values[i])) {
      expected.push_back(static_cast<uint32_t>(i - lo));
    }
  }
  const auto sub = std::span<const uint64_t>(values).subspan(lo, hi - lo);
  std::vector<EncodedColumn> encoded;
  for (ColumnCodec codec : kAllCodecs) {
    encoded.push_back(EncodedColumn::FromValues(values, codec));
  }
  for (int width : {1, 2, 8}) {
    const exec::ExecContext ectx(width);
    const std::string at = what + " [" + std::to_string(lo) + ", " +
                           std::to_string(hi) + ") at width " +
                           std::to_string(width);
    EXPECT_EQ(MergeCountMatches(sub, keys, ectx), expected.size())
        << "span, " << at;
    EXPECT_EQ(MergeSelectPositions(sub, keys, ectx), expected)
        << "span, " << at;
    for (size_t c = 0; c < encoded.size(); ++c) {
      const std::string codec = ToString(kAllCodecs[c]);
      EXPECT_EQ(MergeCountMatches(encoded[c], lo, hi, keys, ectx),
                expected.size())
          << codec << ", " << at;
      EXPECT_EQ(MergeSelectPositions(encoded[c], lo, hi, keys, ectx),
                expected)
          << codec << ", " << at;
    }
  }
}

// The whole column and one subrange with lo > 0, with runs across the
// splits of both.
void ExpectOracleWholeAndSub(std::vector<uint64_t> values,
                             const std::vector<uint64_t>& keys, uint64_t lo,
                             uint64_t hi, const std::string& what) {
  RunsAcrossSplits(values, 0, values.size());
  RunsAcrossSplits(values, lo, hi);
  ExpectOracle(values, 0, values.size(), keys, what);
  ExpectOracle(values, lo, hi, keys, what);
}

TEST(MergeMatchOracleTest, DenseBranchAcrossSegmentSplits) {
  Rng rng(1);
  for (size_t n : {4u, 5u, 37u, 1000u, 4099u}) {
    for (double hit : {0.0, 0.1, 0.5, 1.0}) {
      const auto values = SortedRuns(rng, n, 100, n * 3, 9);
      const auto keys = KeysFrom(rng, values, hit, n / 4, 0, n * 3 + 200);
      ExpectOracleWholeAndSub(values, keys, n / 3, n - n / 5,
                              "dense n=" + std::to_string(n) +
                                  " hit=" + std::to_string(hit));
    }
  }
}

TEST(MergeMatchOracleTest, ScanBranchShortRangesManyKeys) {
  Rng rng(2);
  for (size_t n : {1u, 2u, 3u, 20u, 150u}) {
    // Keys are dense over the rows' span, so rows x 8 < keys in range.
    const auto values = SortedRuns(rng, n, 5000, 50000, 4);
    for (double hit : {0.0, 0.5, 1.0}) {
      const auto keys = KeysFrom(rng, values, hit, 20000, 4000, 52000);
      ExpectOracleWholeAndSub(values, keys, n / 2, n,
                              "scan n=" + std::to_string(n) +
                                  " hit=" + std::to_string(hit));
    }
  }
}

TEST(MergeMatchOracleTest, ParallelChunkEdges) {
  // Over three chunks, so widths 2 and 8 split the span kernel's rows
  // into chunks; long runs and the forced ones cross the chunk edges.
  Rng rng(3);
  const size_t n = 3 * kChunk + 1234;
  for (size_t max_run : {1u, 40u, 3000u}) {
    const auto values = SortedRuns(rng, n, 0, n / 2, max_run);
    const auto dense = KeysFrom(rng, values, 0.4, 1000, 0, n / 2);
    ExpectOracleWholeAndSub(values, dense, 777, n - 4321,
                            "chunks run=" + std::to_string(max_run));
  }
  // One run longer than two chunks, between unique rows: chunks that
  // hold nothing but that value.
  std::vector<uint64_t> giant;
  for (uint64_t v = 0; v < 1000; ++v) giant.push_back(v);
  giant.insert(giant.end(), 2 * kChunk + 99, 5000);
  for (uint64_t v = 5001; v < 60000; ++v) giant.push_back(v);
  std::vector<uint64_t> keys = KeysFrom(rng, giant, 0.5, 0, 0, 1);
  keys.erase(std::remove(keys.begin(), keys.end(), 5000), keys.end());
  ExpectOracleWholeAndSub(giant, keys, 500, giant.size() - 100,
                          "giant run, not keyed");
  keys.insert(std::lower_bound(keys.begin(), keys.end(), 5000), 5000);
  ExpectOracleWholeAndSub(giant, keys, 500, giant.size() - 100,
                          "giant run, keyed");
}

TEST(MergeMatchOracleTest, KeysBelowAboveAndInsideTheRange) {
  Rng rng(4);
  for (size_t n : {3u, 64u, 2000u}) {
    const auto values = SortedRuns(rng, n, 1000, 1000, 6);
    const uint64_t first = values.front(), last = values.back();
    std::vector<uint64_t> below, above, inside, around;
    for (uint64_t k = 0; k < 900; k += 3) below.push_back(k);
    for (uint64_t k = last + 1; k < last + 900; k += 2) above.push_back(k);
    for (uint64_t k = first + 1; k < last; ++k) inside.push_back(k);
    around = below;
    around.insert(around.end(), above.begin(), above.end());
    const std::string at = " n=" + std::to_string(n);
    ExpectOracleWholeAndSub(values, below, 1, n, "below" + at);
    ExpectOracleWholeAndSub(values, above, 1, n, "above" + at);
    ExpectOracleWholeAndSub(values, inside, 1, n, "inside" + at);
    ExpectOracleWholeAndSub(values, around, 1, n, "around" + at);
    ExpectOracleWholeAndSub(values, {first}, 1, n, "first" + at);
    ExpectOracleWholeAndSub(values, {last}, 1, n, "last" + at);
  }
}

TEST(MergeMatchOracleTest, EmptySides) {
  Rng rng(5);
  const auto values = SortedRuns(rng, 500, 0, 800, 5);
  const auto keys = KeysFrom(rng, values, 0.5, 0, 0, 1);
  // No keys; no rows (an empty subrange, and an empty column).
  ExpectOracle(values, 0, values.size(), {}, "no keys");
  ExpectOracle(values, 123, 123, keys, "empty range");
  ExpectOracle(values, values.size(), values.size(), keys, "empty tail");
  const std::vector<uint64_t> none;
  for (int width : {1, 2, 8}) {
    const exec::ExecContext ectx(width);
    EXPECT_EQ(MergeCountMatches(none, keys, ectx), 0u);
    EXPECT_TRUE(MergeSelectPositions(none, keys, ectx).empty());
  }
}

}  // namespace
}  // namespace swan
