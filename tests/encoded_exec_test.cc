// Compressed execution equivalence and encoded-kernel unit tests.
//
// The system-level property: every codec must be invisible to query
// results. All 12 benchmark queries run under every codec on both column
// backends at thread widths 1 and 8, compared against the row reference —
// and the answers must be bit-identical at any width because the encoded
// kernels align parallel chunk boundaries to run/pack-word edges.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "bench_support/barton_generator.h"
#include "bench_support/designs.h"
#include "bench_support/harness.h"
#include "colstore/column.h"
#include "colstore/ops.h"
#include "core/col_backends.h"
#include "core/reference_backend.h"
#include "exec/exec_context.h"

namespace swan {
namespace {

using bench_support::BartonConfig;
using bench_support::GenerateBarton;
using bench_support::MakeBartonContext;
using colstore::ColumnCodec;
using colstore::CountByKeyDense;
using colstore::CountPairs;
using colstore::EncodedColumn;
using colstore::EqRangeSorted;
using colstore::Gather;
using colstore::MarkSet;
using colstore::MergeCountMatches;
using colstore::MergeJoin;
using colstore::MergeSelectPositions;
using colstore::PairCount;
using colstore::PositionVector;
using colstore::SelectEq;
using colstore::SelectMarked;
using core::QueryId;

const ColumnCodec kAllCodecs[] = {ColumnCodec::kRaw, ColumnCodec::kRle,
                                  ColumnCodec::kDelta, ColumnCodec::kBitPack,
                                  ColumnCodec::kDictBitPack,
                                  ColumnCodec::kAuto};

class CodecEquivalenceTest : public ::testing::TestWithParam<ColumnCodec> {};

TEST_P(CodecEquivalenceTest, AllQueriesMatchReferenceAtEveryThreadWidth) {
  BartonConfig config;
  config.target_triples = 30000;
  config.seed = 7;
  const auto barton = GenerateBarton(config);
  const rdf::Dataset& data = barton.dataset;
  const core::QueryContext ctx = MakeBartonContext(data, 28);

  // Every column design, on one node and sharded, in this codec.
  core::ReferenceBackend reference(data);
  const auto backends = bench_support::OpenDesignsWhere(
      data,
      [](const core::StoreOptions& options) {
        return options.engine == core::EngineKind::kColumnStore;
      },
      GetParam());

  for (int threads : {1, 8}) {
    const exec::ExecContext ectx(threads);
    for (QueryId id : core::AllQueries()) {
      core::QueryResult expected = reference.Run(id, ctx, ectx);
      expected.Normalize();  // Results are bags; ordering is not semantic.
      for (const auto& backend : backends) {
        core::QueryResult got = backend->Run(id, ctx, ectx);
        got.Normalize();
        EXPECT_EQ(got.rows, expected.rows)
            << backend->name() << ", " << ToString(id) << " at " << threads
            << " threads";
      }
    }
  }
}

TEST_P(CodecEquivalenceTest, ColdRunsSurviveCacheDrops) {
  BartonConfig config;
  config.target_triples = 20000;
  config.seed = 11;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);

  core::ColTripleBackend pso(barton.dataset, rdf::TripleOrder::kPSO, {}, 4096,
                             GetParam());
  for (QueryId id : core::AllQueries()) {
    const core::QueryResult hot = pso.Run(id, ctx);
    pso.DropCaches();
    const core::QueryResult cold = pso.Run(id, ctx);
    EXPECT_EQ(hot.rows, cold.rows) << ToString(id);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecEquivalenceTest,
                         ::testing::ValuesIn(kAllCodecs),
                         [](const ::testing::TestParamInfo<ColumnCodec>& info) {
                           return ToString(info.param);
                         });

// ---------------------------------------------------------------------------
// Encoded-kernel unit tests: each kernel against its span twin.

std::vector<uint64_t> RunColumn(size_t runs, size_t run_len) {
  std::vector<uint64_t> out;
  for (uint64_t r = 0; r < runs; ++r) {
    out.insert(out.end(), run_len + (r % 3), r * 5 + 2);
  }
  return out;
}

class EncodedKernelTest : public ::testing::TestWithParam<ColumnCodec> {};

TEST_P(EncodedKernelTest, SelectEqMatchesSpanKernel) {
  const auto values = RunColumn(97, 40);
  const EncodedColumn enc = EncodedColumn::FromValues(values, GetParam());
  for (int threads : {1, 8}) {
    const exec::ExecContext ectx(threads);
    for (uint64_t probe : {2ull, 52ull, 477ull, 999ull}) {
      EXPECT_EQ(SelectEq(enc, probe, ectx), SelectEq(values, probe, ectx))
          << "value " << probe << " at " << threads << " threads";
    }
  }
}

TEST_P(EncodedKernelTest, RangedSelectEqMatchesSpanKernel) {
  const auto values = RunColumn(97, 40);
  const EncodedColumn enc = EncodedColumn::FromValues(values, GetParam());
  const uint64_t n = values.size();
  // Empty, run-straddling, single-row and whole-column ranges.
  const std::vector<std::pair<uint64_t, uint64_t>> ranges = {
      {0, 0}, {0, n}, {17, 95}, {40, 41}, {n - 3, n}, {1000, 2300}};
  for (const auto& [lo, hi] : ranges) {
    for (uint64_t probe : {2ull, 52ull, 477ull, 999ull}) {
      PositionVector want;
      for (uint32_t p : SelectEq(values, probe)) {
        if (p >= lo && p < hi) want.push_back(p);
      }
      EXPECT_EQ(SelectEq(enc, lo, hi, probe), want)
          << "value " << probe << " in [" << lo << ", " << hi << ")";
    }
  }
}

TEST_P(EncodedKernelTest, EqRangeSortedMatchesSpanKernel) {
  auto values = RunColumn(97, 40);
  std::sort(values.begin(), values.end());
  const EncodedColumn enc = EncodedColumn::FromValues(values, GetParam());
  // Present values, absent values between runs, and both extremes.
  for (uint64_t probe : {0ull, 2ull, 3ull, 52ull, 477ull, 5000ull}) {
    EXPECT_EQ(EqRangeSorted(enc, probe), EqRangeSorted(values, probe))
        << "value " << probe;
  }
}

TEST_P(EncodedKernelTest, GatherMatchesSpanKernel) {
  const auto values = RunColumn(53, 17);
  const EncodedColumn enc = EncodedColumn::FromValues(values, GetParam());
  PositionVector sel;
  for (uint32_t i = 0; i < values.size(); i += 7) sel.push_back(i);
  for (int threads : {1, 8}) {
    const exec::ExecContext ectx(threads);
    EXPECT_EQ(Gather(enc, sel, ectx), Gather(values, sel, ectx));
  }
}

TEST_P(EncodedKernelTest, CountByKeyDenseMatchesSpanKernel) {
  const auto values = RunColumn(61, 23);
  const EncodedColumn enc = EncodedColumn::FromValues(values, GetParam());
  for (int threads : {1, 8}) {
    const exec::ExecContext ectx(threads);
    EXPECT_EQ(CountByKeyDense(enc, 1024, ectx),
              CountByKeyDense(values, 1024, ectx));
  }
}

TEST_P(EncodedKernelTest, SelectMarkedMatchesSpanKernel) {
  const auto values = RunColumn(61, 23);
  const EncodedColumn enc = EncodedColumn::FromValues(values, GetParam());
  MarkSet set(1024);
  for (uint64_t v = 2; v < 1024; v += 15) set.Mark(v);
  for (int threads : {1, 8}) {
    const exec::ExecContext ectx(threads);
    EXPECT_EQ(SelectMarked(enc, set, ectx), SelectMarked(values, set, ectx));
  }
}

// The column engines gather the selected rows' (property, object) pairs
// from encoded columns and count them with CountPairs: under every codec
// the groups must be a std::map count of the same rows.
TEST_P(EncodedKernelTest, CountPairsOfGatheredRowsMatchesMapCount) {
  const auto a = RunColumn(31, 47);
  auto b = RunColumn(31, 47);
  std::reverse(b.begin(), b.end());
  b.resize(a.size(), 3);
  const EncodedColumn ea = EncodedColumn::FromValues(a, GetParam());
  const EncodedColumn eb = EncodedColumn::FromValues(b, GetParam());
  PositionVector sel;
  for (uint32_t i = 0; i < a.size(); i += 3) sel.push_back(i);
  for (uint64_t min_count : {1, 2}) {
    std::map<std::pair<uint64_t, uint64_t>, uint64_t> counts;
    for (uint32_t i : sel) ++counts[{a[i], b[i]}];
    std::vector<PairCount> want;
    for (const auto& [key, count] : counts) {
      if (count >= min_count) want.push_back({key.first, key.second, count});
    }
    for (int threads : {1, 8}) {
      const exec::ExecContext ectx(threads);
      const auto got = CountPairs(Gather(ea, sel, ectx), Gather(eb, sel, ectx),
                                  1024, min_count, ectx);
      ASSERT_EQ(got.size(), want.size()) << threads << " threads";
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].a, want[i].a);
        EXPECT_EQ(got[i].b, want[i].b);
        EXPECT_EQ(got[i].count, want[i].count);
      }
    }
  }
}

TEST_P(EncodedKernelTest, MergeJoinMatchesSpanKernelIncludingSubranges) {
  auto right = RunColumn(83, 29);
  std::sort(right.begin(), right.end());
  std::vector<uint64_t> left;
  for (uint64_t v = 0; v < 450; v += 3) left.push_back(v);
  const EncodedColumn enc = EncodedColumn::FromValues(right, GetParam());
  for (int threads : {1, 8}) {
    const exec::ExecContext ectx(threads);
    // Whole column.
    const auto expected = MergeJoin(
        left, std::span<const uint64_t>(right), ectx);
    EXPECT_EQ(MergeJoin(left, enc, 0, enc.size(), ectx), expected);
    // Subrange: encoded indices must come back relative to rlo.
    const uint64_t rlo = 101, rhi = right.size() - 57;
    const auto sub = std::span<const uint64_t>(right).subspan(rlo, rhi - rlo);
    EXPECT_EQ(MergeJoin(left, enc, rlo, rhi, ectx),
              MergeJoin(left, sub, ectx));
  }
}

TEST_P(EncodedKernelTest, MergeCountAndSelectMatchSpanKernels) {
  auto values = RunColumn(83, 29);
  std::sort(values.begin(), values.end());
  std::vector<uint64_t> keys;
  for (uint64_t v = 2; v < 450; v += 10) keys.push_back(v);
  const EncodedColumn enc = EncodedColumn::FromValues(values, GetParam());
  const uint64_t lo = 37, hi = values.size() - 19;
  const auto sub = std::span<const uint64_t>(values).subspan(lo, hi - lo);
  const exec::ExecContext ectx(1);
  EXPECT_EQ(MergeCountMatches(enc, lo, hi, keys, ectx),
            MergeCountMatches(sub, keys, ectx));
  EXPECT_EQ(MergeSelectPositions(enc, lo, hi, keys, ectx),
            MergeSelectPositions(sub, keys, ectx));
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, EncodedKernelTest,
                         ::testing::ValuesIn(kAllCodecs),
                         [](const ::testing::TestParamInfo<ColumnCodec>& info) {
                           return ToString(info.param);
                         });

// Chunk-boundary invariant: parallel encoded kernels must return exactly
// the serial answer even when run lengths straddle morsel edges.
TEST(EncodedExecTest, ChunkBoundariesAlignToRuns) {
  // One giant run crossing several 64K morsels, then ragged small runs,
  // ascending so the merge-join precondition holds.
  std::vector<uint64_t> values(3 << 16, 42);
  for (uint64_t r = 0; r < 5000; ++r) {
    values.insert(values.end(), 1 + r % 7, 100 + r / 40);
  }
  const EncodedColumn enc =
      EncodedColumn::FromValues(values, ColumnCodec::kRle);
  const exec::ExecContext serial(1);
  const exec::ExecContext wide(8);
  EXPECT_EQ(SelectEq(enc, 42, wide), SelectEq(enc, 42, serial));
  EXPECT_EQ(CountByKeyDense(enc, 512, wide), CountByKeyDense(enc, 512,
                                                             serial));
  std::vector<uint64_t> left = {42, 103, 111};
  EXPECT_EQ(MergeJoin(left, enc, 0, enc.size(), wide),
            MergeJoin(left, enc, 0, enc.size(), serial));
}

}  // namespace
}  // namespace swan
