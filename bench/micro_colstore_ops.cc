// google-benchmark microbenchmarks for the column-store operator kernels.

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "colstore/column.h"
#include "colstore/compression.h"
#include "colstore/ops.h"
#include "common/random.h"

namespace {

using swan::Rng;
using swan::colstore::ColumnCodec;
using swan::colstore::CountByKeyDense;
using swan::colstore::CountMarkedByKey;
using swan::colstore::CountPairs;
using swan::colstore::EncodedColumn;
using swan::colstore::MarkSet;
using swan::colstore::MergeCountMatches;
using swan::colstore::MergeJoin;
using swan::colstore::MergeSelectPositions;
using swan::colstore::PositionVector;
using swan::colstore::SelectEq;
using swan::colstore::SelectMarked;

std::vector<uint64_t> RandomColumn(size_t n, uint64_t universe,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> out(n);
  for (auto& v : out) v = rng.Uniform(universe);
  return out;
}

// The RLE-friendly shape: a sorted low-cardinality column (the PSO
// property column), as both its encoded image and its raw values.
std::vector<uint64_t> SortedRunColumn(size_t n, uint64_t cardinality,
                                      uint64_t seed) {
  auto out = RandomColumn(n, cardinality, seed);
  std::sort(out.begin(), out.end());
  return out;
}

void BM_SelectEq(benchmark::State& state) {
  const auto col = RandomColumn(state.range(0), 100, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectEq(col, 7));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SelectEq)->Range(1 << 10, 1 << 20);

void BM_CountByKeyDense(benchmark::State& state) {
  const auto col = RandomColumn(state.range(0), 1 << 16, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountByKeyDense(col, 1 << 16));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CountByKeyDense)->Range(1 << 10, 1 << 20);

// q3's shape at 200k triples (seed 42): about 35k (property, object)
// pairs of the Text-typed subjects in about 19k groups, of which about 400
// reach HAVING count > 1; the property ids are below 222 and the object
// ids below the dictionary size, ~120k.
// Pairs arrive subject by subject: each subject's (type, Text) pair, two
// pairs with nearly unique objects and, for half of them, one of two
// properties with an object from a shared pool of 200. Args: width, then
// 0 for that subject order (an SPO scan) or 1 for the pairs grouped by
// property (a PSO scan or one partition after another).
void BM_CountPairsQ3(benchmark::State& state) {
  constexpr uint64_t kDict = 119430;
  constexpr uint64_t kType = 0;
  constexpr uint64_t kText = 223;
  Rng rng(3);
  std::vector<uint64_t> pool(200);
  for (uint64_t& o : pool) o = kText + 1 + rng.Uniform(kDict - kText - 1);
  std::vector<uint64_t> a;
  std::vector<uint64_t> b;
  const auto add = [&](uint64_t p, uint64_t o) {
    a.push_back(p);
    b.push_back(o);
  };
  while (a.size() < 35000) {
    add(kType, kText);
    add(1 + rng.Uniform(14), kText + 1 + rng.Uniform(kDict - kText - 1));
    add(15 + rng.Uniform(14), kText + 1 + rng.Uniform(kDict - kText - 1));
    if (rng.Uniform(2) == 0) add(29 + rng.Uniform(2), pool[rng.Uniform(200)]);
  }
  if (state.range(1) == 1) {
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    for (size_t i = 0; i < a.size(); ++i) pairs.emplace_back(a[i], b[i]);
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const auto& x, const auto& y) {
                       return x.first < y.first;
                     });
    for (size_t i = 0; i < a.size(); ++i) {
      a[i] = pairs[i].first;
      b[i] = pairs[i].second;
    }
  }
  const swan::exec::ExecContext ctx(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountPairs(a, b, kDict, 2, ctx));
  }
  state.counters["groups"] =
      static_cast<double>(CountPairs(a, b, kDict, 1, ctx).size());
  state.counters["having_groups"] =
      static_cast<double>(CountPairs(a, b, kDict, 2, ctx).size());
  state.SetItemsProcessed(state.iterations() * a.size());
}
BENCHMARK(BM_CountPairsQ3)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->UseRealTime();

void BM_MergeJoin(benchmark::State& state) {
  auto left = RandomColumn(state.range(0), state.range(0) * 4, 5);
  auto right = RandomColumn(state.range(0), state.range(0) * 4, 6);
  std::sort(left.begin(), left.end());
  std::sort(right.begin(), right.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergeJoin(left, right));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_MergeJoin)->Range(1 << 10, 1 << 18);

// Encoded-kernel vs decode-then-raw: the tentpole claim is that running
// directly on the compressed image at least matches first materializing
// the column and then running the span kernel over it.

void BM_SelectEqEncodedRle(benchmark::State& state) {
  const auto values = SortedRunColumn(state.range(0), 100, 9);
  const auto enc = EncodedColumn::FromValues(values, ColumnCodec::kRle);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectEq(enc, 7));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SelectEqEncodedRle)->Range(1 << 10, 1 << 20);

void BM_SelectEqDecodeThenRaw(benchmark::State& state) {
  const auto values = SortedRunColumn(state.range(0), 100, 9);
  const auto enc = EncodedColumn::FromValues(values, ColumnCodec::kRle);
  for (auto _ : state) {
    const std::vector<uint64_t> decoded = enc.Materialize();
    benchmark::DoNotOptimize(SelectEq(decoded, 7));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SelectEqDecodeThenRaw)->Range(1 << 10, 1 << 20);

void BM_SelectEqEncodedBitPack(benchmark::State& state) {
  const auto values = RandomColumn(state.range(0), 100, 10);
  const auto enc = EncodedColumn::FromValues(values, ColumnCodec::kBitPack);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectEq(enc, 7));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SelectEqEncodedBitPack)->Range(1 << 10, 1 << 20);

// The `<type> <Text>` subject filter at 200k triples (seed 42): 46k
// bit-packed object ids of the type rows, about 15% of them Text, so a
// branch on the hit would mispredict. Arg 0 = the range form over the
// rows (the vertical partition, triple PSO's property range), 1 = the
// positional form over a selection of every row.
void BM_SelectEqTypePartition(benchmark::State& state) {
  constexpr uint64_t kText = 223;
  constexpr size_t kRows = 46000;
  Rng rng(14);
  std::vector<uint64_t> values(kRows);
  for (uint64_t& v : values) {
    v = rng.Chance(0.15) ? kText : 200 + rng.Uniform(22);
  }
  const auto enc = EncodedColumn::FromValues(values, ColumnCodec::kBitPack);
  PositionVector all(kRows);
  for (size_t i = 0; i < kRows; ++i) all[i] = static_cast<uint32_t>(i);
  const swan::exec::ExecContext ctx(1);
  for (auto _ : state) {
    if (state.range(0) == 0) {
      benchmark::DoNotOptimize(SelectEq(enc, 0, kRows, kText, ctx));
    } else {
      benchmark::DoNotOptimize(SelectEq(enc, all, kText, ctx));
    }
  }
  state.counters["hits"] =
      static_cast<double>(SelectEq(enc, kText, ctx).size());
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_SelectEqTypePartition)->Arg(0)->Arg(1);

// Triple q8's object probe at 200k triples: a select of the marked ids
// over a bit-packed object column of 200k rows (ids below 120k), at a
// hit rate of arg percent of the rows.
void BM_SelectMarkedEncoded(benchmark::State& state) {
  constexpr uint64_t kDict = 120000;
  constexpr size_t kRows = 200000;
  const auto values = RandomColumn(kRows, kDict, 15);
  MarkSet marks(kDict);
  Rng rng(16);
  for (uint64_t id = 0; id < kDict; ++id) {
    if (rng.Uniform(100) < static_cast<uint64_t>(state.range(0))) {
      marks.Mark(id);
    }
  }
  const auto enc = EncodedColumn::FromValues(values, ColumnCodec::kBitPack);
  const swan::exec::ExecContext ctx(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectMarked(enc, marks, ctx));
  }
  state.counters["hits"] =
      static_cast<double>(SelectMarked(enc, marks, ctx).size());
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_SelectMarkedEncoded)->Arg(1)->Arg(15)->Arg(50);

void BM_MergeJoinEncodedRle(benchmark::State& state) {
  auto left = RandomColumn(state.range(0) / 4, state.range(0) / 64 + 2, 11);
  std::sort(left.begin(), left.end());
  const auto right =
      SortedRunColumn(state.range(0), state.range(0) / 64 + 2, 12);
  const auto enc = EncodedColumn::FromValues(right, ColumnCodec::kRle);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergeJoin(left, enc, 0, enc.size()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MergeJoinEncodedRle)->Range(1 << 10, 1 << 18);

void BM_MergeJoinDecodeThenRaw(benchmark::State& state) {
  auto left = RandomColumn(state.range(0) / 4, state.range(0) / 64 + 2, 11);
  std::sort(left.begin(), left.end());
  const auto right =
      SortedRunColumn(state.range(0), state.range(0) / 64 + 2, 12);
  const auto enc = EncodedColumn::FromValues(right, ColumnCodec::kRle);
  for (auto _ : state) {
    const std::vector<uint64_t> decoded = enc.Materialize();
    benchmark::DoNotOptimize(MergeJoin(left, decoded));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MergeJoinDecodeThenRaw)->Range(1 << 10, 1 << 18);

void BM_CountByKeyDenseEncodedRle(benchmark::State& state) {
  const auto values = SortedRunColumn(state.range(0), 222, 13);
  const auto enc = EncodedColumn::FromValues(values, ColumnCodec::kRle);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountByKeyDense(enc, 1 << 16));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CountByKeyDenseEncodedRle)->Range(1 << 10, 1 << 20);

void BM_MergeCountMatches(benchmark::State& state) {
  auto values = RandomColumn(state.range(0), state.range(0) * 2, 7);
  auto keys = RandomColumn(state.range(0) / 4, state.range(0) * 2, 8);
  std::sort(values.begin(), values.end());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergeCountMatches(values, keys));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MergeCountMatches)->Range(1 << 10, 1 << 18);

// The two shapes q2's per-partition merge meets in the vertical store at
// 200k triples (seed 42): a filter of about 6.9k subjects against a dense
// partition of 46k rows (arg 0, the lockstep merge) and against a small
// one of 20 rows (arg 1, the forward scan), over 60k subject ids.
void BM_MergeCountMatchesVertical(benchmark::State& state) {
  const size_t rows = state.range(0) == 0 ? 46000 : 20;
  const auto values = SortedRunColumn(rows, 60000, 9);
  std::vector<uint64_t> keys;
  Rng rng(10);
  for (uint64_t id = 0; id < 60000; ++id) {
    if (rng.Chance(0.115)) keys.push_back(id);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergeCountMatches(values, keys));
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_MergeCountMatchesVertical)->Arg(0)->Arg(1);

// The subject-filter selects of the vertical store's q3, q5 and q7 at
// 200k triples (seed 42), one select call per (partition rows, filter
// subjects) pair below, in the order the queries make them, over 60k
// subject ids. Arg = the query. `select(values, keys)` is the kernel under
// test. Reports ns/row (items) and the minor page faults per iteration
// (getrusage), which a per-call heap buffer would show.
constexpr uint64_t kVerticalSubjects = 60000;

template <typename Select>
void RunVerticalSelects(benchmark::State& state, const Select& select) {
  static const std::map<int, std::vector<std::pair<size_t, double>>> kCalls = {
      {3,
       {{46166, 6864}, {28643, 6864}, {16565, 6864}, {11712, 6864},
        {9453, 6864},  {7679, 6864},  {6586, 6864},  {5977, 6864},
        {5370, 6864},  {4990, 6864},  {4528, 6864},  {4115, 6864},
        {3807, 6864},  {3688, 6864},  {3499, 6864},  {3281, 6864},
        {2977, 6864},  {2999, 6864},  {2847, 6864},  {2649, 6864},
        {2646, 6864},  {2532, 6864},  {2383, 6864},  {2391, 6864},
        {2173, 6864},  {2125, 6864},  {2087, 6864},  {2038, 6864}}},
      {5, {{16565, 2312}, {46166, 836}}},
      {7, {{4528, 1934}, {46166, 1934}}},
  };
  std::vector<std::vector<uint64_t>> values;
  std::vector<std::vector<uint64_t>> keys;
  uint64_t rows = 0;
  Rng rng(11);
  for (const auto& [n, key_count] : kCalls.at(state.range(0))) {
    values.push_back(SortedRunColumn(n, kVerticalSubjects, rng.Next()));
    keys.emplace_back();
    for (uint64_t id = 0; id < kVerticalSubjects; ++id) {
      if (rng.Chance(key_count / kVerticalSubjects)) keys.back().push_back(id);
    }
    rows += n;
  }
  struct rusage before;
  getrusage(RUSAGE_SELF, &before);
  for (auto _ : state) {
    for (size_t c = 0; c < values.size(); ++c) {
      benchmark::DoNotOptimize(select(values[c], keys[c]));
    }
  }
  struct rusage after;
  getrusage(RUSAGE_SELF, &after);
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["minflt_per_iter"] =
      static_cast<double>(after.ru_minflt - before.ru_minflt) /
      static_cast<double>(state.iterations());
}

// The sorted merge the vertical store's q3/q4 pair collection runs.
void BM_MergeSelectVertical(benchmark::State& state) {
  RunVerticalSelects(state, [](const std::vector<uint64_t>& values,
                               const std::vector<uint64_t>& keys) {
    return MergeSelectPositions(values, keys);
  });
}
BENCHMARK(BM_MergeSelectVertical)->Arg(3)->Arg(5)->Arg(7);

// The bitmap select a Match pattern step with a subject id set runs
// (q5/q7's pair step), the MarkSet built from the keys inside the timed
// loop as the step builds it.
void BM_SelectMarkedVertical(benchmark::State& state) {
  RunVerticalSelects(state, [](const std::vector<uint64_t>& values,
                               const std::vector<uint64_t>& keys) {
    MarkSet set(kVerticalSubjects);
    set.MarkAll(keys);
    return SelectMarked(values, set);
  });
}
BENCHMARK(BM_SelectMarkedVertical)->Arg(3)->Arg(5)->Arg(7);

// Triple PSO's counterpart of the merge above, q2's property count at
// 400k triples: 400k rows over 222 properties, each property's subjects
// sorted, ids below 240k, about 13.8k marked subjects among 92k. Arg 0 =
// the PSO shape, properties in RLE runs (one counter per run); 1 = the
// properties bit-packed in subject order (the SPO shape, a counter per
// row).
void BM_CountMarkedByKey(benchmark::State& state) {
  constexpr uint64_t kDict = 240000;
  constexpr uint64_t kSubjects = 92000;
  constexpr size_t kRows = 400000;
  Rng rng(17);
  std::vector<std::pair<uint64_t, uint64_t>> rows(kRows);
  for (auto& [p, s] : rows) {
    p = std::min<uint64_t>(rng.Uniform(64) * rng.Uniform(64) / 18, 221);
    s = rng.Uniform(kSubjects);
  }
  if (state.range(0) == 0) {
    std::sort(rows.begin(), rows.end());
  } else {
    std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
      return std::pair(x.second, x.first) < std::pair(y.second, y.first);
    });
  }
  std::vector<uint64_t> props(kRows);
  std::vector<uint64_t> subjects(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    props[i] = rows[i].first;
    subjects[i] = rows[i].second;
  }
  MarkSet marks(kDict);
  for (uint64_t id = 0; id < kSubjects; ++id) {
    if (rng.Chance(0.15)) marks.Mark(id);
  }
  const auto keys = EncodedColumn::FromValues(
      props, state.range(0) == 0 ? ColumnCodec::kRle : ColumnCodec::kBitPack);
  const auto marked =
      EncodedColumn::FromValues(subjects, ColumnCodec::kBitPack);
  const swan::exec::ExecContext ctx(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountMarkedByKey(keys, marked, marks, kDict, ctx));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_CountMarkedByKey)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
