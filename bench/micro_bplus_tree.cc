// google-benchmark microbenchmarks for the row store's B+tree, the two
// storage-path kernels under it (the page checksum every disk read
// verifies, and the key sort every bulk load runs), and the row engine's
// hot path above it: a whole hot q3, the id hash probe its full scan runs
// per triple, and the leaf-at-a-time scans behind Backend::Match.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_support/barton_generator.h"
#include "common/id_hash.h"
#include "common/random.h"
#include "core/row_backends.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"
#include "rdf/triple.h"
#include "rowstore/bplus_tree.h"

namespace {

using Tree = swan::rowstore::BPlusTree<3>;

std::vector<Tree::Key> SortedKeys(size_t n) {
  std::vector<Tree::Key> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = {static_cast<uint64_t>(i), i * 2, i * 3};
  }
  return keys;
}

void BM_BulkLoad(benchmark::State& state) {
  const auto keys = SortedKeys(state.range(0));
  for (auto _ : state) {
    swan::storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
    swan::storage::BufferPool pool(&disk, 1 << 15);  // swan-lint: allow(node-disk)
    Tree tree(&pool, &disk);
    tree.BulkLoad(keys);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BulkLoad)->Range(1 << 12, 1 << 18);

void BM_PointLookupHot(benchmark::State& state) {
  swan::storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  swan::storage::BufferPool pool(&disk, 1 << 15);  // swan-lint: allow(node-disk)
  Tree tree(&pool, &disk);
  const size_t n = state.range(0);
  tree.BulkLoad(SortedKeys(n));
  swan::Rng rng(9);
  for (auto _ : state) {
    const uint64_t i = rng.Uniform(n);
    benchmark::DoNotOptimize(tree.Contains({i, i * 2, i * 3}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointLookupHot)->Range(1 << 12, 1 << 18);

void BM_FullScanHot(benchmark::State& state) {
  swan::storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  swan::storage::BufferPool pool(&disk, 1 << 15);  // swan-lint: allow(node-disk)
  Tree tree(&pool, &disk);
  tree.BulkLoad(SortedKeys(state.range(0)));
  for (auto _ : state) {
    uint64_t count = 0;
    tree.Walk({}, [&](const swan::rowstore::LeafKeys<3>& keys) {
      count += keys.size();
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullScanHot)->Range(1 << 12, 1 << 18);

void BM_InsertRandom(benchmark::State& state) {
  swan::Rng rng(11);
  for (auto _ : state) {
    state.PauseTiming();
    swan::storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
    swan::storage::BufferPool pool(&disk, 1 << 15);  // swan-lint: allow(node-disk)
    Tree tree(&pool, &disk);
    tree.BulkLoad({});
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      tree.Insert({rng.Next(), rng.Next(), 0});
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InsertRandom)->Range(1 << 10, 1 << 14);

void BM_PageChecksum(benchmark::State& state) {
  swan::Rng rng(5);
  std::vector<uint64_t> page(swan::storage::kPageSize / sizeof(uint64_t));
  for (uint64_t& word : page) word = rng.Next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        swan::storage::SimulatedDisk::PageChecksum(page.data()));
  }
  state.SetBytesProcessed(state.iterations() * swan::storage::kPageSize);
}
BENCHMARK(BM_PageChecksum);

// Triple keys shaped like a PSO load: ~200 properties, subject and object
// ids dense up to the key count.
std::vector<Tree::Key> UnsortedKeys(size_t n) {
  swan::Rng rng(13);
  std::vector<Tree::Key> keys(n);
  for (auto& key : keys) {
    key = {rng.Uniform(200), rng.Uniform(n), rng.Uniform(n)};
  }
  return keys;
}

// Arg 1 = rdf::SortKeys (radix), 0 = std::sort.
void BM_SortKeys(benchmark::State& state) {
  const auto unsorted = UnsortedKeys(state.range(0));
  const bool radix = state.range(1) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto keys = unsorted;
    state.ResumeTiming();
    if (radix) {
      swan::rdf::SortKeys(&keys);
    } else {
      std::sort(keys.begin(), keys.end());
    }
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortKeys)->ArgsProduct({{1 << 12, 1 << 15, 1 << 18}, {0, 1}});

// A 200k-triple generated Barton dataset loaded into DBX triple PSO, built
// once for the row-engine benchmarks.
struct RowEngineFixture {
  RowEngineFixture()
      : barton(swan::bench_support::GenerateBarton(Config())),
        ctx(swan::bench_support::MakeBartonContext(barton.dataset, 28)),
        backend(barton.dataset, swan::rowstore::TripleRelation::PsoConfig()) {}

  static swan::bench_support::BartonConfig Config() {
    swan::bench_support::BartonConfig config;
    config.target_triples = 200000;
    return config;
  }

  swan::bench_support::BartonDataset barton;
  swan::core::QueryContext ctx;
  swan::core::RowTripleBackend backend;
};

RowEngineFixture& RowEngine() {
  static RowEngineFixture* fixture = new RowEngineFixture();
  return *fixture;
}

// The row engine's hot q3 (Text-typed subjects, then a full scan that
// group-counts their (property, object) pairs), at width arg 0; wall time,
// since width 2 runs on pool lanes.
void BM_RowEngineQ3Hot(benchmark::State& state) {
  RowEngineFixture& fixture = RowEngine();
  const int width = static_cast<int>(state.range(0));
  swan::exec::SetThreads(width);
  const swan::exec::ExecContext ectx(width);
  (void)fixture.backend.Run(swan::core::QueryId::kQ3, fixture.ctx, ectx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.backend.Run(swan::core::QueryId::kQ3, fixture.ctx, ectx));
  }
  state.SetItemsProcessed(state.iterations() *
                          fixture.barton.dataset.triples().size());
}
BENCHMARK(BM_RowEngineQ3Hot)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The id that occurs most often as `field(t)` over the triples `t` for
// which `keep(t)` holds.
template <typename Keep, typename Field>
uint64_t MostFrequent(const swan::rdf::Dataset& data, const Keep& keep,
                      const Field& field) {
  std::unordered_map<uint64_t, uint64_t> counts;
  for (const swan::rdf::Triple& t : data.triples()) {
    if (keep(t)) ++counts[field(t)];
  }
  return std::max_element(counts.begin(), counts.end(),
                          [](const auto& a, const auto& b) {
                            return a.second < b.second;
                          })
      ->first;
}

// Backend::Match on the row engine, hot, at width 1. Arg 0 =
// `?s <type> <class>` for the most frequent class (a clustered prefix
// with a residual object filter); arg 1 = describing the subject with the
// most triples (`<s> ?p ?o`, which falls back to a full scan on PSO).
void BM_RowMatchScan(benchmark::State& state) {
  RowEngineFixture& fixture = RowEngine();
  const swan::rdf::Dataset& data = fixture.barton.dataset;
  const uint64_t type = fixture.ctx.vocab().type;
  swan::rdf::TriplePattern pattern;
  if (state.range(0) == 0) {
    pattern.property = type;
    pattern.object = MostFrequent(
        data, [&](const swan::rdf::Triple& t) { return t.property == type; },
        [](const swan::rdf::Triple& t) { return t.object; });
  } else {
    pattern.subject = MostFrequent(
        data, [](const swan::rdf::Triple&) { return true; },
        [](const swan::rdf::Triple& t) { return t.subject; });
  }
  const swan::exec::ExecContext ectx(1);
  uint64_t rows = 0;
  for (auto _ : state) {
    const std::vector<swan::rdf::Triple> matches =
        fixture.backend.Match(pattern, ectx);
    rows += matches.size();
    benchmark::DoNotOptimize(matches.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
}
BENCHMARK(BM_RowMatchScan)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The semi-join probe of q2-q4's full scan: every triple's subject looked
// up in the Text-typed subject set. Arg 1 = swan::IdSet, 0 =
// std::unordered_set.
void BM_SubjectSetProbe(benchmark::State& state) {
  const swan::rdf::Dataset& data = RowEngine().barton.dataset;
  const swan::core::Vocabulary& v = RowEngine().ctx.vocab();
  std::vector<uint64_t> subjects;
  for (const swan::rdf::Triple& t : data.triples()) {
    if (t.property == v.type && t.object == v.text) {
      subjects.push_back(t.subject);
    }
  }
  swan::IdSet id_set;
  for (uint64_t s : subjects) id_set.Insert(s);
  const std::unordered_set<uint64_t> std_set(subjects.begin(),
                                             subjects.end());
  const bool flat = state.range(0) != 0;
  for (auto _ : state) {
    uint64_t hits = 0;
    for (const swan::rdf::Triple& t : data.triples()) {
      hits += flat ? id_set.contains(t.subject) : std_set.count(t.subject);
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * data.triples().size());
}
BENCHMARK(BM_SubjectSetProbe)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
