// google-benchmark microbenchmarks for the row store's B+tree and the two
// storage-path kernels under it: the page checksum every disk read
// verifies, and the key sort every bulk load runs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <vector>

#include "common/random.h"
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
    for (auto it = tree.Begin(); it.Valid(); it.Next()) ++count;
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

}  // namespace

BENCHMARK_MAIN();
