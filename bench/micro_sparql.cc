// google-benchmark microbenchmarks for the SPARQL front-end: parse
// throughput, end-to-end execution over a small store, and the load-time
// statistics the planner and the row engine cost their plans from (built
// by every RdfStore::Open).

#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "bench_support/barton_generator.h"
#include "core/store.h"
#include "plan/stats.h"
#include "rowstore/stats.h"
#include "sparql/sparql.h"

namespace {

const char* kJoinQuery =
    "PREFIX m: <info:marcorg/>\n"
    "SELECT DISTINCT ?record ?kind\n"
    "WHERE {\n"
    "  ?record <origin> m:DLC .\n"
    "  ?record <records> ?thing .\n"
    "  ?thing <type> ?kind .\n"
    "}";

void BM_SparqlParse(benchmark::State& state) {
  for (auto _ : state) {
    auto parsed = swan::sparql::Parse(kJoinQuery);
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SparqlParse);

void BM_SparqlExecute(benchmark::State& state) {
  swan::bench_support::BartonConfig config;
  config.target_triples = static_cast<uint64_t>(state.range(0));
  const auto barton = swan::bench_support::GenerateBarton(config);
  auto store = swan::core::RdfStore::Open(barton.dataset);
  for (auto _ : state) {
    auto result =
        swan::sparql::Execute(store->backend(), barton.dataset, kJoinQuery);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SparqlExecute)->Arg(10000)->Arg(50000);

// Generated once per size: google-benchmark re-enters a benchmark function
// while it settles the iteration count.
const swan::rdf::Dataset& Generated(int64_t triples) {
  static std::map<int64_t, swan::bench_support::BartonDataset> cache;
  auto it = cache.find(triples);
  if (it == cache.end()) {
    swan::bench_support::BartonConfig config;
    config.target_triples = static_cast<uint64_t>(triples);
    it = cache.emplace(triples, swan::bench_support::GenerateBarton(config))
             .first;
  }
  return it->second.dataset;
}

void BM_StoreStatsCollect(benchmark::State& state) {
  const swan::rdf::Dataset& dataset = Generated(state.range(0));
  for (auto _ : state) {
    const auto stats = swan::plan::StoreStats::Collect(dataset);
    benchmark::DoNotOptimize(stats.by_property.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dataset.size()));
}
BENCHMARK(BM_StoreStatsCollect)
    ->Arg(20000)
    ->Arg(200000)
    ->Unit(benchmark::kMillisecond);

void BM_TripleStatsCompute(benchmark::State& state) {
  const swan::rdf::Dataset& dataset = Generated(state.range(0));
  for (auto _ : state) {
    const auto stats = swan::rowstore::TripleStats::Compute(dataset.triples());
    benchmark::DoNotOptimize(stats.terms.roles().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dataset.size()));
}
BENCHMARK(BM_TripleStatsCompute)
    ->Arg(20000)
    ->Arg(200000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
