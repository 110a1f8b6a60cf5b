// SPARQL front-end demo: runs textual SPARQL (BGP subset) against a
// generated Barton-like catalog, on a storage scheme of your choice.
//
//   $ ./build/examples/sparql_demo
//   $ ./build/examples/sparql_demo 'SELECT ?s WHERE { ?s <type> <Text> } LIMIT 5'

#include <cstdio>

#include "bench_support/barton_generator.h"
#include "bench_support/harness.h"
#include "core/store.h"
#include "sparql/sparql.h"

int main(int argc, char** argv) {
  swan::bench_support::BartonConfig config;
  config.target_triples = swan::bench_support::EnvU64("SWAN_TRIPLES", 50000);
  std::printf("generating catalog (%llu triples)...\n\n",
              static_cast<unsigned long long>(config.target_triples));
  const auto barton = swan::bench_support::GenerateBarton(config);
  auto store = swan::core::RdfStore::Open(barton.dataset);

  const char* query = argc > 1 ? argv[1] :
      // The paper's q5 as a graph pattern: DLC-origin records pointing at
      // resources, with their types. (The SQL adds obj != Text, which the
      // BGP subset cannot express; this is the unfiltered pattern.)
      "SELECT DISTINCT ?record ?thing ?kind\n"
      "WHERE {\n"
      "  ?record <origin> <info:marcorg/DLC> .\n"
      "  ?record <records> ?thing .\n"
      "  ?thing <type> ?kind .\n"
      "}\n"
      "LIMIT 10";

  std::printf("query:\n%s\n\n", query);
  auto result = swan::sparql::Execute(store->backend(), barton.dataset, query,
                                      swan::exec::ExecContext(),
                                      &store->stats());
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }

  for (const auto& var : result.value().vars) std::printf("%-28s", var.c_str());
  std::printf("\n");
  for (const auto& row : result.value().rows) {
    for (uint64_t id : row) {
      std::printf("%-28s",
                  swan::sparql::TermText(barton.dataset, id).c_str());
    }
    std::printf("\n");
  }
  std::printf("(%llu rows)\n",
              static_cast<unsigned long long>(result.value().rows.size()));
  return 0;
}
