// Reproduces Table 6: cold-run execution times for all 12 benchmark
// queries over the full storage-scheme x engine grid, then gates (exit 1)
// on two of the paper's cold shapes (section 4.3):
//   - on the row store, triple PSO has a lower G* than vertical SO;
//   - on the column store, the vertical scheme's G*/G exceeds both triple
//     clusterings': its "black swans" q2*, q3*, q6*, q8 pull G* up.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "grid_common.h"

namespace {

using swan::bench::GridRowMeans;

const GridRowMeans& Row(const std::vector<GridRowMeans>& rows,
                        const std::string& store, const std::string& cluster) {
  for (const GridRowMeans& row : rows) {
    if (row.store == store && row.cluster == cluster) return row;
  }
  std::fprintf(stderr, "FAIL: no grid row %s %s\n", store.c_str(),
               cluster.c_str());
  std::exit(1);
}

bool Gate(bool ok, const char* claim, double lhs, double rhs) {
  std::printf("gate: %-52s %.4f vs %.4f  %s\n", claim, lhs, rhs,
              ok ? "OK" : "FAIL");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  swan::bench::InitThreads(argc, argv);
  const std::vector<GridRowMeans> rows = swan::bench::RunGrid(
      /*hot=*/false, "Table 6: cold runs", swan::bench::InitCodec(argc, argv),
      swan::bench::InitJsonPath(argc, argv, "table6_cold_runs"));

  const GridRowMeans& dbx_pso = Row(rows, "DBX", "triple PSO");
  const GridRowMeans& dbx_vert = Row(rows, "DBX", "vert. SO");
  const auto ratio = [](const GridRowMeans& row) { return row.gstar / row.g; };
  const double monet_vert = ratio(Row(rows, "MonetDB", "vert. SO"));
  const double monet_triple =
      std::max(ratio(Row(rows, "MonetDB", "triple SPO")),
               ratio(Row(rows, "MonetDB", "triple PSO")));
  bool ok = Gate(dbx_pso.gstar < dbx_vert.gstar,
                 "DBX G*: triple PSO < vert. SO", dbx_pso.gstar,
                 dbx_vert.gstar);
  ok &= Gate(monet_vert > monet_triple,
             "MonetDB G*/G: vert. SO > max(triple SPO, triple PSO)",
             monet_vert, monet_triple);
  if (!ok) {
    std::fprintf(stderr, "FAIL: a Table 6 cold shape does not hold\n");
    return 1;
  }
  std::printf("Table 6 gates: OK\n");
  return 0;
}
