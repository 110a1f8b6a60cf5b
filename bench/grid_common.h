#ifndef SWANDB_BENCH_GRID_COMMON_H_
#define SWANDB_BENCH_GRID_COMMON_H_

#include <string>
#include <vector>

#include "colstore/compression.h"

namespace swan::bench {

// One grid row's geometric means of real seconds: G over q1-q7, G* over
// all 12 queries (0 when the row does not run all 12).
struct GridRowMeans {
  std::string store;
  std::string cluster;
  double g = 0.0;
  double gstar = 0.0;
};

// Shared driver for Tables 6 (cold) and 7 (hot): runs all 12 queries over
// the full scheme × engine grid — DBX triple SPO / triple PSO / vert. SO,
// MonetDB triple SPO / triple PSO / vert. SO, C-Store vert. SO — verifying
// cross-backend result equality first, and prints the paper-style table
// with real/user rows, G, G* and G*/G columns. `codec` configures the
// column engine's on-disk format; the storage-accounting block reports
// both the encoded on-disk bytes and the full-width logical bytes so
// compressed cold runs can be related to the bytes they actually read.
// A non-empty `json_path` additionally writes the per-query grid as a
// bench::BenchJsonWriter file (workload = query, backend = store+cluster,
// cold_bytes = simulated-disk bytes, modeled_seconds = real). Returns
// every row's G and G*, in table order.
std::vector<GridRowMeans> RunGrid(bool hot, const std::string& title,
             colstore::ColumnCodec codec = colstore::ColumnCodec::kRaw,
             const std::string& json_path = "");

}  // namespace swan::bench

#endif  // SWANDB_BENCH_GRID_COMMON_H_
