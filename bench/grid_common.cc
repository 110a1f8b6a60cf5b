#include "grid_common.h"

#include <memory>
#include <vector>

#include "bench_common.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "core/col_backends.h"
#include "core/cstore_backend.h"
#include "core/reference_backend.h"
#include "core/row_backends.h"

namespace swan::bench {

namespace {

using bench_support::Measurement;
using core::Backend;
using core::QueryId;

struct GridRow {
  std::string store;
  std::string cluster;
  Backend* backend;
};

GridRowMeans AppendBackendRows(const GridRow& row, bool hot,
                               const core::QueryContext& ctx, int reps,
                               TablePrinter* table, BenchJsonWriter* json) {
  GridRowMeans means{row.store, row.cluster};
  std::vector<double> real_times, user_times;
  std::vector<double> real_initial, user_initial;

  std::vector<std::string> real_cells = {row.store, row.cluster, "real"};
  std::vector<std::string> user_cells = {"", "", "user"};
  for (QueryId id : core::AllQueries()) {
    if (!row.backend->Supports(id)) {
      real_cells.push_back("-");
      user_cells.push_back("-");
      continue;
    }
    const Measurement m = hot
                              ? bench_support::MeasureHot(row.backend, id, ctx,
                                                          reps)
                              : bench_support::MeasureCold(row.backend, id,
                                                           ctx, reps);
    if (json != nullptr) {
      json->Add(core::ToString(id), row.store + " " + row.cluster,
                m.bytes_read, m.real_seconds);
    }
    real_cells.push_back(TablePrinter::Fixed(m.real_seconds, 3));
    user_cells.push_back(TablePrinter::Fixed(m.user_seconds, 3));
    real_times.push_back(m.real_seconds);
    user_times.push_back(m.user_seconds);
    if (!IsStar(id) && id != QueryId::kQ8) {
      real_initial.push_back(m.real_seconds);
      user_initial.push_back(m.user_seconds);
    }
  }

  const double g_real = GeometricMean(real_initial);
  const double g_user = GeometricMean(user_initial);
  means.g = g_real;
  real_cells.push_back(TablePrinter::Fixed(g_real, 3));
  user_cells.push_back(TablePrinter::Fixed(g_user, 3));
  if (real_times.size() == core::AllQueries().size()) {
    const double gstar_real = GeometricMean(real_times);
    const double gstar_user = GeometricMean(user_times);
    means.gstar = gstar_real;
    real_cells.push_back(TablePrinter::Fixed(gstar_real, 3));
    real_cells.push_back(TablePrinter::Fixed(gstar_real / g_real, 1));
    user_cells.push_back(TablePrinter::Fixed(gstar_user, 3));
    user_cells.push_back(TablePrinter::Fixed(gstar_user / g_user, 1));
  } else {
    real_cells.insert(real_cells.end(), {"-", "-"});
    user_cells.insert(user_cells.end(), {"-", "-"});
  }
  table->AddRow(real_cells);
  table->AddRow(user_cells);
  return means;
}

}  // namespace

std::vector<GridRowMeans> RunGrid(bool hot, const std::string& title,
                                  colstore::ColumnCodec codec,
                                  const std::string& json_path) {
  const auto config = DefaultConfig();
  PrintHeader(title,
              hot ? "Table 7 (hot runs) of Sidirourgos et al., VLDB 2008"
                  : "Table 6 (cold runs) of Sidirourgos et al., VLDB 2008",
              config);
  std::printf("column codec: %s\n\n", colstore::ToString(codec).c_str());

  const auto barton = bench_support::GenerateBarton(config);
  const rdf::Dataset& data = barton.dataset;
  const core::QueryContext ctx = bench_support::MakeBartonContext(data, 28);

  std::printf("building backends...\n");
  core::RowTripleBackend dbx_spo(data, rowstore::TripleRelation::SpoConfig());
  core::RowTripleBackend dbx_pso(data, rowstore::TripleRelation::PsoConfig());
  core::RowVerticalBackend dbx_vert(data);
  core::ColTripleBackend monet_spo(data, rdf::TripleOrder::kSPO, {}, 4096,
                                   codec);
  core::ColTripleBackend monet_pso(data, rdf::TripleOrder::kPSO, {}, 4096,
                                   codec);
  core::ColVerticalBackend monet_vert(data, {}, 4096, codec);
  core::CStoreBackend cstore(data, ctx.interesting_properties());
  core::ReferenceBackend reference(data);

  // Storage accounting: the cold numbers below are driven by the encoded
  // (on-disk) bytes, so report them next to the full-width logical image
  // each backend would occupy uncompressed.
  std::printf("storage (on-disk encoded vs logical, MB):\n");
  const struct {
    const char* name;
    uint64_t stored;
    uint64_t logical;
  } footprints[] = {
      {"MonetDB triple SPO", monet_spo.stored_bytes(),
       monet_spo.logical_bytes()},
      {"MonetDB triple PSO", monet_pso.stored_bytes(),
       monet_pso.logical_bytes()},
      {"MonetDB vert. SO", monet_vert.stored_bytes(),
       monet_vert.logical_bytes()},
  };
  for (const auto& f : footprints) {
    std::printf("  %-20s %8.2f / %8.2f  (%.2fx)\n", f.name, f.stored / 1e6,
                f.logical / 1e6,
                f.stored > 0 ? static_cast<double>(f.logical) / f.stored : 0.0);
  }

  std::printf("correctness gate: verifying all backends agree...\n");
  bench_support::VerifyBackendsAgree(
      {&reference, &dbx_spo, &dbx_pso, &dbx_vert, &monet_spo, &monet_pso,
       &monet_vert, &cstore},
      core::AllQueries(), ctx);
  std::printf("correctness gate passed.\n\n");

  const std::vector<GridRow> rows = {
      {"DBX", "triple SPO", &dbx_spo},
      {"DBX", "triple PSO", &dbx_pso},
      {"DBX", "vert. SO", &dbx_vert},
      {"MonetDB", "triple SPO", &monet_spo},
      {"MonetDB", "triple PSO", &monet_pso},
      {"MonetDB", "vert. SO", &monet_vert},
      {"C-Store", "vert. SO", &cstore},
  };

  std::vector<std::string> header = {"store", "cluster", "time"};
  for (QueryId id : core::AllQueries()) header.push_back(ToString(id));
  header.insert(header.end(), {"G", "G*", "G*/G"});
  TablePrinter table(header);

  BenchJsonWriter json(hot ? "table7_hot_runs" : "table6_cold_runs");
  const int reps = Repetitions();
  std::vector<GridRowMeans> means;
  for (const GridRow& row : rows) {
    std::printf("measuring %s %s (%s)...\n", row.store.c_str(),
                row.cluster.c_str(), hot ? "hot" : "cold");
    means.push_back(AppendBackendRows(row, hot, ctx, reps, &table,
                                      json_path.empty() ? nullptr : &json));
    table.AddSeparator();
  }

  if (!json_path.empty()) {
    json.Extra("triples").Value(config.target_triples);
    json.Extra("codec").Value(colstore::ToString(codec));
    json.Extra("hot").Value(hot);
    if (!json.WriteTo(json_path)) std::exit(1);
  }

  std::printf("\n%s\n", table.ToString().c_str());
  std::printf(
      "times in seconds; G = geometric mean over q1-q7, G* over all 12 "
      "queries.\n"
      "expected shape (paper section 4.3): on the row store, triple PSO has "
      "the lowest G*;\non the column store the vertical scheme wins G/G* "
      "while q2*, q3*, q6*, q8 remain\n\"black swans\" where a triple-store "
      "clustering is faster; column engines beat the\nrow engine by roughly "
      "an order of magnitude; C-Store and MonetDB are comparable.\n");
  return means;
}

}  // namespace swan::bench
