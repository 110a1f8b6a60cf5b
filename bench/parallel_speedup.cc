// Speedup curves for the morsel-driven parallel execution layer across
// all three parallel surfaces:
//   * the vertical-scheme star queries (q2*, q3*, q4*, q6*) on the
//     MonetDB-style column backend — per-property sub-plans plus
//     row-range morsels inside the big partitions,
//   * the same star queries on the DBX-style row vertical backend —
//     per-partition B+tree join branches, and
//   * basic-graph-pattern evaluation (ExecuteBgp) — binding-table
//     batches, on both a column and a row backend.
// Reports the modeled real-time speedup over the single-threaded engine.
// Widths are swept with one exec::ExecContext per point; global state is
// set once to the maximum width.
//
// Before timing, every thread count is gated on equivalence with the
// single-threaded run: identical result rows (bit-identical binding
// tables for BGP) and identical cold-run virtual I/O bytes. Parallelism
// that changed the answer (or the bytes touched) would be a bug, not a
// speedup. The gate aborts the process on divergence, which is what the
// CI smoke run (`parallel_speedup --threads=4`) relies on. Every hot
// window starts with the backend's caches dropped, so its "MB read" is
// the warm-up's cold load whatever ran before; the bench exits 1 when an
// entry's hot-window bytes differ between widths.
//
// With an explicit `--threads=N` (N > 1) only widths {1, N} are swept —
// the CI smoke shape; the default is the full curve {1, 2, 4, 8, hw}.
// --json[=FILE] writes the cells as bench JSON.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_support/designs.h"
#include "common/macros.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "core/bgp.h"
#include "plan/stats.h"

namespace {

using swan::bench_support::Measurement;
using swan::core::Backend;
using swan::core::BgpPattern;
using swan::core::QueryId;
using swan::core::Term;
using swan::exec::ExecContext;

std::string Key(int threads) { return std::to_string(threads); }

using Snapshot = swan::exec::OpCounters::Snapshot;

// Counters over one entry's hot-measurement window (cold warm-up + reps):
// the executor's operator counters plus the backend's disk deltas.
struct WindowCounters : Snapshot {
  uint64_t bytes_read = 0;
  uint64_t seeks = 0;
};

// One bench row: a label, a group (for per-group geomeans), its backend,
// the bytes of its cold 1-thread run, a hot measurement under a context,
// and an equivalence gate against the 1-thread reference.
struct Entry {
  std::string label;
  std::string group;
  Backend* backend;
  uint64_t cold_bytes;
  std::function<double(const ExecContext&)> hot_real_seconds;
  std::function<bool(const ExecContext&)> equivalent_to_serial;
};

}  // namespace

int main(int argc, char** argv) {
  const ExecContext requested = swan::bench::InitThreads(argc, argv);
  const auto config = swan::bench::DefaultConfig();
  std::printf("=== Parallel speedup: star queries and BGP ===\n");
  std::printf(
      "morsel-driven execution; modeled real time (critical-path CPU + "
      "virtual I/O),\ndeterministic on any host.\n");
  std::printf("dataset: Barton-like, %llu triples (seed %llu)\n\n",
              static_cast<unsigned long long>(config.target_triples),
              static_cast<unsigned long long>(config.seed));

  const auto barton = swan::bench_support::GenerateBarton(config);
  const swan::rdf::Dataset& data = barton.dataset;
  const swan::core::QueryContext ctx =
      swan::bench_support::MakeBartonContext(data, 28);

  std::printf("building backends (col vertical, row vertical, row PSO)...\n");
  using swan::bench_support::OpenDesign;
  const auto col_vert = OpenDesign(data, "MonetDB vert. SO");
  const auto row_vert = OpenDesign(data, "DBX vert. SO");
  const auto row_pso = OpenDesign(data, "DBX triple PSO");

  // Width sweep: explicit --threads=N (N > 1) means the CI smoke shape.
  std::vector<int> thread_counts;
  if (requested.threads() > 1) {
    thread_counts = {1, requested.threads()};
  } else {
    thread_counts = {1, 2, 4, 8};
    const int hw = swan::exec::HardwareConcurrency();
    if (hw > thread_counts.back()) thread_counts.push_back(hw);
  }
  const int max_width =
      *std::max_element(thread_counts.begin(), thread_counts.end());
  // Contexts clamp to the global budget; set it once to the widest point.
  swan::exec::SetThreads(max_width);

  const int reps = swan::bench::Repetitions();
  const std::vector<QueryId> queries = {QueryId::kQ2Star, QueryId::kQ3Star,
                                        QueryId::kQ4Star, QueryId::kQ6Star};

  // The BGP workload, planned cost-based: the seed pattern binds every
  // subject carrying <origin>, then each binding row is extended with its
  // <type> — by point Matches in batches, or one scan-join, whichever the
  // run-time choice prices cheaper.
  const swan::plan::StoreStats stats = swan::plan::StoreStats::Collect(data);
  const auto vocab = ctx.vocab();
  const std::vector<BgpPattern> bgp_query = {
      {Term::Var("s"), Term::Const(vocab.origin), Term::Var("o")},
      {Term::Var("s"), Term::Const(vocab.type), Term::Var("t")}};

  std::vector<Entry> entries;
  for (Backend* backend : {col_vert.get(), row_vert.get()}) {
    const std::string group =
        backend == col_vert.get() ? "col-vert" : "row-vert";
    for (QueryId q : queries) {
      // 1-thread reference: rows and cold virtual I/O bytes.
      const ExecContext serial(1);
      const swan::core::QueryResult ref_rows = backend->Run(q, ctx, serial);
      const uint64_t ref_cold =
          swan::bench_support::MeasureCold(backend, q, ctx, serial, 1)
              .bytes_read;
      entries.push_back(Entry{
          group + " " + ToString(q), group, backend, ref_cold,
          [backend, q, &ctx, reps](const ExecContext& ectx) {
            return swan::bench_support::MeasureHot(backend, q, ctx, ectx, reps)
                .real_seconds;
          },
          [backend, q, &ctx, ref_rows, ref_cold](const ExecContext& ectx) {
            const swan::core::QueryResult rows = backend->Run(q, ctx, ectx);
            const uint64_t cold =
                swan::bench_support::MeasureCold(backend, q, ctx, ectx, 1)
                    .bytes_read;
            return ref_rows.SameRows(rows) && cold == ref_cold;
          }});
    }
  }
  for (Backend* backend : {col_vert.get(), row_pso.get()}) {
    const std::string group = "bgp";
    const std::string label =
        backend == col_vert.get() ? "bgp col-vert" : "bgp row-pso";
    const swan::plan::PlannerOptions options{
        swan::plan::PlanMode::kCostBased, &stats, backend->PlannerHints()};
    // 1-thread reference, run cold: rows and cold virtual I/O bytes.
    const ExecContext serial(1);
    backend->DropCaches();
    const uint64_t bytes_before = backend->TotalBytesRead();
    const auto ref =
        swan::core::ExecuteBgp(*backend, bgp_query, serial, options);
    SWAN_CHECK_MSG(ref.ok(), "BGP reference run failed");
    const uint64_t ref_cold = backend->TotalBytesRead() - bytes_before;
    const auto ref_rows = ref.value().rows;
    entries.push_back(Entry{
        label, group, backend, ref_cold,
        [backend, &bgp_query, options, reps](const ExecContext& ectx) {
          return swan::bench_support::MeasureBgpHot(backend, bgp_query, ectx,
                                                    options, reps)
              .real_seconds;
        },
        [backend, &bgp_query, options, ref_rows](const ExecContext& ectx) {
          // Bit-identical binding table: batch stitching preserves the
          // exact serial row order.
          const auto result =
              swan::core::ExecuteBgp(*backend, bgp_query, ectx, options);
          return result.ok() && result.value().rows == ref_rows;
        }});
  }

  // Measure: hot real seconds per entry per width, gated on equivalence.
  // The counters of each hot window (scheduler counters from the layers
  // below, disk bytes/seeks from the backend) are kept for the per-width
  // counters table.
  bool equivalent = true;
  std::vector<std::vector<double>> hot_real(entries.size());
  std::vector<std::vector<WindowCounters>> hot_counters(entries.size());
  for (size_t t = 0; t < thread_counts.size(); ++t) {
    std::printf("measuring %d thread(s)...\n", thread_counts[t]);
    const ExecContext ectx(thread_counts[t]);
    for (size_t e = 0; e < entries.size(); ++e) {
      if (t > 0 && !entries[e].equivalent_to_serial(ectx)) {
        std::fprintf(stderr, "FAIL: %s diverges at %d threads\n",
                     entries[e].label.c_str(), thread_counts[t]);
        equivalent = false;
      }
      Backend& backend = *entries[e].backend;
      backend.DropCaches();
      const uint64_t bytes_before = backend.TotalBytesRead();
      const uint64_t seeks_before = backend.TotalSeeks();
      ectx.counters().Reset();
      hot_real[e].push_back(entries[e].hot_real_seconds(ectx));
      hot_counters[e].push_back({ectx.counters().Snap(),
                                 backend.TotalBytesRead() - bytes_before,
                                 backend.TotalSeeks() - seeks_before});
    }
  }
  SWAN_CHECK_MSG(equivalent,
                 "parallel execution changed query results; aborting");
  std::printf("equivalence gate passed (rows and cold I/O bytes match the "
              "single-threaded run at every width).\n\n");
  bool same_bytes = true;
  for (size_t e = 0; e < entries.size(); ++e) {
    for (size_t i = 1; i < thread_counts.size(); ++i) {
      if (hot_counters[e][i].bytes_read != hot_counters[e][0].bytes_read) {
        std::fprintf(stderr,
                     "FAIL: %s reads %llu bytes in its hot window at %d "
                     "threads, %llu at 1\n",
                     entries[e].label.c_str(),
                     static_cast<unsigned long long>(
                         hot_counters[e][i].bytes_read),
                     thread_counts[i],
                     static_cast<unsigned long long>(
                         hot_counters[e][0].bytes_read));
        same_bytes = false;
      }
    }
  }

  std::vector<std::string> header = {"workload"};
  for (int t : thread_counts) header.push_back(Key(t) + "T real");
  for (size_t i = 1; i < thread_counts.size(); ++i) {
    header.push_back("x" + Key(thread_counts[i]));
  }
  swan::TablePrinter table(header);
  // speedups[group][width index] = per-entry speedups of that group.
  std::map<std::string, std::vector<std::vector<double>>> group_speedups;
  for (size_t e = 0; e < entries.size(); ++e) {
    std::vector<std::string> cells = {entries[e].label};
    for (size_t i = 0; i < thread_counts.size(); ++i) {
      cells.push_back(swan::TablePrinter::Fixed(hot_real[e][i], 4));
    }
    auto& by_width = group_speedups[entries[e].group];
    by_width.resize(thread_counts.size());
    for (size_t i = 1; i < thread_counts.size(); ++i) {
      const double s = hot_real[e][0] / hot_real[e][i];
      by_width[i].push_back(s);
      cells.push_back(swan::TablePrinter::Fixed(s, 2));
    }
    table.AddRow(cells);
  }
  std::printf("%s\n", table.ToString().c_str());

  // Per-width operator/cost counters over each hot window. Scheduler
  // counters (regions, morsels, partitions, batches) grow with width;
  // match calls, bytes and seeks must not — parallelism may reshape the
  // schedule but never the work.
  std::printf("operator counters per hot window (cold warm-up + %d reps):\n",
              reps);
  swan::TablePrinter counters_table(
      {"workload", "T", "regions", "morsels", "mj-parts", "match",
       "bgp-batch", "MB read", "seeks"});
  for (size_t e = 0; e < entries.size(); ++e) {
    for (size_t i = 0; i < thread_counts.size(); ++i) {
      const WindowCounters& c = hot_counters[e][i];
      counters_table.AddRow(
          {entries[e].label, Key(thread_counts[i]),
           std::to_string(c.parallel_regions), std::to_string(c.morsels),
           std::to_string(c.merge_join_partitions),
           std::to_string(c.match_calls), std::to_string(c.bgp_batches),
           swan::TablePrinter::Fixed(c.bytes_read / 1e6, 2),
           std::to_string(c.seeks)});
    }
  }
  std::printf("%s\n", counters_table.ToString().c_str());

  std::printf("geomean speedup (hot, modeled):\n");
  for (const auto& [group, by_width] : group_speedups) {
    std::printf("  %-9s", group.c_str());
    for (size_t i = 1; i < thread_counts.size(); ++i) {
      std::printf("  %dT %.2fx", thread_counts[i],
                  swan::GeometricMean(by_width[i]));
    }
    std::printf("\n");
  }

  // Structured emitter (--json[=FILE]): workload = entry, backend = its
  // group; cold_bytes of the entry's cold 1-thread run (the star queries'
  // gate holds every width to them), modeled_seconds at the widest sweep
  // point, speedup = serial real / widest real; plus the per-group
  // geomean speedup at every width above 1.
  const std::string json_path =
      swan::bench::InitJsonPath(argc, argv, "parallel_speedup");
  if (!json_path.empty()) {
    swan::bench::BenchJsonWriter json("parallel_speedup");
    const size_t last = thread_counts.size() - 1;
    for (size_t e = 0; e < entries.size(); ++e) {
      json.Add(entries[e].label, entries[e].group, entries[e].cold_bytes,
               hot_real[e][last], hot_real[e][0] / hot_real[e][last]);
    }
    json.Extra("triples").Value(config.target_triples);
    swan::obs::JsonWriter& widths = json.Extra("threads").BeginArray();
    for (const int t : thread_counts) widths.Value(t);
    widths.EndArray();
    json.Extra("equivalent").Value(true);
    swan::obs::JsonWriter& geomean = json.Extra("geomean_speedup");
    geomean.BeginObject();
    for (const auto& [group, by_width] : group_speedups) {
      geomean.Key(group).BeginObject();
      for (size_t i = 1; i < thread_counts.size(); ++i) {
        geomean.Field(Key(thread_counts[i]),
                      swan::GeometricMean(by_width[i]), 3);
      }
      geomean.EndObject();
    }
    geomean.EndObject();
    if (!json.WriteTo(json_path)) return 1;
  }
  return same_bytes ? 0 : 1;
}
