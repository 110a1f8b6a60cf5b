#include "exhibit.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "bench_support/designs.h"
#include "bench_support/property_split.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "core/reference_backend.h"
#include "core/store.h"

namespace swan::bench {

namespace {

using core::QueryId;

// One measured (point, design, mode, query) cell.
struct ExhibitCell {
  size_t point = 0;   // index into ExhibitSpec::points
  size_t design = 0;  // index into ExhibitSpec::designs
  Mode mode = Mode::kCold;
  QueryId query = QueryId::kQ1;
  bench_support::Measurement m;
};

const char* ToString(Mode mode) { return mode == Mode::kHot ? "hot" : "cold"; }

double Value(const bench_support::Measurement& m, Metric metric) {
  switch (metric) {
    case Metric::kReal: return m.real_seconds;
    case Metric::kUser: return m.user_seconds;
    case Metric::kMbRead: return static_cast<double>(m.bytes_read) / 1e6;
    case Metric::kRows: return static_cast<double>(m.rows_returned);
  }
  std::abort();
}

std::string Format(const bench_support::Measurement& m, Metric metric) {
  if (metric == Metric::kRows) return TablePrinter::Int(m.rows_returned);
  return TablePrinter::Fixed(Value(m, metric),
                             metric == Metric::kMbRead ? 2 : 4);
}

// One (point, design, mode) row's geometric means of `metric`: G over
// q1-q7, G* over all 12 queries (0 unless the row ran all 12).
struct RowMeans {
  double g = 0.0;
  double gstar = 0.0;
};
RowMeans MeansOf(const std::vector<ExhibitCell>& cells, size_t point,
                 size_t design, Mode mode, Metric metric) {
  std::vector<double> initial, all;
  for (const ExhibitCell& cell : cells) {
    if (cell.point != point || cell.design != design || cell.mode != mode) {
      continue;
    }
    all.push_back(Value(cell.m, metric));
    if (!core::IsStar(cell.query) && cell.query != QueryId::kQ8) {
      initial.push_back(all.back());
    }
  }
  RowMeans means;
  means.g = GeometricMean(initial);
  if (all.size() == core::AllQueries().size()) means.gstar = GeometricMean(all);
  return means;
}

}  // namespace

ExhibitSpec GridSpec(bool hot) {
  ExhibitSpec spec;
  spec.name = hot ? "table7_hot_runs" : "table6_cold_runs";
  spec.title = hot ? "Table 7: hot runs" : "Table 6: cold runs";
  spec.reproduces = std::string(hot ? "Table 7 (hot runs)"
                                    : "Table 6 (cold runs)") +
                    " of Sidirourgos et al., VLDB 2008";
  for (const bench_support::Design& design : bench_support::Designs()) {
    if (design.options.nodes == 1) spec.designs.push_back(design.label);
  }
  spec.queries = core::AllQueries();
  spec.modes = {hot ? Mode::kHot : Mode::kCold};
  spec.means = true;
  spec.note =
      "On the row store, triple PSO has the lowest G* (section 4.3); on the\n"
      "column store the vertical scheme wins G/G* while q2*, q3*, q6*, q8\n"
      "remain \"black swans\" where a triple-store clustering is faster;\n"
      "column engines beat the row engine by roughly an order of magnitude;\n"
      "C-Store and MonetDB are comparable.\n";
  return spec;
}

void RunExhibit(const ExhibitSpec& spec, int argc, char** argv) {
  const bench_support::BartonConfig config = DefaultConfig();
  PrintHeader(spec.title, spec.reproduces, config);
  const colstore::ColumnCodec codec = spec.points[0].codec;
  const bool by_codec =
      std::any_of(spec.points.begin(), spec.points.end(),
                  [codec](const ExhibitPoint& p) { return p.codec != codec; });
  if (!by_codec) {
    std::printf("column codec: %s\n\n", colstore::ToString(codec).c_str());
  }

  const bool by_point = spec.points.size() > 1;
  const bool by_mode = spec.modes.size() > 1;
  const bool gstar = spec.means && spec.queries == core::AllQueries();
  std::vector<std::string> header;
  if (by_point) header.push_back("dataset");
  header.insert(header.end(), {"store", "cluster"});
  if (by_mode) header.push_back("run");
  header.push_back("metric");
  for (QueryId id : spec.queries) header.push_back(core::ToString(id));
  if (spec.means) header.push_back("G");
  if (gstar) header.insert(header.end(), {"G*", "G*/G"});
  TablePrinter table(header);
  BenchJsonWriter json(spec.name);

  std::optional<bench_support::BartonDataset> base;
  std::vector<ExhibitCell> cells;
  double max_stddev = 0.0;
  // The previous point's dataset, reference and designs, kept while the
  // next point changes none of their inputs; C-Store is also built for its
  // property list.
  const ExhibitPoint* prev = nullptr;
  std::optional<bench_support::BartonDataset> scaled;
  std::optional<rdf::Dataset> split;
  const rdf::Dataset* data = nullptr;
  std::unique_ptr<core::ReferenceBackend> reference;
  std::vector<std::unique_ptr<core::Backend>> backends;
  std::vector<uint64_t> cstore_properties;
  for (size_t p = 0; p < spec.points.size(); ++p) {
    const ExhibitPoint& point = spec.points[p];
    const bool same_data = prev != nullptr &&
                           prev->triples == point.triples &&
                           prev->properties == point.properties;
    const bool same_build = same_data && prev->disk_mb_s == point.disk_mb_s &&
                            prev->pool_pages == point.pool_pages &&
                            prev->codec == point.codec;
    prev = &point;
    if (!same_build) backends.clear();
    backends.resize(spec.designs.size());
    std::string label;
    const auto describe = [&label](const std::string& part) {
      label += (label.empty() ? "" : ", ") + part;
    };
    if (!same_data) {
      reference.reset();
      split.reset();
      scaled.reset();
      if (point.triples > 0) {
        bench_support::BartonConfig scaled_config = config;
        scaled_config.target_triples = point.triples;
        scaled = bench_support::GenerateBarton(scaled_config);
      } else if (!base) {
        base = bench_support::GenerateBarton(config);
      }
      data = scaled ? &scaled->dataset : &base->dataset;
      if (point.properties > 0) {
        // Figure 7's split leaves the properties the queries name whole.
        const auto vocab = core::Vocabulary::Resolve(*data).value();
        split = bench_support::SplitProperties(
            *data, point.properties, /*seed=*/7,
            {vocab.type, vocab.language, vocab.origin, vocab.records,
             vocab.point, vocab.encoding});
        data = &*split;
      }
      reference = std::make_unique<core::ReferenceBackend>(*data);
    }
    if (point.triples > 0) {
      describe(std::to_string(point.triples) + " triples");
    }
    if (point.properties > 0) {
      describe(std::to_string(data->DistinctProperties().size()) +
               " properties");
    }
    if (point.disk_mb_s > 0.0) {
      describe(TablePrinter::Fixed(point.disk_mb_s, 0) + " MB/s");
    }
    if (point.considered > 0) {
      describe(std::to_string(point.considered) + " considered");
    }
    if (point.pool_pages > 0) {
      describe(std::to_string(point.pool_pages) + " pool pages");
    }
    if (by_codec) describe(colstore::ToString(point.codec));
    const core::QueryContext ctx = bench_support::MakeBartonContext(
        *data, point.considered > 0 ? point.considered : 28);

    std::printf("building backends %s\n", label.c_str());
    std::vector<core::Backend*> checked = {reference.get()};
    for (size_t d = 0; d < spec.designs.size(); ++d) {
      core::StoreOptions options =
          bench_support::DesignNamed(spec.designs[d]).options;
      const bool cstore = options.engine == core::EngineKind::kCStore;
      const bool rebuild =
          backends[d] == nullptr ||
          (cstore && cstore_properties != ctx.interesting_properties());
      if (rebuild) {
        if (point.disk_mb_s > 0.0) {
          options.disk.bandwidth_mb_per_s = point.disk_mb_s;
        }
        if (point.pool_pages > 0) options.pool_pages = point.pool_pages;
        options.codec = point.codec;
        options.cstore_properties = ctx.interesting_properties();
        backends[d] = core::OpenBackend(*data, options);
      }
      if (cstore) cstore_properties = ctx.interesting_properties();
      checked.push_back(backends[d].get());
      std::printf("  %-20s %8.2f MB on disk%s\n",
                  checked.back()->name().c_str(),
                  checked.back()->disk_bytes() / 1e6,
                  rebuild ? "" : " (kept)");
    }
    std::printf("correctness gate: verifying all backends agree...\n");
    bench_support::VerifyBackendsAgree(checked, core::AllQueries(), ctx);
    std::printf("correctness gate passed.\n");

    for (size_t d = 0; d < spec.designs.size(); ++d) {
      core::Backend* backend = backends[d].get();
      const std::string& name = spec.designs[d];
      const size_t space = name.find(' ');
      std::printf("measuring %s...\n", name.c_str());
      if (p + d > 0) table.AddSeparator();
      for (Mode mode : spec.modes) {
        const size_t first = cells.size();
        for (QueryId id : spec.queries) {
          if (!backend->Supports(id)) continue;
          ExhibitCell cell{p, d, mode, id, {}};
          cell.m = mode == Mode::kHot
                       ? bench_support::MeasureHot(backend, id, ctx,
                                                   spec.repetitions)
                       : bench_support::MeasureCold(backend, id, ctx,
                                                    spec.repetitions);
          max_stddev = std::max(max_stddev, cell.m.real_stddev);
          std::string workload = core::ToString(id);
          if (by_point) workload += " @ " + label;
          if (by_mode) workload += std::string(" ") + ToString(mode);
          json.Add(workload, name, cell.m);
          cells.push_back(cell);
        }
        for (Metric metric : spec.metrics) {
          const bool first_row = metric == spec.metrics.front();
          const bool first_group = first_row && mode == spec.modes.front();
          std::vector<std::string> row;
          if (by_point) row.push_back(first_group && d == 0 ? label : "");
          row.push_back(first_group ? name.substr(0, space) : "");
          row.push_back(first_group ? name.substr(space + 1) : "");
          if (by_mode) row.push_back(first_row ? ToString(mode) : "");
          constexpr const char* kNames[] = {"real", "user", "MB read", "rows"};
          row.push_back(kNames[static_cast<int>(metric)]);
          size_t next = first;
          for (QueryId id : spec.queries) {
            const bool ran = next < cells.size() && cells[next].query == id;
            row.push_back(ran ? Format(cells[next++].m, metric) : "-");
          }
          const RowMeans means =
              MeansOf(cells, p, d, mode, metric);
          if (spec.means) row.push_back(TablePrinter::Fixed(means.g, 4));
          if (gstar) {
            const bool all = means.gstar > 0.0;
            row.push_back(all ? TablePrinter::Fixed(means.gstar, 4) : "-");
            row.push_back(
                all ? TablePrinter::Fixed(means.gstar / means.g, 1) : "-");
          }
          table.AddRow(row);
        }
      }
    }
  }

  const std::string json_path = InitJsonPath(argc, argv, spec.name);
  if (!json_path.empty()) {
    const bool by_triples =
        std::any_of(spec.points.begin(), spec.points.end(),
                    [](const ExhibitPoint& p) { return p.triples > 0; });
    if (!by_triples) json.Extra("triples").Value(config.target_triples);
    if (!by_codec) json.Extra("codec").Value(colstore::ToString(codec));
    if (!by_mode) json.Extra("hot").Value(spec.modes[0] == Mode::kHot);
    if (!json.WriteTo(json_path)) std::exit(1);
  }
  std::printf("\n%s\n", table.ToString().c_str());
  std::printf("times in seconds over %d repetition(s); max run-to-run "
              "stddev of real: %.4f s.\n", spec.repetitions, max_stddev);
  if (spec.means) {
    std::printf("G = geometric mean over q1-q7, G* over all 12 queries.\n");
  }
  std::printf("expected shape (%s):\n%s", spec.reproduces.c_str(),
              spec.note.c_str());
}

}  // namespace swan::bench
