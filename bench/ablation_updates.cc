// Ablation: the cost of updates per storage scheme and engine. The paper
// flags the vertical scheme's data-driven logical schema as update-hostile
// ("in case of an update in properties, the queries have to be re-produced
// ... data-driven logical schemes make queries susceptible to updates",
// section 4.2) and the benchmark itself is read-only by design. This
// ablation measures two insert workloads:
//   (a) triples over existing properties, and
//   (b) triples that introduce new properties (schema growth),
// followed by a query (which forces the column engines to merge their
// delta stores). Each batch is replayed on the reference backend too, and
// every backend's post-merge q2* rows must equal the reference's; the
// binary exits 1 on a mismatch.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_support/designs.h"
#include "bench_support/harness.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/col_backends.h"
#include "core/reference_backend.h"
#include "core/row_backends.h"

namespace {

using swan::core::Backend;
using swan::core::QueryId;

struct Workload {
  std::vector<swan::rdf::Triple> existing_properties;
  std::vector<swan::rdf::Triple> new_properties;
};

Workload BuildWorkload(swan::rdf::Dataset* dataset, uint64_t inserts) {
  Workload out;
  auto& dict = dataset->dict();
  const uint64_t type = *dict.Find("<type>");
  const uint64_t text = *dict.Find("<Text>");
  for (uint64_t i = 0; i < inserts; ++i) {
    const uint64_t s = dict.Intern("<ins-subj-" + std::to_string(i) + ">");
    out.existing_properties.push_back({s, type, text});
    const uint64_t p =
        dict.Intern("<ins-prop-" + std::to_string(i % 100) + ">");
    out.new_properties.push_back(
        {s, p, dict.Intern("\"ins-val-" + std::to_string(i % 17) + "\"")});
  }
  return out;
}

}  // namespace

int main() {
  using swan::TablePrinter;
  auto config = swan::bench::DefaultConfig();
  config.target_triples = swan::bench_support::EnvU64("SWAN_TRIPLES", 100000);
  swan::bench::PrintHeader("Ablation: insert cost by scheme and engine",
                           "section 4.2 update-susceptibility discussion",
                           config);

  auto barton = swan::bench_support::GenerateBarton(config);
  const uint64_t inserts = 5000;
  const Workload workload = BuildWorkload(&barton.dataset, inserts);
  const auto ctx = swan::bench_support::MakeBartonContext(barton.dataset, 28);

  // The reference's q2* after the first batch and after both.
  swan::core::ReferenceBackend reference(barton.dataset);
  swan::core::QueryResult expected[2];
  for (const bool new_props : {false, true}) {
    for (const auto& t : new_props ? workload.new_properties
                                   : workload.existing_properties) {
      const auto st = reference.Insert(t);
      if (!st.ok() && st.code() != swan::StatusCode::kAlreadyExists) {
        std::fprintf(stderr, "reference insert failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
    }
    expected[new_props] = reference.Run(QueryId::kQ2Star, ctx);
  }

  struct Candidate {
    std::string label;
    std::unique_ptr<Backend> backend;
  };
  std::vector<Candidate> candidates;
  for (const char* label : {"DBX triple PSO", "DBX vert. SO",
                            "MonetDB triple PSO", "MonetDB vert. SO"}) {
    candidates.push_back(
        {label, swan::bench_support::OpenDesign(barton.dataset, label)});
  }

  TablePrinter table({"backend", "workload", "insert (s)",
                      "next q2* (s)", "new partitions"});
  for (auto& candidate : candidates) {
    for (const bool new_props : {false, true}) {
      const auto& batch =
          new_props ? workload.new_properties : workload.existing_properties;
      swan::CpuTimer timer;
      for (const auto& t : batch) {
        const auto st = candidate.backend->Insert(t);
        if (!st.ok() && st.code() != swan::StatusCode::kAlreadyExists) {
          std::fprintf(stderr, "insert failed: %s\n", st.ToString().c_str());
          return 1;
        }
      }
      const double insert_seconds = timer.ElapsedSeconds();
      // The first query after the batch pays any merge cost.
      timer.Restart();
      const swan::core::QueryResult got =
          candidate.backend->Run(QueryId::kQ2Star, ctx);
      const double query_seconds = timer.ElapsedSeconds();
      if (!got.SameRows(expected[new_props])) {
        std::fprintf(stderr,
                     "%s: q2* after the %s batch disagrees with the "
                     "reference (%zu vs %zu rows)\n",
                     candidate.label.c_str(),
                     new_props ? "new-property" : "existing-property",
                     got.rows.size(), expected[new_props].rows.size());
        return 1;
      }

      uint64_t partitions = 0;
      if (auto* rv = dynamic_cast<swan::core::RowVerticalBackend*>(
              candidate.backend.get())) {
        partitions = rv->relation().partitions_created();
      } else if (auto* cv = dynamic_cast<swan::core::ColVerticalBackend*>(
                     candidate.backend.get())) {
        partitions = cv->partitions_created();
      }
      table.AddRow({candidate.label,
                    new_props ? "5k inserts, 100 new props"
                              : "5k inserts, existing props",
                    TablePrinter::Fixed(insert_seconds, 4),
                    TablePrinter::Fixed(query_seconds, 4),
                    TablePrinter::Int(partitions)});
    }
    table.AddSeparator();
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "expected shape: row engines absorb inserts in-place (B+tree splits); "
      "column\nengines defer to a delta store and pay a merge (rebuild) on "
      "the next query —\nfull-table for the triple-store, per-partition for "
      "the vertical scheme; new\nproperties force the vertical schemes to "
      "grow their schema (new partitions).\n");
  return 0;
}
