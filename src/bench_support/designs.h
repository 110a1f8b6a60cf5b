#ifndef SWANDB_BENCH_SUPPORT_DESIGNS_H_
#define SWANDB_BENCH_SUPPORT_DESIGNS_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/backend.h"
#include "core/store.h"

namespace swan::bench_support {

// One storage design under test: a scheme on an engine, built by
// core::OpenBackend from `options`. `label` is the name() its backend must
// report. It is fixed here, so that a build which does not match its
// design (say, the DBX "PSO" store clustered SPO) keeps its label and
// fails DesignListTest instead of passing as another design.
struct Design {
  std::string label;
  core::StoreOptions options;
};

// Every design: the paper's seven in the order of Tables 6 and 7 (DBX
// triple SPO, triple PSO and vertical, MonetDB the same three, C-Store),
// then the sharded vertical and triple PSO column stores at 2 and at 4
// nodes. Each keeps the buffer pool its backend's constructor defaults to:
// 4,096 pages on the column engines and C-Store, 65,536 on the row engine
// and in total over a sharded store's nodes.
const std::vector<Design>& Designs();

// What a design's backend does besides Match, worked out from its options
// alone: C-Store runs q1-q7 and takes no writes, the row engine inserts but
// does not delete, and the column engine, on any node count, does all.
struct Capabilities {
  bool all_queries = false;  // Supports() holds for all 12 queries
  bool inserts = false;      // Insert() is not Unimplemented
  bool deletes = false;      // Delete() is not Unimplemented
};
Capabilities CapabilitiesOf(const core::StoreOptions& options);

// The designs with every capability `need` sets, in list order, each
// opened over `dataset` with its column files in `codec` (the row engine
// and C-Store ignore it).
std::vector<std::unique_ptr<core::Backend>> OpenDesigns(
    const rdf::Dataset& dataset, Capabilities need = {},
    colstore::ColumnCodec codec = colstore::ColumnCodec::kRaw);

// The designs whose options `keep` accepts, in list order, each opened as
// above.
std::vector<std::unique_ptr<core::Backend>> OpenDesignsWhere(
    const rdf::Dataset& dataset,
    const std::function<bool(const core::StoreOptions&)>& keep,
    colstore::ColumnCodec codec = colstore::ColumnCodec::kRaw);

// The design labelled `label`; aborts when the list has none.
const Design& DesignNamed(std::string_view label);

// Opens the design labelled `label` over `dataset`, its column files in
// `codec`.
std::unique_ptr<core::Backend> OpenDesign(
    const rdf::Dataset& dataset, std::string_view label,
    colstore::ColumnCodec codec = colstore::ColumnCodec::kRaw);

}  // namespace swan::bench_support

#endif  // SWANDB_BENCH_SUPPORT_DESIGNS_H_
