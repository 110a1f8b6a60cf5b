#include "bench_support/designs.h"

#include "common/macros.h"

namespace swan::bench_support {

using core::EngineKind;

const std::vector<Design>& Designs() {
  static const std::vector<Design> designs = [] {
    constexpr auto kTriple = core::StorageScheme::kTripleStore;
    constexpr auto kVert = core::StorageScheme::kVerticalPartitioned;
    constexpr auto kRow = EngineKind::kRowStore;
    constexpr auto kCol = EngineKind::kColumnStore;
    constexpr auto kSpo = rdf::TripleOrder::kSPO;
    constexpr auto kPso = rdf::TripleOrder::kPSO;
    struct Row {
      const char* label;
      core::StorageScheme scheme;
      EngineKind engine;
      rdf::TripleOrder clustering;
      int nodes;
    };
    constexpr Row kRows[] = {
        {"DBX triple SPO", kTriple, kRow, kSpo, 1},
        {"DBX triple PSO", kTriple, kRow, kPso, 1},
        {"DBX vert. SO", kVert, kRow, kPso, 1},
        {"MonetDB triple SPO", kTriple, kCol, kSpo, 1},
        {"MonetDB triple PSO", kTriple, kCol, kPso, 1},
        {"MonetDB vert. SO", kVert, kCol, kPso, 1},
        {"C-Store vert. SO", kVert, EngineKind::kCStore, kPso, 1},
        {"Sharded vert. SO x2", kVert, kCol, kPso, 2},
        {"Sharded triple PSO x2", kTriple, kCol, kPso, 2},
        {"Sharded vert. SO x4", kVert, kCol, kPso, 4},
        {"Sharded triple PSO x4", kTriple, kCol, kPso, 4},
    };
    std::vector<Design> out;
    for (const Row& row : kRows) {
      Design design{row.label, {}};
      design.options.scheme = row.scheme;
      design.options.engine = row.engine;
      design.options.clustering = row.clustering;
      design.options.nodes = row.nodes;
      design.options.pool_pages =
          row.engine == kRow || row.nodes > 1 ? 65536 : 4096;
      out.push_back(std::move(design));
    }
    return out;
  }();
  return designs;
}

Capabilities CapabilitiesOf(const core::StoreOptions& options) {
  Capabilities caps;
  caps.all_queries = options.engine != EngineKind::kCStore;
  caps.inserts = options.engine != EngineKind::kCStore;
  caps.deletes = options.engine == EngineKind::kColumnStore;
  return caps;
}

std::vector<std::unique_ptr<core::Backend>> OpenDesigns(
    const rdf::Dataset& dataset, Capabilities need,
    colstore::ColumnCodec codec) {
  return OpenDesignsWhere(
      dataset,
      [need](const core::StoreOptions& options) {
        const Capabilities has = CapabilitiesOf(options);
        return (has.all_queries || !need.all_queries) &&
               (has.inserts || !need.inserts) &&
               (has.deletes || !need.deletes);
      },
      codec);
}

std::vector<std::unique_ptr<core::Backend>> OpenDesignsWhere(
    const rdf::Dataset& dataset,
    const std::function<bool(const core::StoreOptions&)>& keep,
    colstore::ColumnCodec codec) {
  std::vector<std::unique_ptr<core::Backend>> out;
  for (const Design& design : Designs()) {
    if (keep(design.options)) {
      out.push_back(OpenDesign(dataset, design.label, codec));
    }
  }
  return out;
}

const Design& DesignNamed(std::string_view label) {
  for (const Design& design : Designs()) {
    if (design.label == label) return design;
  }
  SWAN_CHECK_MSG(false, "no design has this label");
  std::abort();
}

std::unique_ptr<core::Backend> OpenDesign(const rdf::Dataset& dataset,
                                          std::string_view label,
                                          colstore::ColumnCodec codec) {
  core::StoreOptions options = DesignNamed(label).options;
  options.codec = codec;
  return core::OpenBackend(dataset, options);
}

}  // namespace swan::bench_support
