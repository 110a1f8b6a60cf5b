#include "core/store.h"

#include "common/macros.h"
#include "core/col_backends.h"
#include "core/cstore_backend.h"
#include "core/row_backends.h"
#include "shard/sharded_backend.h"

namespace swan::core {

std::string ToString(StorageScheme scheme) {
  switch (scheme) {
    case StorageScheme::kTripleStore:
      return "triple-store";
    case StorageScheme::kVerticalPartitioned:
      return "vertically-partitioned";
  }
  return "?";
}

std::string ToString(EngineKind engine) {
  switch (engine) {
    case EngineKind::kRowStore:
      return "row-store";
    case EngineKind::kColumnStore:
      return "column-store";
    case EngineKind::kCStore:
      return "c-store";
  }
  return "?";
}

std::unique_ptr<Backend> OpenBackend(const rdf::Dataset& dataset,
                                     const StoreOptions& options) {
  SWAN_CHECK_MSG(options.nodes >= 1, "store needs at least one node");
  SWAN_CHECK_MSG(options.nodes == 1 || options.engine == EngineKind::kColumnStore,
                 "scale-out (nodes > 1) is column-store only");
  const bool triple = options.scheme == StorageScheme::kTripleStore;
  switch (options.engine) {
    case EngineKind::kColumnStore:
      if (options.nodes > 1) {
        shard::ShardOptions sharded;
        sharded.nodes = options.nodes;
        sharded.vertical = !triple;
        sharded.order = options.clustering;
        sharded.disk = options.disk;
        sharded.pool_pages = options.pool_pages;
        sharded.network = options.network;
        sharded.codec = options.codec;
        return std::make_unique<shard::ShardedBackend>(dataset, sharded);
      }
      if (triple) {
        return std::make_unique<ColTripleBackend>(
            dataset, options.clustering, options.disk, options.pool_pages,
            options.codec);
      }
      return std::make_unique<ColVerticalBackend>(
          dataset, options.disk, options.pool_pages, options.codec);
    case EngineKind::kRowStore:
      if (triple) {
        SWAN_CHECK_MSG(options.clustering == rdf::TripleOrder::kSPO ||
                           options.clustering == rdf::TripleOrder::kPSO,
                       "row triple-store supports SPO or PSO clustering");
        return std::make_unique<RowTripleBackend>(
            dataset,
            options.clustering == rdf::TripleOrder::kSPO
                ? rowstore::TripleRelation::SpoConfig()
                : rowstore::TripleRelation::PsoConfig(),
            options.disk, options.pool_pages);
      }
      return std::make_unique<RowVerticalBackend>(dataset, options.disk,
                                                  options.pool_pages);
    case EngineKind::kCStore: {
      SWAN_CHECK_MSG(!triple, "C-Store implements only the vertical scheme");
      std::vector<uint64_t> props = options.cstore_properties;
      if (props.empty()) props = dataset.DistinctProperties();
      return std::make_unique<CStoreBackend>(
          dataset, std::move(props),
          cstore::CStoreEngine::RecommendedDiskConfig(
              options.disk.bandwidth_mb_per_s),
          options.pool_pages);
    }
  }
  std::abort();
}

std::unique_ptr<RdfStore> RdfStore::Open(const rdf::Dataset& dataset,
                                         StoreOptions options) {
  std::unique_ptr<Backend> backend = OpenBackend(dataset, options);
  return std::unique_ptr<RdfStore>(
      new RdfStore(dataset, std::move(options), std::move(backend)));
}

}  // namespace swan::core
