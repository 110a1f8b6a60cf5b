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

std::unique_ptr<RdfStore> RdfStore::Open(const rdf::Dataset& dataset,
                                         StoreOptions options) {
  SWAN_CHECK_MSG(options.nodes >= 1, "store needs at least one node");
  SWAN_CHECK_MSG(options.nodes == 1 || options.engine == EngineKind::kColumnStore,
                 "scale-out (nodes > 1) is column-store only");
  std::unique_ptr<Backend> backend;
  switch (options.engine) {
    case EngineKind::kColumnStore:
      if (options.nodes > 1) {
        shard::ShardOptions sharded;
        sharded.nodes = options.nodes;
        sharded.vertical =
            options.scheme == StorageScheme::kVerticalPartitioned;
        sharded.order = options.clustering;
        sharded.disk = options.disk;
        sharded.pool_pages = options.pool_pages;
        sharded.network = options.network;
        sharded.codec = options.codec;
        backend = std::make_unique<shard::ShardedBackend>(dataset, sharded);
        break;
      }
      if (options.scheme == StorageScheme::kTripleStore) {
        backend = std::make_unique<ColTripleBackend>(
            dataset, options.clustering, options.disk, options.pool_pages,
            options.codec);
      } else {
        backend = std::make_unique<ColVerticalBackend>(
            dataset, options.disk, options.pool_pages, options.codec);
      }
      break;
    case EngineKind::kRowStore: {
      if (options.scheme == StorageScheme::kTripleStore) {
        rowstore::TripleRelation::Config config =
            options.clustering == rdf::TripleOrder::kSPO
                ? rowstore::TripleRelation::SpoConfig()
                : rowstore::TripleRelation::PsoConfig();
        SWAN_CHECK_MSG(options.clustering == rdf::TripleOrder::kSPO ||
                           options.clustering == rdf::TripleOrder::kPSO,
                       "row triple-store supports SPO or PSO clustering");
        backend = std::make_unique<RowTripleBackend>(
            dataset, std::move(config), options.disk, options.pool_pages);
      } else {
        backend = std::make_unique<RowVerticalBackend>(
            dataset, options.disk, options.pool_pages);
      }
      break;
    }
    case EngineKind::kCStore: {
      SWAN_CHECK_MSG(options.scheme == StorageScheme::kVerticalPartitioned,
                     "C-Store implements only the vertical scheme");
      std::vector<uint64_t> props = options.cstore_properties;
      if (props.empty()) props = dataset.DistinctProperties();
      backend = std::make_unique<CStoreBackend>(
          dataset, std::move(props), options.disk, options.pool_pages);
      break;
    }
  }
  return std::unique_ptr<RdfStore>(
      new RdfStore(dataset, std::move(options), std::move(backend)));
}

}  // namespace swan::core
