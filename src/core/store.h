#ifndef SWANDB_CORE_STORE_H_
#define SWANDB_CORE_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/backend.h"
#include "colstore/compression.h"
#include "core/bgp.h"
#include "core/query.h"
#include "net/network_model.h"
#include "rdf/dataset.h"

namespace swan::core {

// Which relational RDF storage scheme to materialize. kPropertyTable is
// an extension beyond the paper (which excludes that scheme; §1) and is
// only available on the row engine.
enum class StorageScheme { kTripleStore, kVerticalPartitioned, kPropertyTable };

// Which engine architecture executes the queries.
enum class EngineKind { kRowStore, kColumnStore, kCStore };

std::string ToString(StorageScheme scheme);
std::string ToString(EngineKind engine);

struct StoreOptions {
  StorageScheme scheme = StorageScheme::kVerticalPartitioned;
  EngineKind engine = EngineKind::kColumnStore;

  // Clustering / sort order for the triple-store scheme (SPO or PSO; the
  // row engine additionally builds the paper's secondary indices).
  rdf::TripleOrder clustering = rdf::TripleOrder::kPSO;

  // I/O model; defaults to the paper's machine B (390 MB/s RAID).
  storage::DiskConfig disk;

  // Buffer-pool capacity in 8 KiB pages.
  size_t pool_pages = 65536;

  // On-disk column codec for the column-store engine (the C-Store engine
  // always compresses). kRaw matches the paper's MonetDB 5.6 baseline.
  colstore::ColumnCodec codec = colstore::ColumnCodec::kRaw;

  // For EngineKind::kCStore: the property subset to load. Empty means all
  // distinct properties of the dataset.
  std::vector<uint64_t> cstore_properties;

  // For StorageScheme::kPropertyTable: how many of the most frequent
  // properties the design wizard flattens into the wide table.
  uint32_t property_table_width = 20;

  // Scale-out: simulated node count. 1 opens the exact single-node
  // backends; > 1 materializes the column-store schemes as a sharded
  // store over a simulated multi-node topology (property placement with
  // subject-hash sub-splits, modeled network). Row and C-Store engines
  // stay single-node. pool_pages is the TOTAL across nodes either way.
  int nodes = 1;
  net::NetworkConfig network;
};

// The public faсade of swandb: an RDF store materialized under one
// scheme × engine combination. Holds a reference to the Dataset (which
// must outlive the store); all query answers are dictionary ids that can
// be decoded through dataset.dict().
//
// Typical use:
//
//   rdf::Dataset data = ...;                       // load or generate
//   StoreOptions options;
//   options.scheme = StorageScheme::kVerticalPartitioned;
//   options.engine = EngineKind::kColumnStore;
//   auto store = RdfStore::Open(data, options);
//   auto bindings = store->ExecuteBgp({...});      // ad-hoc BGP query
//
class RdfStore {
 public:
  static std::unique_ptr<RdfStore> Open(const rdf::Dataset& dataset,
                                        StoreOptions options = {});

  // Runs one of the 12 fixed benchmark queries. The overload without an
  // ExecContext uses the globally configured thread width.
  QueryResult Run(QueryId id, const QueryContext& ctx) {
    return backend_->Run(id, ctx);
  }
  QueryResult Run(QueryId id, const QueryContext& ctx,
                  const exec::ExecContext& ectx) {
    return backend_->Run(id, ctx, ectx);
  }

  // Single triple-pattern lookup.
  std::vector<rdf::Triple> Match(const rdf::TriplePattern& pattern) const {
    return backend_->Match(pattern);
  }
  std::vector<rdf::Triple> Match(const rdf::TriplePattern& pattern,
                                 const exec::ExecContext& ectx) const {
    return backend_->Match(pattern, ectx);
  }

  // Conjunctive pattern (BGP) query, planned cost-based: the statistics
  // are collected once at open time and the backend supplies its
  // access-path hints. The default context runs at the globally
  // configured thread width.
  Result<BgpResult> ExecuteBgp(
      const std::vector<BgpPattern>& patterns,
      const exec::ExecContext& ectx = exec::ExecContext()) const {
    return core::ExecuteBgp(*backend_, patterns, ectx, planner_options());
  }

  // Load-time statistics over the dataset (per-property cardinalities and
  // distinct subject/object counts) and the planner options
  // every store-level query runs under.
  const plan::StoreStats& stats() const { return stats_; }
  plan::PlannerOptions planner_options() const {
    plan::PlannerOptions options;
    options.mode = plan::PlanMode::kCostBased;
    options.stats = &stats_;
    options.hints = backend_->PlannerHints();
    return options;
  }

  // The store's write path. Every *successful* mutation bumps the
  // snapshot version exactly once; failed writes (duplicates, absent
  // triples, read-only engines) leave it untouched. Layers that key state
  // on store contents — notably the serving layer's result cache — use
  // the version as the invalidation fence: a result computed at version v
  // is stale once snapshot_version() > v.
  Status Insert(const rdf::Triple& triple) {
    const Status st = backend_->Insert(triple);
    if (st.ok()) snapshot_version_.fetch_add(1, std::memory_order_acq_rel);
    return st;
  }
  Status Delete(const rdf::Triple& triple) {
    const Status st = backend_->Delete(triple);
    if (st.ok()) snapshot_version_.fetch_add(1, std::memory_order_acq_rel);
    return st;
  }

  // Monotone snapshot counter; starts at 1 for a freshly opened store.
  uint64_t snapshot_version() const {
    return snapshot_version_.load(std::memory_order_acquire);
  }

  // Benchmark protocol hooks.
  void DropCaches() { backend_->DropCaches(); }

  // Deep invariant audit: backend structures, buffer pool, page checksums,
  // plus the shared dictionary's id<->term bijection, plus any registered
  // auxiliary walkers (e.g. the serving layer's result cache).
  audit::AuditReport Audit(audit::AuditLevel level) const {
    audit::AuditReport report = backend_->Audit(level);
    dataset_->dict().AuditInto(level, &report);
    stats_.AuditInto(level, &report, *dataset_);
    for (const HookEntry& entry : audit_hooks_) entry.hook(level, &report);
    return report;
  }

  // Registers an auxiliary audit walker run by every Audit() call. Used
  // by layers stacked on top of the store whose invariants reference
  // store state (the serve::ResultCache entries must not outlive the
  // snapshot version they were computed at). The hook must stay valid for
  // the store's lifetime or until the owner unregisters it by token.
  using AuditHook =
      std::function<void(audit::AuditLevel, audit::AuditReport*)>;
  uint64_t AddAuditHook(AuditHook hook) {
    audit_hooks_.push_back({next_hook_token_, std::move(hook)});
    return next_hook_token_++;
  }
  void RemoveAuditHook(uint64_t token) {
    for (size_t i = 0; i < audit_hooks_.size(); ++i) {
      if (audit_hooks_[i].token == token) {
        audit_hooks_.erase(audit_hooks_.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
  }

  Backend& backend() { return *backend_; }
  const Backend& backend() const { return *backend_; }
  const rdf::Dataset& dataset() const { return *dataset_; }
  const StoreOptions& options() const { return options_; }

  std::string name() const { return backend_->name(); }
  uint64_t disk_bytes() const { return backend_->disk_bytes(); }

 private:
  RdfStore(const rdf::Dataset& dataset, StoreOptions options,
           std::unique_ptr<Backend> backend)
      : dataset_(&dataset),
        options_(std::move(options)),
        backend_(std::move(backend)),
        stats_(plan::StoreStats::Collect(dataset)) {}

  struct HookEntry {
    uint64_t token;
    AuditHook hook;
  };

  const rdf::Dataset* dataset_;
  StoreOptions options_;
  std::unique_ptr<Backend> backend_;
  plan::StoreStats stats_;
  std::atomic<uint64_t> snapshot_version_{1};
  std::vector<HookEntry> audit_hooks_;
  uint64_t next_hook_token_ = 1;
};

}  // namespace swan::core

#endif  // SWANDB_CORE_STORE_H_
