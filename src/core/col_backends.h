#ifndef SWANDB_CORE_COL_BACKENDS_H_
#define SWANDB_CORE_COL_BACKENDS_H_

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "colstore/ops.h"
#include "colstore/triple_table.h"
#include "colstore/vertical_table.h"
#include "core/phased_backend.h"

namespace swan::core {

// The write store both column engines share. Inserts and deletes buffer
// here; the next Run() folds them into rebuilt read-optimized columns
// (PhasedBackend::MergeDelta). A pending insert is a triple the base does
// not hold; a tombstone marks a base triple deleted since the last merge.
// This is the one place a column store's writes pass through.
class WriteStore {
 public:
  // `base_contains` probes the store's merged base columns for a triple.
  explicit WriteStore(std::function<bool(const rdf::Triple&)> base_contains)
      : base_contains_(std::move(base_contains)) {}

  // A re-insert of a tombstoned row cancels the tombstone (the base still
  // holds it); a pending or base triple is AlreadyExists.
  Status Insert(const rdf::Triple& triple);
  // A delete of a pending insert cancels it; a tombstoned or absent triple
  // is NotFound.
  Status Delete(const rdf::Triple& triple);

  // Overlays the writes on `out`, Match's scan of the base: erases the
  // tombstoned rows, then appends the pending inserts, in insertion
  // order, that match `pattern` and pass `filter`.
  void Overlay(const rdf::TriplePattern& pattern,
               const rdf::PatternFilter& filter,
               std::vector<rdf::Triple>* out) const;

  // Pending inserts plus tombstones.
  uint64_t size() const { return inserts_.size() + tombstones_.size(); }
  // Pending inserts, in insertion order.
  const std::vector<rdf::Triple>& inserts() const { return inserts_; }

  // What a rebuild folds into its base rows (MergeSortedRuns): the
  // tombstoned rows to drop and the inserts to add, each sorted by
  // `order`.
  struct Runs {
    std::vector<rdf::Triple> gone;
    std::vector<rdf::Triple> fresh;
  };
  Runs SortedRuns(rdf::TripleOrder order) const;
  void Clear();

 private:
  const std::function<bool(const rdf::Triple&)> base_contains_;
  std::vector<rdf::Triple> inserts_;
  std::unordered_set<rdf::Triple, rdf::TripleHash> insert_set_;
  std::unordered_set<rdf::Triple, rdf::TripleHash> tombstones_;
};

// What both column engines share around their layout: one `Table`
// (colstore::TripleTable or VerticalTable) on a disk and pool, and its
// write store. Each engine adds its base probe, its Match scan, its seven
// phases and its rebuild (EnsureMerged).
template <typename Table>
class ColumnStore : public PhasedBackend {
 public:
  Status Insert(const rdf::Triple& triple) final {
    return writes_.Insert(triple);
  }
  Status Delete(const rdf::Triple& triple) final {
    return writes_.Delete(triple);
  }
  void DropCaches() final {
    table_->DropCaches();
    pool_->Clear();
  }
  uint64_t disk_bytes() const final { return table_->disk_bytes(); }
  // Exact encoded payload vs the 8-bytes-per-value logical image.
  uint64_t stored_bytes() const { return table_->stored_bytes(); }
  uint64_t logical_bytes() const { return table_->logical_bytes(); }
  const Table& table() const { return *table_; }

  ResidentBytes Resident() const final {
    ResidentBytes bytes = BackendBase::Resident();
    bytes.column_images = table_->resident_bytes();
    return bytes;
  }
  audit::AuditReport Audit(audit::AuditLevel level) const final {
    audit::AuditReport report;
    table_->AuditInto(level, dataset_->dict().size(), &report);
    report.Merge(BackendBase::Audit(level));
    AuditNoFrames(&report);
    return report;
  }
  uint64_t PendingWrites() const final { return writes_.size(); }

 protected:
  // Loads the whole dataset over this store's own disk and pool.
  template <typename... TableArgs>
  ColumnStore(std::string tag, const rdf::Dataset& dataset,
              storage::DiskConfig disk_config, size_t pool_pages,
              TableArgs... table_args)
      : PhasedBackend(std::move(tag), disk_config, pool_pages),
        dataset_(&dataset),
        table_(std::make_unique<Table>(pool_, disk_, table_args...)) {
    table_->Load(dataset.triples());
  }
  // Scale-out partition: loads this node's `subset` over storage owned by
  // the topology (ids stay interned in the shared dictionary; `dataset`
  // still provides the dictionary for audits and vocabulary).
  template <typename... TableArgs>
  ColumnStore(std::string tag, const rdf::Dataset& dataset,
              storage::SimulatedDisk* disk, storage::BufferPool* pool,
              std::vector<rdf::Triple> subset, TableArgs... table_args)
      : PhasedBackend(std::move(tag), disk, pool),
        dataset_(&dataset),
        table_(std::make_unique<Table>(pool_, disk_, table_args...)) {
    table_->Load(std::move(subset));
  }

  // True if the triple is in the merged (base) columns.
  virtual bool BaseContains(const rdf::Triple& triple) const = 0;

  // For audit id-range checks; the dataset outlives the backend (RdfStore
  // contract).
  const rdf::Dataset* dataset_;
  std::unique_ptr<Table> table_;
  WriteStore writes_{
      [this](const rdf::Triple& t) { return BaseContains(t); }};
};

// "MonetDB triple SPO/PSO" of Tables 6/7: the triple-store scheme on the
// column engine. Plans are vectorized full-column operations; cold runs
// pay for reading every touched column in full, which is the column
// triple-store's characteristic cost (§4.3).
class ColTripleBackend : public ColumnStore<colstore::TripleTable> {
 public:
  ColTripleBackend(const rdf::Dataset& dataset, rdf::TripleOrder order,
                   storage::DiskConfig disk_config = {},
                   size_t pool_pages = 4096,
                   colstore::ColumnCodec codec = colstore::ColumnCodec::kRaw);
  // Scale-out partition (see ColumnStore).
  ColTripleBackend(const rdf::Dataset& dataset, rdf::TripleOrder order,
                   storage::SimulatedDisk* disk, storage::BufferPool* pool,
                   std::vector<rdf::Triple> subset,
                   colstore::ColumnCodec codec = colstore::ColumnCodec::kRaw);

  std::string name() const override;
  using Backend::Match;
  std::vector<rdf::Triple> Match(
      const rdf::TriplePattern& pattern, const rdf::PatternFilter& filter,
      const exec::ExecContext& ectx) const override;

  plan::AccessHints PlannerHints() const override {
    plan::AccessHints hints;
    hints.clustered_by_property = pso_;
    hints.subject_indexed = !pso_;  // SPO order: subject-prefix probes
    return hints;
  }

 private:
  std::vector<uint64_t> SubjectsOf(
      uint64_t property, uint64_t object,
      const exec::ExecContext& ectx) const override;
  std::vector<uint64_t> ObjectsOf(
      uint64_t subject, const exec::ExecContext& ectx) const override;
  KeyCounts ObjectCounts(uint64_t property, uint64_t universe,
                         const exec::ExecContext& ectx) const override;
  KeyCounts PropertyCounts(std::span<const uint64_t> subjects,
                           const std::vector<uint64_t>* props,
                           uint64_t universe,
                           const exec::ExecContext& ectx) const override;
  std::vector<colstore::PairCount> PropertyObjectCounts(
      std::span<const uint64_t> subjects, const std::vector<uint64_t>* props,
      uint64_t universe, const colstore::MinCount& min_count,
      const exec::ExecContext& ectx) const override;
  SubjectObjects SubjectObjectPairs(
      uint64_t property, std::span<const uint64_t> subjects,
      const exec::ExecContext& ectx) const override;
  std::vector<uint64_t> SubjectsWithObjectIn(
      std::span<const uint64_t> objects, std::optional<uint64_t> property,
      uint64_t universe, const exec::ExecContext& ectx) const override;

  colstore::PositionVector PropPositions(uint64_t property,
                                         const exec::ExecContext& ectx) const;

  bool BaseContains(const rdf::Triple& triple) const override;
  uint64_t EnsureMerged() override;

  const bool pso_ = table_->order() == rdf::TripleOrder::kPSO;
  const colstore::ColumnCodec codec_;
};

// "MonetDB vert. SO": the vertically-partitioned scheme on the column
// engine. Per-property merge joins on sorted subject columns; queries that
// do not bind the property iterate every partition — both the strength
// and the scalability weakness the paper studies.
class ColVerticalBackend : public ColumnStore<colstore::VerticalTable> {
 public:
  explicit ColVerticalBackend(const rdf::Dataset& dataset,
                              storage::DiskConfig disk_config = {},
                              size_t pool_pages = 4096,
                              colstore::ColumnCodec codec =
                                  colstore::ColumnCodec::kRaw)
      : ColumnStore("col_vert", dataset, disk_config, pool_pages, codec) {}
  // Scale-out partition (see ColumnStore).
  ColVerticalBackend(const rdf::Dataset& dataset,
                     storage::SimulatedDisk* disk, storage::BufferPool* pool,
                     std::vector<rdf::Triple> subset,
                     colstore::ColumnCodec codec = colstore::ColumnCodec::kRaw)
      : ColumnStore("col_vert", dataset, disk, pool, std::move(subset),
                    codec) {}

  std::string name() const override { return "MonetDB vert. SO"; }
  using Backend::Match;
  std::vector<rdf::Triple> Match(
      const rdf::TriplePattern& pattern, const rdf::PatternFilter& filter,
      const exec::ExecContext& ectx) const override;

  // Partitions the data-driven schema grew since the load: merged ones
  // and those that pending inserts on new properties will create.
  uint64_t partitions_created() const;

  plan::AccessHints PlannerHints() const override {
    plan::AccessHints hints;
    hints.clustered_by_property = true;   // one partition per property
    hints.subject_indexed = true;         // partitions sorted by subject
    hints.property_fanout = true;         // unbound property = all partitions
    return hints;
  }

 private:
  std::vector<uint64_t> SubjectsOf(
      uint64_t property, uint64_t object,
      const exec::ExecContext& ectx) const override;
  std::vector<uint64_t> ObjectsOf(
      uint64_t subject, const exec::ExecContext& ectx) const override;
  KeyCounts ObjectCounts(uint64_t property, uint64_t universe,
                         const exec::ExecContext& ectx) const override;
  KeyCounts PropertyCounts(std::span<const uint64_t> subjects,
                           const std::vector<uint64_t>* props,
                           uint64_t universe,
                           const exec::ExecContext& ectx) const override;
  std::vector<colstore::PairCount> PropertyObjectCounts(
      std::span<const uint64_t> subjects, const std::vector<uint64_t>* props,
      uint64_t universe, const colstore::MinCount& min_count,
      const exec::ExecContext& ectx) const override;
  SubjectObjects SubjectObjectPairs(
      uint64_t property, std::span<const uint64_t> subjects,
      const exec::ExecContext& ectx) const override;
  std::vector<uint64_t> SubjectsWithObjectIn(
      std::span<const uint64_t> objects, std::optional<uint64_t> property,
      uint64_t universe, const exec::ExecContext& ectx) const override;

  bool BaseContains(const rdf::Triple& triple) const override;
  uint64_t EnsureMerged() override;

  const uint64_t loaded_partitions_ = table_->properties().size();
};

}  // namespace swan::core

#endif  // SWANDB_CORE_COL_BACKENDS_H_
