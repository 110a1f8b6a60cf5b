#ifndef SWANDB_CORE_COL_BACKENDS_H_
#define SWANDB_CORE_COL_BACKENDS_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "colstore/ops.h"
#include "colstore/triple_table.h"
#include "colstore/vertical_table.h"
#include "core/backend.h"

namespace swan::core {

// (key, count) groups, ascending by key.
using KeyCounts = std::vector<std::pair<uint64_t, uint64_t>>;
// (subject, object) rows of one property, ascending.
using SubjectObjects = std::vector<std::pair<uint64_t, uint64_t>>;

// A column engine as one partition of the 12 benchmark queries. Every
// phase reads only this backend's merged base columns and takes its
// filter as an argument, so one scatter/gather routine (RunPartitioned)
// serves a single node, which is one partition, and the nodes of a
// scale-out store alike. Outputs are sorted and duplicate-free, so
// partials from several nodes merge linearly at a coordinator.
//
// Property lists (`props`) are sorted; nullptr means every property.
// `universe` bounds the dictionary ids (dense MarkSet / counter sizing).
class ColumnBackend : public BackendBase {
 public:
  // `tag` prefixes the engine's span names ("col_vert", "col_triple").
  ColumnBackend(std::string tag, storage::DiskConfig disk_config,
                size_t pool_pages)
      : BackendBase(disk_config, pool_pages), tag_(std::move(tag)) {}
  ColumnBackend(std::string tag, storage::SimulatedDisk* disk,
                storage::BufferPool* pool)
      : BackendBase(disk, pool), tag_(std::move(tag)) {}

  // The 12 benchmark queries over this backend alone: RunPartitioned
  // with one partition and no network.
  using Backend::Run;
  QueryResult Run(QueryId id, const QueryContext& ctx,
                  const exec::ExecContext& ectx) final;

  // The 12 benchmark queries over `parts`, partition n on node n of
  // `routing` (nullptr: one partition, no network). Every partition first
  // folds its write store into its base columns. Each query then gathers
  // its filter from the nodes holding it and ships it to the nodes that
  // consume it, runs its phase on every holder, and merges the sorted
  // partials at the routing's coordinator, where HAVING applies. A single
  // partial is the answer as it stands. The root span is
  // "<tag>.<FamilyName(id)>".
  static QueryResult RunPartitioned(std::span<ColumnBackend* const> parts,
                                    DistRouting* routing,
                                    std::string_view tag, QueryId id,
                                    const QueryContext& ctx,
                                    const exec::ExecContext& ectx);

  uint64_t merge_count() const { return merge_count_; }

 protected:
  // Rows waiting in the write store (inserts + tombstones).
  virtual uint64_t PendingWrites() const = 0;
  // Rebuilds the read-optimized columns from base + write store.
  virtual void EnsureMerged() = 0;

 private:
  // Applies buffered inserts and deletes to the base columns; the phases
  // never see the write store.
  void MergeDelta(const exec::ExecContext& ectx);

  // --- filters ------------------------------------------------------------
  // Subjects s with (s, property, object).
  virtual std::vector<uint64_t> SubjectsOf(
      uint64_t property, uint64_t object,
      const exec::ExecContext& ectx) const = 0;
  // Objects o with (subject, ?, o).
  virtual std::vector<uint64_t> ObjectsOf(
      uint64_t subject, const exec::ExecContext& ectx) const = 0;

  // --- phases -------------------------------------------------------------
  // q1: object counts of one property.
  virtual KeyCounts ObjectCounts(uint64_t property, uint64_t universe,
                                 const exec::ExecContext& ectx) const = 0;
  // q2/q6: per-property triple counts of the `subjects` (sorted).
  virtual KeyCounts PropertyCounts(std::span<const uint64_t> subjects,
                                   const std::vector<uint64_t>* props,
                                   uint64_t universe,
                                   const exec::ExecContext& ectx) const = 0;
  // q3/q4: (property, object) group counts of the `subjects`, with no
  // HAVING applied (it only holds over merged counts).
  virtual std::vector<colstore::PairCount> PropertyObjectCounts(
      std::span<const uint64_t> subjects, const std::vector<uint64_t>* props,
      uint64_t universe, const exec::ExecContext& ectx) const = 0;
  // q5/q7: (subject, object) rows of `property` whose subject is in
  // `subjects` (sorted).
  virtual SubjectObjects SubjectObjectPairs(
      uint64_t property, std::span<const uint64_t> subjects,
      const exec::ExecContext& ectx) const = 0;
  // q6/q8: subjects with an object in `objects`, through `property` or
  // through any property.
  virtual std::vector<uint64_t> SubjectsWithObjectIn(
      const colstore::MarkSet& objects, std::optional<uint64_t> property,
      const exec::ExecContext& ectx) const = 0;

  std::string tag_;
  uint64_t merge_count_ = 0;
};

// "MonetDB triple SPO/PSO" of Tables 6/7: the triple-store scheme on the
// column engine. Plans are vectorized full-column operations; cold runs
// pay for reading every touched column in full, which is the column
// triple-store's characteristic cost (§4.3).
class ColTripleBackend : public ColumnBackend {
 public:
  ColTripleBackend(const rdf::Dataset& dataset, rdf::TripleOrder order,
                   storage::DiskConfig disk_config = {},
                   size_t pool_pages = 4096,
                   colstore::ColumnCodec codec = colstore::ColumnCodec::kRaw);

  // Scale-out partition: this node's share of the dataset, over storage
  // owned by the topology (ids stay interned in the shared dictionary;
  // `dataset` still provides the dictionary for audits and vocabulary).
  ColTripleBackend(const rdf::Dataset& dataset, rdf::TripleOrder order,
                   storage::SimulatedDisk* disk, storage::BufferPool* pool,
                   std::vector<rdf::Triple> subset,
                   colstore::ColumnCodec codec = colstore::ColumnCodec::kRaw);

  std::string name() const override;
  using Backend::Match;
  std::vector<rdf::Triple> Match(
      const rdf::TriplePattern& pattern,
      const exec::ExecContext& ectx) const override;
  Status Insert(const rdf::Triple& triple) override;
  Status Delete(const rdf::Triple& triple) override;
  void DropCaches() override;
  uint64_t disk_bytes() const override { return table_->disk_bytes(); }
  // Exact encoded payload vs the 8-bytes-per-value logical image.
  uint64_t stored_bytes() const { return table_->stored_bytes(); }
  uint64_t logical_bytes() const { return table_->logical_bytes(); }

  const colstore::TripleTable& table() const { return *table_; }
  uint64_t delta_size() const { return delta_.size(); }

  plan::AccessHints PlannerHints() const override {
    plan::AccessHints hints;
    hints.clustered_by_property = pso_;
    hints.subject_indexed = !pso_;  // SPO order: subject-prefix probes
    return hints;
  }

  audit::AuditReport Audit(audit::AuditLevel level) const override;

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
      uint64_t universe, const exec::ExecContext& ectx) const override;
  SubjectObjects SubjectObjectPairs(
      uint64_t property, std::span<const uint64_t> subjects,
      const exec::ExecContext& ectx) const override;
  std::vector<uint64_t> SubjectsWithObjectIn(
      const colstore::MarkSet& objects, std::optional<uint64_t> property,
      const exec::ExecContext& ectx) const override;

  colstore::PositionVector PropPositions(uint64_t property,
                                         const exec::ExecContext& ectx) const;

  // True if the triple exists in the merged (base) columns.
  bool BaseContains(const rdf::Triple& triple) const;
  uint64_t PendingWrites() const override {
    return delta_.size() + tombstones_.size();
  }
  void EnsureMerged() override;

  bool pso_;
  colstore::ColumnCodec codec_;
  // For audit id-range checks; the dataset outlives the backend (RdfStore
  // contract).
  const rdf::Dataset* dataset_ = nullptr;
  std::unique_ptr<colstore::TripleTable> table_;
  // Write store: inserts buffer here and merge before the next Run().
  std::vector<rdf::Triple> delta_;
  std::unordered_set<rdf::Triple, rdf::TripleHash> delta_set_;
  // Deletes of base rows buffer here; applied at the next merge. A delete
  // of an unmerged insert cancels the delta entry directly instead.
  std::unordered_set<rdf::Triple, rdf::TripleHash> tombstones_;
};

// "MonetDB vert. SO": the vertically-partitioned scheme on the column
// engine. Per-property merge joins on sorted subject columns; queries that
// do not bind the property iterate every partition — both the strength
// and the scalability weakness the paper studies.
class ColVerticalBackend : public ColumnBackend {
 public:
  explicit ColVerticalBackend(const rdf::Dataset& dataset,
                              storage::DiskConfig disk_config = {},
                              size_t pool_pages = 4096,
                              colstore::ColumnCodec codec =
                                  colstore::ColumnCodec::kRaw);

  // Scale-out partition over topology-owned storage (see
  // ColTripleBackend's subset constructor).
  ColVerticalBackend(const rdf::Dataset& dataset,
                     storage::SimulatedDisk* disk, storage::BufferPool* pool,
                     std::vector<rdf::Triple> subset,
                     colstore::ColumnCodec codec = colstore::ColumnCodec::kRaw);

  std::string name() const override;
  using Backend::Match;
  std::vector<rdf::Triple> Match(
      const rdf::TriplePattern& pattern,
      const exec::ExecContext& ectx) const override;
  void DropCaches() override;
  uint64_t disk_bytes() const override { return table_->disk_bytes(); }
  // Exact encoded payload vs the 8-bytes-per-value logical image.
  uint64_t stored_bytes() const { return table_->stored_bytes(); }
  uint64_t logical_bytes() const { return table_->logical_bytes(); }

  Status Insert(const rdf::Triple& triple) override;
  Status Delete(const rdf::Triple& triple) override;

  const colstore::VerticalTable& table() const { return *table_; }
  uint64_t partitions_created() const { return partitions_created_; }

  plan::AccessHints PlannerHints() const override {
    plan::AccessHints hints;
    hints.clustered_by_property = true;   // one partition per property
    hints.subject_indexed = true;         // partitions sorted by subject
    hints.property_fanout = true;         // unbound property = all partitions
    return hints;
  }

  audit::AuditReport Audit(audit::AuditLevel level) const override;

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
      uint64_t universe, const exec::ExecContext& ectx) const override;
  SubjectObjects SubjectObjectPairs(
      uint64_t property, std::span<const uint64_t> subjects,
      const exec::ExecContext& ectx) const override;
  std::vector<uint64_t> SubjectsWithObjectIn(
      const colstore::MarkSet& objects, std::optional<uint64_t> property,
      const exec::ExecContext& ectx) const override;

  uint64_t PendingWrites() const override {
    return delta_set_.size() + tombstones_.size();
  }
  void EnsureMerged() override;

  colstore::ColumnCodec codec_;
  const rdf::Dataset* dataset_ = nullptr;
  std::unique_ptr<colstore::VerticalTable> table_;
  // Write store, per partition; merged before the next Run().
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      delta_;
  std::unordered_set<rdf::Triple, rdf::TripleHash> delta_set_;
  // Deletes of base rows, applied when their partition is next rebuilt.
  std::unordered_set<rdf::Triple, rdf::TripleHash> tombstones_;
  uint64_t partitions_created_ = 0;
};

}  // namespace swan::core

#endif  // SWANDB_CORE_COL_BACKENDS_H_
