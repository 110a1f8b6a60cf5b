#ifndef SWANDB_CORE_COL_BACKENDS_H_
#define SWANDB_CORE_COL_BACKENDS_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "colstore/ops.h"
#include "colstore/triple_table.h"
#include "colstore/vertical_table.h"
#include "core/phased_backend.h"

namespace swan::core {

// "MonetDB triple SPO/PSO" of Tables 6/7: the triple-store scheme on the
// column engine. Plans are vectorized full-column operations; cold runs
// pay for reading every touched column in full, which is the column
// triple-store's characteristic cost (§4.3).
class ColTripleBackend : public PhasedBackend {
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

  // True if the triple exists in the merged (base) columns.
  bool BaseContains(const rdf::Triple& triple) const;
  uint64_t PendingWrites() const override {
    return delta_.size() + tombstones_.size();
  }
  uint64_t EnsureMerged() override;

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
class ColVerticalBackend : public PhasedBackend {
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
      uint64_t universe, const colstore::MinCount& min_count,
      const exec::ExecContext& ectx) const override;
  SubjectObjects SubjectObjectPairs(
      uint64_t property, std::span<const uint64_t> subjects,
      const exec::ExecContext& ectx) const override;
  std::vector<uint64_t> SubjectsWithObjectIn(
      std::span<const uint64_t> objects, std::optional<uint64_t> property,
      uint64_t universe, const exec::ExecContext& ectx) const override;

  uint64_t PendingWrites() const override {
    return delta_set_.size() + tombstones_.size();
  }
  uint64_t EnsureMerged() override;

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
