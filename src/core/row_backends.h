#ifndef SWANDB_CORE_ROW_BACKENDS_H_
#define SWANDB_CORE_ROW_BACKENDS_H_

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/id_hash.h"
#include "core/phased_backend.h"
#include "rowstore/triple_relation.h"
#include "rowstore/vertical_relation.h"

namespace swan::core {

// The row engine ("DBX" of Tables 6/7): the physical designs differ only
// in two scan primitives, and the skeleton's seven phases (PhasedBackend)
// run on top of them. Plans are pipelines over leaf-at-a-time scans: each
// B+tree leaf a scan walks arrives as one batch of its decoded matches,
// and the operators above take the batch apart tuple by tuple. The row
// store cannot assume dense ids the way the column engine does, which is
// one half of the order-of-magnitude gap the paper measures; the other
// half is page-at-a-time I/O through the buffer pool. So the phases' sorted
// set arguments become hash tables probed per tuple (an IdSet, or the
// vertical store's per-branch tables), and a pass keeps one IdMap partial
// per branch.
class RowBackend : public PhasedBackend {
 public:
  // `tag` prefixes the engine's span names ("row_triple", "row_vert").
  RowBackend(std::string tag, storage::DiskConfig disk_config,
             size_t pool_pages)
      : PhasedBackend(std::move(tag), disk_config, pool_pages),
        match_span_(this->tag() + ".match") {}

  using Backend::Match;
  // Pattern lookups keep canonical key order, so they stay serial.
  std::vector<rdf::Triple> Match(const rdf::TriplePattern& pattern,
                                 const exec::ExecContext& ectx) const final;
  void DropCaches() override { pool_->Clear(); }

 protected:
  // A scan's output arrives in batches (one B+tree leaf's matches each),
  // valid only during the call.
  using TripleFn = std::function<void(std::span<const rdf::Triple>)>;
  using BranchFn =
      std::function<void(uint64_t branch, std::span<const rdf::Triple>)>;

  // The triples a branch pass visits: those of `props` (sorted; nullptr =
  // every property) whose subject is `subject` when bound, else is in
  // `subjects` (sorted, duplicate-free) when set (a semi-join), else any.
  struct Pass {
    const std::vector<uint64_t>* props = nullptr;
    std::optional<std::span<const uint64_t>> subjects = std::nullopt;
    std::optional<uint64_t> subject = std::nullopt;
  };

  // Streams every triple matching `pattern`, serially, in canonical order,
  // in batches.
  virtual void ScanPattern(const rdf::TriplePattern& pattern,
                           const TripleFn& fn) const = 0;
  // Runs `pass` as independent branches that fan out over `ectx`:
  // `start(branches)` runs once, then `fn(branch, batch)` concurrently
  // across branches, each batch holding only the pass's triples.
  virtual void ScanBranches(const Pass& pass, const exec::ExecContext& ectx,
                            const std::function<void(uint64_t)>& start,
                            const BranchFn& fn) const = 0;

 private:
  using Counts = IdMap<uint64_t>;

  // The phases: a pattern scan for SubjectsOf, q1 and the probes through
  // one property; a branch pass for the rest.
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

  // Group-counts the triples of `pass` by `key(triple)` (an optional:
  // nullopt drops the triple), one hash partial per branch, summed in
  // branch order; the groups come out ascending by key.
  template <typename Key>
  KeyCounts CountPass(const Pass& pass, const exec::ExecContext& ectx,
                      const Key& key) const;
  // Appends the (property, object) pairs of the triples of `pass`, one
  // partial per branch, concatenated in branch order.
  void PropertyObjectPairs(const Pass& pass, const exec::ExecContext& ectx,
                           std::vector<uint64_t>* props,
                           std::vector<uint64_t>* objects) const;

  std::string match_span_;
};

// "DBX triple SPO/PSO": the triple-store scheme. A branch pass is a full
// scan of the clustered tree, split into leaf-range chunks, that tests the
// pass's filters on the raw key words; a subject probe is one index
// descent, one serial branch.
class RowTripleBackend : public RowBackend {
 public:
  RowTripleBackend(const rdf::Dataset& dataset,
                   rowstore::TripleRelation::Config config,
                   storage::DiskConfig disk_config = {},
                   size_t pool_pages = 65536);

  std::string name() const override;
  Status Insert(const rdf::Triple& triple) override {
    return relation_->Insert(triple)
               ? Status::OK()
               : Status::AlreadyExists("triple already present");
  }
  uint64_t disk_bytes() const override { return relation_->disk_bytes(); }

  const rowstore::TripleRelation& relation() const { return *relation_; }

  plan::AccessHints PlannerHints() const override {
    const bool pso =
        relation_->config().clustered == rdf::TripleOrder::kPSO;
    plan::AccessHints hints;
    hints.clustered_by_property = pso;
    hints.subject_indexed = !pso;  // SPO clustering: subject-prefix probes
    return hints;
  }

  audit::AuditReport Audit(audit::AuditLevel level) const override {
    audit::AuditReport report;
    relation_->AuditInto(level, &report);
    report.Merge(BackendBase::Audit(level));
    return report;
  }

 private:
  void ScanPattern(const rdf::TriplePattern& pattern,
                   const TripleFn& fn) const override;
  void ScanBranches(const Pass& pass, const exec::ExecContext& ectx,
                    const std::function<void(uint64_t)>& start,
                    const BranchFn& fn) const override;

  std::unique_ptr<rowstore::TripleRelation> relation_;
};

// "DBX vert. SO": the vertically-partitioned scheme. A branch pass is one
// union branch per property B+tree — the "proliferation of unions and
// joins" the paper turns against the vertical scheme on row stores.
class RowVerticalBackend : public RowBackend {
 public:
  explicit RowVerticalBackend(const rdf::Dataset& dataset,
                              storage::DiskConfig disk_config = {},
                              size_t pool_pages = 65536);

  std::string name() const override;
  Status Insert(const rdf::Triple& triple) override {
    return relation_->Insert(triple)
               ? Status::OK()
               : Status::AlreadyExists("triple already present");
  }
  uint64_t disk_bytes() const override { return relation_->disk_bytes(); }

  const rowstore::VerticalRelation& relation() const { return *relation_; }

  plan::AccessHints PlannerHints() const override {
    plan::AccessHints hints;
    hints.clustered_by_property = true;  // one B+tree per property
    hints.subject_indexed = true;        // keyed on (subject, object)
    hints.property_fanout = true;        // unbound property = every tree
    return hints;
  }

  audit::AuditReport Audit(audit::AuditLevel level) const override {
    audit::AuditReport report;
    relation_->AuditInto(level, &report);
    report.Merge(BackendBase::Audit(level));
    return report;
  }

 private:
  void ScanPattern(const rdf::TriplePattern& pattern,
                   const TripleFn& fn) const override;
  void ScanBranches(const Pass& pass, const exec::ExecContext& ectx,
                    const std::function<void(uint64_t)>& start,
                    const BranchFn& fn) const override;
  // One union branch: hash-joins a partition with `temp_table` (distinct
  // subjects), building on the smaller side, and calls `fn(branch, batch)`
  // with the matching partition rows.
  void JoinPartitionWithTempTable(uint64_t property,
                                  std::span<const uint64_t> temp_table,
                                  uint64_t branch, const BranchFn& fn) const;

  std::unique_ptr<rowstore::VerticalRelation> relation_;
};

}  // namespace swan::core

#endif  // SWANDB_CORE_ROW_BACKENDS_H_
