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
#include "core/backend.h"
#include "rowstore/triple_relation.h"
#include "rowstore/vertical_relation.h"

namespace swan::core {

// The row engine ("DBX" of Tables 6/7): one executor answers the 12
// benchmark queries for every physical design, which differ only in two
// scan primitives. Plans are pipelines over leaf-at-a-time scans: each
// B+tree leaf a scan walks arrives as one batch of its decoded matches,
// and the operators above — generic hash join/aggregation — take the
// batch apart tuple by tuple. The row store cannot assume dense ids the
// way the column engine does, which is one half of the order-of-magnitude
// gap the paper measures; the other half is page-at-a-time I/O through
// the buffer pool. That is why the family does not reuse ColumnBackend's
// dense, universe-sized phases: filters, group counts and join build sides
// here are hash tables over 64-bit ids (IdSet/IdMap, probed per tuple),
// and every branch of a pass keeps its own hash partial. The one shared
// operator is q3/q4's (property, object) group count: every engine feeds
// its selected pairs to colstore::CountPairs.
class RowBackend : public BackendBase {
 public:
  // `tag` prefixes the engine's span names ("row_triple", "row_vert").
  RowBackend(std::string tag, storage::DiskConfig disk_config,
             size_t pool_pages)
      : BackendBase(disk_config, pool_pages),
        tag_(std::move(tag)),
        match_span_(tag_ + ".match") {}

  using Backend::Run;
  using Backend::Match;
  QueryResult Run(QueryId id, const QueryContext& ctx,
                  const exec::ExecContext& ectx) final;
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
  // `subjects` when non-null (a semi-join), else any.
  struct Pass {
    const std::vector<uint64_t>* props = nullptr;
    const IdSet* subjects = nullptr;
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

  // Subjects s with (s, property, object), restricted to `within` when
  // non-null.
  IdSet SubjectSet(uint64_t property, uint64_t object,
                   const exec::ExecContext& ectx,
                   const IdSet* within = nullptr) const;
  // Group-counts the triples of `pass` by `key(triple)` (an optional:
  // nullopt drops the triple), one hash partial per branch, summed in
  // branch order.
  template <typename Key>
  Counts CountPass(const Pass& pass, const exec::ExecContext& ectx,
                   const Key& key) const;
  // Appends the (property, object) pairs of the triples of `pass`, one
  // partial per branch, concatenated in branch order.
  void PropertyObjectPairs(const Pass& pass, const exec::ExecContext& ectx,
                           std::vector<uint64_t>* props,
                           std::vector<uint64_t>* objects) const;
  // q5/q7: hash join of the `build` property's triples whose subject is in
  // `a`, keyed by their object (q5) or subject (q7), probed with the type
  // triples on their subject; `emit(build value, type triple)` appends the
  // match's row, if any, to `result`.
  void JoinWithTypes(uint64_t build, bool key_by_object, const IdSet& a,
                     uint64_t type, const exec::ExecContext& ectx,
                     const std::function<void(uint64_t, const rdf::Triple&)>&
                         emit,
                     QueryResult* result) const;

  std::string tag_;
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
                                  const std::vector<uint64_t>& temp_table,
                                  uint64_t branch, const BranchFn& fn) const;

  std::unique_ptr<rowstore::VerticalRelation> relation_;
};

}  // namespace swan::core

#endif  // SWANDB_CORE_ROW_BACKENDS_H_
