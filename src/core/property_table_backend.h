#ifndef SWANDB_CORE_PROPERTY_TABLE_BACKEND_H_
#define SWANDB_CORE_PROPERTY_TABLE_BACKEND_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/row_backends.h"
#include "rowstore/sorted_table.h"
#include "rowstore/triple_relation.h"

namespace swan::core {

// EXTENSION BEYOND THE PAPER. The third storage scheme of the VLDB 2007
// debate — the property table of Jena2 / Oracle [4, 9, 10] — which the
// paper deliberately excludes ("We do not analyze the property table
// dimension, which requires amongst others an evaluation using database
// design wizards", §1). This backend implements a simple wizard: the
// `width` most frequent properties are flattened into one wide clustered
// table keyed by subject (NULL-padded, first value per subject), and
// everything else — rarer properties and additional values of multi-valued
// properties — lands in a PSO-clustered overflow triple table.
//
// It exhibits exactly the drawbacks Abadi et al. describe and the paper
// quotes: NULL-dense wide rows, multi-valued attributes forced into the
// overflow, and "proliferation of union clauses" whenever the property is
// not bound. Read-only: property tables are notoriously update-hostile
// (any schema re-selection rewrites the table).
//
// Queries run on the shared row-engine executor; a branch pass is the
// default single serial branch (the scheme is the paper's excluded
// extension, not a scalability subject).
class PropertyTableBackend : public RowBackend {
 public:
  static constexpr uint64_t kNull = UINT64_MAX;

  PropertyTableBackend(const rdf::Dataset& dataset, uint32_t width = 20,
                       storage::DiskConfig disk_config = {},
                       size_t pool_pages = 65536);

  std::string name() const override { return "DBX prop. table"; }
  // Inserts land in the overflow triple table (as Jena2 property tables
  // do): the wide table's schema and rows stay untouched, at the price of
  // the overflow growing — re-running the design wizard would be a full
  // rewrite.
  Status Insert(const rdf::Triple& triple) override;
  uint64_t disk_bytes() const override {
    return wide_->disk_bytes() + overflow_->disk_bytes();
  }

  // The properties materialized as wide-table columns (the wizard's pick).
  const std::vector<uint64_t>& wide_properties() const { return wide_props_; }
  uint64_t overflow_triples() const { return overflow_->size(); }

  plan::AccessHints PlannerHints() const override {
    plan::AccessHints hints;
    hints.clustered_by_property = true;  // wide columns + PSO overflow
    hints.subject_indexed = true;        // wide table keyed on subject
    hints.property_fanout = true;        // unbound property scans all columns
    return hints;
  }

  audit::AuditReport Audit(audit::AuditLevel level) const override {
    audit::AuditReport report;
    wide_->AuditInto(level, &report);
    overflow_->AuditInto(level, &report);
    report.Merge(BackendBase::Audit(level));
    return report;
  }

 private:
  // Streams every triple matching `pattern` (wide columns + overflow).
  void ScanPattern(const rdf::TriplePattern& pattern,
                   const TripleFn& fn) const override;

  std::vector<uint64_t> wide_props_;                 // column j -> property
  std::unordered_map<uint64_t, uint32_t> column_of_;  // property -> column j
  std::unique_ptr<rowstore::SortedTable> wide_;
  std::unique_ptr<rowstore::TripleRelation> overflow_;
};

}  // namespace swan::core

#endif  // SWANDB_CORE_PROPERTY_TABLE_BACKEND_H_
