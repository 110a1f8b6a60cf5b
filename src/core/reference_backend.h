#ifndef SWANDB_CORE_REFERENCE_BACKEND_H_
#define SWANDB_CORE_REFERENCE_BACKEND_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "core/backend.h"

namespace swan::core {

// Deliberately naive oracle: executes every benchmark query by direct
// loops over an in-memory triple vector, translating the SQL of the
// paper's appendix as literally as possible — no indexes, no access-path
// choice, no vectorization, no shared sub-plan machinery. It exists so
// that the optimized backends can be validated against an implementation
// whose correctness is checkable by eye; it is also the equivalence
// gate's tie-breaker when two optimized backends agree on a wrong answer.
//
// Not benchmarked: its disk is a stub (nothing is ever read from it).
class ReferenceBackend : public BackendBase {
 public:
  explicit ReferenceBackend(const rdf::Dataset& dataset);

  std::string name() const override { return "reference (naive)"; }
  using Backend::Run;
  using Backend::Match;
  QueryResult Run(QueryId id, const QueryContext& ctx,
                  const exec::ExecContext& ectx) override;
  std::vector<rdf::Triple> Match(
      const rdf::TriplePattern& pattern, const rdf::PatternFilter& filter,
      const exec::ExecContext& ectx) const override;
  Status Insert(const rdf::Triple& triple) override;
  Status Delete(const rdf::Triple& triple) override;
  void DropCaches() override {}
  uint64_t disk_bytes() const override { return 0; }

  // Every Match is a full loop over the triples, so one call costs a
  // full pass: priced that way, the planner gathers star arms in one scan
  // instead of looping per binding row.
  plan::AccessHints PlannerHints() const override {
    plan::AccessHints hints;
    hints.clustered_by_property = false;
    hints.subject_indexed = false;
    hints.seek_cost =
        static_cast<double>(triples_.size()) * hints.scan_row_cost;
    return hints;
  }

  // RDF set semantics: the vector and the membership set must hold exactly
  // the same triples.
  audit::AuditReport Audit(audit::AuditLevel level) const override {
    audit::AuditReport report;
    if (triples_.size() != present_.size()) {
      report.Add(audit::FindingClass::kStructure, "reference",
                 "triple vector has " + std::to_string(triples_.size()) +
                     " rows, membership set has " +
                     std::to_string(present_.size()) +
                     " (duplicates or drift)");
    }
    report.Merge(BackendBase::Audit(level));
    return report;
  }

 private:
  std::vector<rdf::Triple> triples_;
  std::unordered_set<rdf::Triple, rdf::TripleHash> present_;
};

}  // namespace swan::core

#endif  // SWANDB_CORE_REFERENCE_BACKEND_H_
