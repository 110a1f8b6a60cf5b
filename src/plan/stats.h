#ifndef SWANDB_PLAN_STATS_H_
#define SWANDB_PLAN_STATS_H_

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "audit/audit.h"
#include "rdf/dataset.h"

namespace swan::plan {

// Modeled access-path costs of one Backend::Match call, published by each
// backend through Backend::PlannerHints(). The absolute numbers are
// dimensionless work units — only their ratios steer the planner — and
// they encode the physical design facts the paper's grid varies: whether
// the data is clustered (partitioned) by property, whether a bound
// subject is an indexed probe or a scan, and whether a property-unbound
// probe fans out over every vertical partition.
struct AccessHints {
  // Fixed overhead of one indexed Match call (index descent / binary
  // search / partition lookup).
  double seek_cost = 6.0;
  // Cost per matching triple materialized out of the backend.
  double result_row_cost = 1.0;
  // Cost per triple *scanned* when no index applies and the backend falls
  // back to a pass over the data (cheaper than materializing: most rows
  // are filtered out in place).
  double scan_row_cost = 0.25;
  // A property-bound pattern touches only that property's extent
  // (PSO-clustered triple table or a vertical partition). When false, a
  // property-bound probe with an unbound subject scans the full store.
  bool clustered_by_property = true;
  // A subject-bound pattern is an indexed probe (SPO clustering, or
  // per-partition subject order). When false it scans.
  bool subject_indexed = true;
  // A probe with the property unbound but the subject bound must visit
  // one structure per property (vertical partitioning): the planner
  // multiplies seek_cost by the number of properties. When false one
  // probe suffices (triple-table clustering).
  bool property_fanout = false;
};

// Per-property summaries of the triple relation: cardinality and distinct
// counts on both sides.
struct PropertyStats {
  uint64_t count = 0;
  uint64_t distinct_subjects = 0;
  uint64_t distinct_objects = 0;
};

// Dataset-level optimizer statistics, collected once at load time
// (RdfStore::Open) and exposed through RdfStore::stats(). All estimates
// use the textbook attribute-independence assumption; the per-property
// split makes them sharp for the property-bound patterns that dominate
// the paper's workload.
struct StoreStats {
  uint64_t total_triples = 0;
  uint64_t distinct_subjects = 0;
  uint64_t distinct_objects = 0;
  std::unordered_map<uint64_t, PropertyStats> by_property;

  uint64_t distinct_properties() const { return by_property.size(); }

  // Linear counting passes over the dataset's triples, indexed by
  // dictionary id: per-term counts, a counting sort by property, then one
  // distinct-key marking pass per property run.
  static StoreStats Collect(const rdf::Dataset& dataset);

  // Estimated number of triples matching the pattern shape (nullopt =
  // unbound component). A property absent from the statistics has
  // cardinality exactly 0 — the planner constant-folds such patterns.
  double EstimateMatches(std::optional<uint64_t> subject,
                         std::optional<uint64_t> property,
                         std::optional<uint64_t> object) const;

  // Audit walker (RdfStore::Audit): kQuick checks internal consistency
  // (per-property sums vs the total, distinct bounds); kFull
  // recollects from the dataset and compares.
  void AuditInto(audit::AuditLevel level, audit::AuditReport* report,
                 const rdf::Dataset& dataset) const;
};

}  // namespace swan::plan

#endif  // SWANDB_PLAN_STATS_H_
