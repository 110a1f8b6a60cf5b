#ifndef SWANDB_PLAN_PHYSICAL_H_
#define SWANDB_PLAN_PHYSICAL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "plan/algebra.h"
#include "plan/stats.h"

namespace swan::plan {

// The annotated physical plan the optimizer emits and core::ExecutePlan
// interprets. A plan is a union of branches; each branch is a pipeline of
// binding-extension steps followed by left-joined optional pipelines.
// How a step joins — one probe per binding row or one pass over the
// property's extent — is decided at run time from the actual row count
// (see core::ExecutePlan); the plan carries the estimates that decision
// prices.
// Every step carries the planner's cardinality estimate, which the
// interpreter surfaces through the span tree — EXPLAIN shows the
// estimates, EXPLAIN ANALYZE (a profiled run) shows them next to the
// actual row counts.

// How a step's probe traffic travels in a scale-out topology. Annotated
// by AnnotateDistribution (plan/distributed.h) after join ordering —
// distribution never reorders a plan, it only prices the chosen order.
// Single-node plans keep every step at kLocal.
enum class ShipMode {
  // The probe is answered where the bindings already are (single node,
  // sub-split property, or the step's partition lives on the
  // coordinator).
  kLocal,
  // The full binding table ships to the partition's home node and the
  // probe runs there. Cheap for small binding sets.
  kShipBindings,
  // Only the distinct join keys ship (a semi-join filter); the home node
  // answers with the matching triples. Cheap for wide or large binding
  // sets probing a selective partition.
  kShipSemiJoin,
};

std::string ToString(ShipMode mode);

struct PhysStep {
  // The pattern each binding row is extended with.
  BgpPattern pattern;

  // Index of the pattern in the caller's textual pattern list, for
  // EXPLAIN and order-inspection tests.
  size_t source_index = 0;

  // Filters that become evaluable once this step's variables are bound;
  // the interpreter applies them to the table right after the step.
  std::vector<FilterExpr> filters;

  // Planner annotations: estimated binding rows flowing in and out, and
  // the estimated matches of one instantiated probe. Negative when the
  // step runs in textual order (kAsWritten, or a group over 64
  // variables).
  double est_in = -1.0;
  double est_out = -1.0;
  double est_matches = -1.0;
  // Cost-based plans, constant-property steps only: the estimated triples
  // of the property's extent (object included when constant) — what one
  // Match(?, p, o?) returns. core::ExecutePlan weighs reading it once
  // against probing per binding row, with the actual row count.
  double extent = -1.0;

  // Scale-out annotations (AnnotateDistribution): the node owning this
  // step's property partition (-1 = unbound property, sub-split, or
  // single node) and how the probe traffic ships there.
  int home_node = -1;
  ShipMode ship = ShipMode::kLocal;
};

struct PhysPipeline {
  std::vector<PhysStep> steps;
  // Left-joined OPTIONAL groups, evaluated in textual order after the
  // required steps.
  std::vector<PhysPipeline> optionals;
  // Filters that reference optional variables and therefore cannot be
  // pushed into a step; applied after all optionals.
  std::vector<FilterExpr> post_filters;
  // Variables this pipeline introduces, in textual first-appearance
  // order. For an optional pipeline: only the fresh variables (the ones
  // padded with kUnbound when the optional finds no match).
  std::vector<std::string> vars;
  // Constant-folded: the pipeline can produce no rows (an unsatisfiable
  // pattern, or a filter that can never hold). For an optional this means
  // "always pad"; for a required branch, "contribute nothing".
  bool always_empty = false;
  std::string empty_reason;
  double est_rows = -1.0;
};

struct PhysicalPlan {
  std::vector<PhysPipeline> branches;  // UNION, in textual order
  // All variables of the query in textual first-appearance order — the
  // column order of the final binding table regardless of the join order
  // the planner chose.
  std::vector<std::string> all_vars;

  // Solution modifiers, peeled off the logical tree by Optimize and
  // applied by sparql::Execute in this order: projection, DISTINCT,
  // OFFSET, LIMIT. core::ExecutePlan ignores them and returns the full
  // binding table.
  std::vector<std::string> projection;  // empty = all_vars
  bool distinct = false;
  std::optional<uint64_t> offset;
  std::optional<uint64_t> limit;

  NumericResolver numeric;  // for numeric filters; may be null

  // The access costs the plan was priced with (PlannerOptions::hints);
  // core::ExecutePlan prices its run-time join choice with them too.
  AccessHints hints;

  // One-line description of how the plan was chosen, e.g.
  // "cost-based (stats: 400000 triples, 221 properties)".
  std::string mode_note;
};

// Renders the plan for EXPLAIN. `term_name` decodes dictionary ids (pass
// the dataset's dictionary lookup); when null, ids print as #<id>.
std::string ExplainText(
    const PhysicalPlan& plan,
    const std::function<std::string(uint64_t)>& term_name = nullptr);

// Renders one pattern compactly, e.g. "(?s <type> ?o)".
std::string PatternText(
    const BgpPattern& pattern,
    const std::function<std::string(uint64_t)>& term_name = nullptr);

}  // namespace swan::plan

#endif  // SWANDB_PLAN_PHYSICAL_H_
