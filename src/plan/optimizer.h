#ifndef SWANDB_PLAN_OPTIMIZER_H_
#define SWANDB_PLAN_OPTIMIZER_H_

#include <cstddef>
#include <vector>

#include "plan/algebra.h"
#include "plan/physical.h"
#include "plan/stats.h"

namespace swan::plan {

// How the planner picks the join order.
enum class PlanMode {
  // Selectivity-estimated ordering from StoreStats: exhaustive dynamic
  // programming over linear join orders up to 8 patterns, greedy
  // minimum-cardinality beyond, plus constant folding of unsatisfiable
  // patterns and per-step extent annotations (which let the interpreter
  // replace per-row probes with one scan-join at run time). Falls back to
  // kHeuristic when no stats are supplied.
  kCostBased,
  // The statistics-free greedy scoring (3*constants + 2*joined - fresh)
  // that predates the planner — the "hand-wired" order every cost-based
  // plan is gated against.
  kHeuristic,
  // Adversarial baseline for bench/ablation_planner: greedily maximizes
  // the intermediate cardinality. Never used outside ablations.
  kWorstOrder,
  // Executes patterns exactly in textual order — the order the query was
  // written in. The "hand-wired" baseline the acceptance gate and the
  // planner ablation compare against; needs no statistics.
  kAsWritten,
};

const char* ToString(PlanMode mode);

struct PlannerOptions {
  PlanMode mode = PlanMode::kHeuristic;
  // Required for kCostBased; not owned, must outlive the optimization.
  const StoreStats* stats = nullptr;
  // Per-backend access-path costs (Backend::PlannerHints()).
  AccessHints hints;
};

// Greedy join ordering: returns the indices of `patterns` in evaluation
// order — the most-bound pattern first, then repeatedly the pattern most
// connected to the variables already bound. Equivalent results in any
// order (BGP conjunction is commutative); the ordering only bounds the
// intermediate binding-table sizes. This is the planner's statistics-free
// fallback; call it only from src/plan/ — everything else goes through
// Optimize/OptimizeBgp (enforced by the swan-lint `plan-order` rule).
std::vector<size_t> PlanPatternOrder(const std::vector<BgpPattern>& patterns);

// Lowers a logical plan to an annotated physical plan. The logical tree
// must be one of the shapes the sparql layer and BuildBgpLogical produce:
// optional Slice/Project/Distinct wrappers over a Union of (or a single)
// Filter*/LeftJoin/Join/Scan branch.
PhysicalPlan Optimize(const LogicalPlan& logical, const PlannerOptions& opts);

// Optimize over BuildBgpLogical(patterns), for callers that inspect the
// single-node plan of a pattern list (join-order tests). Execution plans
// through core::PlanQuery, which also distributes the plan.
PhysicalPlan OptimizeBgp(const std::vector<BgpPattern>& patterns,
                         const PlannerOptions& opts = {});

}  // namespace swan::plan

#endif  // SWANDB_PLAN_OPTIMIZER_H_
