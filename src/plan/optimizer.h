#ifndef SWANDB_PLAN_OPTIMIZER_H_
#define SWANDB_PLAN_OPTIMIZER_H_

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
  // replace per-row probes with one scan-join at run time). A group with
  // more than 64 distinct variables runs in textual order instead, which
  // the plan's mode note says.
  kCostBased,
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
  PlanMode mode = PlanMode::kCostBased;
  // Required for kCostBased and kWorstOrder; not owned, must outlive the
  // optimization. RdfStore::stats() holds a store's load-time statistics.
  const StoreStats* stats = nullptr;
  // Per-backend access-path costs (Backend::PlannerHints()).
  AccessHints hints;
};

// Lowers a logical plan to an annotated physical plan. The logical tree
// must be one of the shapes the sparql layer and BuildBgpLogical produce:
// optional Slice/Project/Distinct wrappers over a Union of (or a single)
// Filter*/LeftJoin/Join/Scan branch. Aborts if opts.stats is null in a
// mode that orders by statistics.
PhysicalPlan Optimize(const LogicalPlan& logical, const PlannerOptions& opts);

}  // namespace swan::plan

#endif  // SWANDB_PLAN_OPTIMIZER_H_
