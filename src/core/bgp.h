#ifndef SWANDB_CORE_BGP_H_
#define SWANDB_CORE_BGP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/backend.h"
#include "plan/algebra.h"
#include "plan/optimizer.h"
#include "plan/physical.h"

namespace swan::core {

// A SPARQL-style basic graph pattern (BGP) evaluator over any Backend.
// This generalizes the fixed benchmark queries: all 8 simple triple
// patterns of Figure 2 and arbitrary compositions of the A/B/C join
// patterns can be expressed and executed, which is how the library covers
// the full query design space the paper maps out in §2.2.
//
// Since the planner refactor this file is the *interpreter* half of query
// processing: pattern lists (or full logical plans, via the sparql layer)
// are lowered by plan::Optimize into an annotated physical plan, and
// ExecutePlan runs that plan — extension steps, filters, optionals,
// unions — against a backend.

// Term and BgpPattern live in plan/algebra.h so the planner layer stays
// independent of the backends; re-exported here for the existing callers.
using Term = plan::Term;
using BgpPattern = plan::BgpPattern;
using plan::kUnbound;

// Result: a binding table. Column i holds the values of variable vars[i],
// in the query's *textual* first-appearance order — never the evaluation
// order the planner chose. Cells left unbound by an OPTIONAL that found
// no match hold plan::kUnbound.
struct BgpResult {
  std::vector<std::string> vars;
  std::vector<std::vector<uint64_t>> rows;
};

// Interprets a physical plan against `backend`, a batch at a time: each
// branch's binding table is one flat row-major buffer that every step
// rewrites whole. A step extends every row with the matches of its
// pattern by one of two strategies, chosen at run time from the actual
// row count: probing (one Backend::Match per row, the instantiated
// pattern) or, for a constant-property step whose subject an earlier step
// bound, a scan-join (one Match for the property's extent, joined on the
// subject) when the plan's cost model prices that cheaper.
// Filters attached to a step apply right after it; OPTIONAL pipelines
// left-join after the required steps; branch results concatenate in
// branch order with columns aligned to plan.all_vars.
//
// Under a parallel ExecContext the binding table of each probe step is
// range-partitioned into batches whose extensions run concurrently (each
// batch issues its own Match calls); batch outputs concatenate in batch
// order, so the binding rows come out in exactly the serial sequence at
// every thread count. ectx.counters() records match_calls, bgp_batches and
// star_gathers (the steps run as scan-joins).
Result<BgpResult> ExecutePlan(const Backend& backend,
                              const plan::PhysicalPlan& plan,
                              const exec::ExecContext& ectx);

// The one planning step from a logical plan to the physical plan
// ExecutePlan interprets, shared by ExecuteBgp, sparql::Execute and the
// shell's EXPLAIN: plan::Optimize with `options`, then — on a scale-out
// backend (Backend::dist() with more than one node) — the distributed
// physical layer, plan::AnnotateDistribution, which prices the chosen
// order against the topology and annotates each step with its partition's
// home node and how its probe traffic ships. Annotation never reorders,
// so rows stay bit-identical to the single-node plan. The planning spans
// (bgp.plan, bgp.distribute) record into ectx's trace.
plan::PhysicalPlan PlanQuery(const Backend& backend,
                             const plan::LogicalPlan& logical,
                             const plan::PlannerOptions& options,
                             const exec::ExecContext& ectx);

// Plans and evaluates the conjunction of `patterns`: lowers the list to
// Join(Scan...), plans it with PlanQuery, then interprets the result.
// The default options give the statistics-free heuristic ordering (the
// pre-planner behavior, bit-identical); pass
// PlannerOptions{kCostBased, &store.stats(), backend.PlannerHints()} (or
// RdfStore::planner_options()) for the cost-based plan. The default
// context runs at the globally configured thread width.
Result<BgpResult> ExecuteBgp(
    const Backend& backend, const std::vector<BgpPattern>& patterns,
    const exec::ExecContext& ectx = exec::ExecContext(),
    const plan::PlannerOptions& options = plan::PlannerOptions{});

}  // namespace swan::core

#endif  // SWANDB_CORE_BGP_H_
