#include "plan/distributed.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

namespace swan::plan {

namespace {

// Adds the step's variable terms to `vars`.
void CollectVars(const PhysStep& step, std::set<std::string>* vars) {
  for (const Term* term : {&step.pattern.subject, &step.pattern.property,
                           &step.pattern.object}) {
    if (term->is_var) vars->insert(term->var);
  }
}

// A step the interpreter runs as a scan-join ships nothing forward (its
// one Match returns the extent and charges that leg itself); the
// annotation prices the probe strategy.
void AnnotateStep(PhysStep* step, const DistCostModel& model,
                  size_t width_in, size_t width_out) {
  step->home_node = -1;
  step->ship = ShipMode::kLocal;

  // An unbound property probes every node's partitions; a sub-split
  // property (-1) fans out regardless. Neither gains from shipping a
  // filter beyond what the interpreter's Match routing already does.
  if (step->pattern.property.is_var) return;
  const int home = model.home_node(step->pattern.property.id);
  if (home < 0) return;
  step->home_node = home;
  if (home == model.coordinator) return;  // bindings already live there

  // Price the two strategies. Both pay a result-return leg; they differ
  // in what travels forward: the whole binding table vs a distinct-key
  // semi-join filter (one message, 8 bytes per key).
  const double in = std::max(step->est_in < 0 ? 1.0 : step->est_in, 1.0);
  const double out = step->est_out < 0 ? in : std::max(step->est_out, 0.0);
  const double bindings_fwd = ShipSeconds(
      model, in * static_cast<double>(width_in) * kBytesPerBindingCell,
      std::ceil(in / kBindingsPerMessage));
  const double bindings_back = ShipSeconds(
      model, out * static_cast<double>(width_out) * kBytesPerBindingCell,
      std::ceil(out / kBindingsPerMessage));
  const double semijoin_fwd = ShipSeconds(model, in * kBytesPerKey, 1.0);
  const double semijoin_back =
      ShipSeconds(model, out * kBytesPerTriple, 1.0);
  step->ship = bindings_fwd + bindings_back <= semijoin_fwd + semijoin_back
                   ? ShipMode::kShipBindings
                   : ShipMode::kShipSemiJoin;
}

void AnnotatePipeline(PhysPipeline* pipeline, const DistCostModel& model,
                      std::set<std::string>* vars) {
  for (PhysStep& step : pipeline->steps) {
    const size_t width_in = std::max<size_t>(vars->size(), 1);
    CollectVars(step, vars);
    AnnotateStep(&step, model, width_in, std::max<size_t>(vars->size(), 1));
  }
  for (PhysPipeline& optional : pipeline->optionals) {
    AnnotatePipeline(&optional, model, vars);
  }
}

}  // namespace

double ShipSeconds(const DistCostModel& model, double bytes, double messages) {
  if (bytes <= 0 && messages <= 0) return 0.0;
  return bytes / model.bytes_per_sec + messages * model.seconds_per_message;
}

void AnnotateDistribution(PhysicalPlan* plan, const DistCostModel& model) {
  if (plan == nullptr || model.nodes <= 1 || !model.home_node) return;
  for (PhysPipeline& branch : plan->branches) {
    std::set<std::string> vars;  // per-branch: UNION arms are independent
    AnnotatePipeline(&branch, model, &vars);
  }
}

}  // namespace swan::plan
