#ifndef SWANDB_PLAN_DISTRIBUTED_H_
#define SWANDB_PLAN_DISTRIBUTED_H_

#include <cstdint>
#include <functional>

#include "plan/physical.h"

namespace swan::plan {

// The distributed physical layer: prices an already-ordered physical plan
// against a scale-out topology and annotates each step with where its
// property partition lives and how the probe traffic should travel
// (ship-bindings vs ship-semi-join-filter). It deliberately runs AFTER
// join ordering and never reorders a plan — the single-node cost model
// picks the order, the network model picks the shipping strategy — so an
// annotated plan produces bit-identical rows to the unannotated one.

// Everything AnnotateDistribution needs to know about the topology.
// Built by core::ExecuteBgp from the backend's DistRouting; kept as plain
// values + a callback so the plan layer stays independent of src/net.
struct DistCostModel {
  int nodes = 1;
  // Link model (matches net::NetworkConfig converted to base units).
  double bytes_per_sec = 1000.0 * 1e6;
  double seconds_per_message = 0.05 * 1e-3;
  // Owning node for a property partition; -1 = sub-split across all
  // nodes (probes fan out regardless, so shipping a filter buys nothing
  // beyond what the interpreter already does).
  std::function<int(uint64_t)> home_node;
  // Where the binding table lives between steps (the gather node).
  int coordinator = 0;
};

// Modeled wire widths, shared with the q1–q8 scatter/gather skeleton
// (core::PhasedBackend::RunPartitioned) and the sharded backend's Match
// and writes, so planner estimates and executed charges agree: 8 bytes
// per id, 16 per keyed count or id pair, 24 per triple or (property,
// object) count.
inline constexpr uint64_t kBytesPerKey = 8;
inline constexpr uint64_t kBytesPerPair = 16;
inline constexpr uint64_t kBytesPerBindingCell = 8;
inline constexpr uint64_t kBytesPerTriple = 24;
// Bindings ship in the interpreter's extension batches.
inline constexpr uint64_t kBindingsPerMessage = 16;

// Seconds to move `bytes` in `messages` messages over one link.
double ShipSeconds(const DistCostModel& model, double bytes, double messages);

// Annotates every step of `plan` in place. A no-op when model.nodes <= 1
// or model.home_node is null.
void AnnotateDistribution(PhysicalPlan* plan, const DistCostModel& model);

}  // namespace swan::plan

#endif  // SWANDB_PLAN_DISTRIBUTED_H_
