#ifndef SWANDB_BENCH_SUPPORT_HARNESS_H_
#define SWANDB_BENCH_SUPPORT_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/bgp.h"
#include "core/query.h"
#include "exec/exec_context.h"

namespace swan::obs {
class TraceSession;
}  // namespace swan::obs

namespace swan::bench_support {

// One measured query execution, averaged over repetitions.
//
// With exec::SetThreads(n > 1), real_seconds stays a *modeled* wall
// cost that is deterministic on any host: CPU spent inside ParallelFor
// chunks progresses as its slowest lane (max over the per-lane CPU
// deltas) while serial CPU runs start to finish, and the simulated disk
// likewise advances its clock by serial I/O plus the slowest I/O lane.
// At one thread no lanes exist and the numbers reduce exactly to the
// pre-parallel model (CPU time + virtual disk time).
//
// Each execution is bracketed by one core::CostMeter, the meter the serve
// tier and the shell read too.
struct Measurement {
  double real_seconds = 0.0;  // modeled critical-path CPU + virtual disk time
  double cpu_seconds = 0.0;   // modeled critical-path CPU alone
  double user_seconds = 0.0;  // CPU time summed over all threads
  double io_seconds = 0.0;    // virtual disk (+ network) time alone
  // Standard deviation of real_seconds across the repetitions — the
  // paper's §3 remark ("we do not report the standard deviation ... the
  // differences were less than 30 milliseconds"), checkable here.
  double real_stddev = 0.0;
  uint64_t bytes_read = 0;    // data pulled from the simulated disk(s)
  uint64_t seeks = 0;         // random repositionings charged by the disk(s)
  uint64_t rows_returned = 0;
  // Modeled inter-node traffic (scale-out backends only; zero on one
  // node). net_seconds is already folded into real_seconds — the sharded
  // backend's virtual clock is max(node disks) + network.
  uint64_t net_bytes = 0;
  uint64_t net_messages = 0;
  double net_seconds = 0.0;
  // Set by the *Profiled variants: the finished trace session of the last
  // repetition. RootRealSeconds() matches real_seconds of that repetition
  // exactly, giving the profile's disk-vs-CPU decomposition of the
  // measured cost.
  std::shared_ptr<obs::TraceSession> profile;
};

// The paper's §2.3 protocol. A *cold* run drops every cache first, so the
// query pays full I/O; repetitions each start cold. A *hot* run performs
// one unmeasured warm-up execution, then averages the measured runs
// without touching the caches.
Measurement MeasureCold(core::Backend* backend, core::QueryId id,
                        const core::QueryContext& ctx, int repetitions = 3);
Measurement MeasureHot(core::Backend* backend, core::QueryId id,
                       const core::QueryContext& ctx, int repetitions = 3);

// As above, under an explicit execution context instead of the global
// thread width — the benches sweep widths by constructing one context per
// point rather than mutating global state between runs.
Measurement MeasureCold(core::Backend* backend, core::QueryId id,
                        const core::QueryContext& ctx,
                        const exec::ExecContext& ectx, int repetitions = 3);
Measurement MeasureHot(core::Backend* backend, core::QueryId id,
                       const core::QueryContext& ctx,
                       const exec::ExecContext& ectx, int repetitions = 3);

// Profiled variants of the cold/hot protocol: each measured repetition
// runs under an attached obs::TraceSession, and the last repetition's
// finished session is returned in Measurement::profile. Repetitions
// default to 1 because a profile describes one execution; averaging
// virtual times across reps would break the exact root-span equality.
Measurement MeasureColdProfiled(core::Backend* backend, core::QueryId id,
                                const core::QueryContext& ctx,
                                const exec::ExecContext& ectx,
                                int repetitions = 1);
Measurement MeasureHotProfiled(core::Backend* backend, core::QueryId id,
                               const core::QueryContext& ctx,
                               const exec::ExecContext& ectx,
                               int repetitions = 1);

// Hot-protocol measurement of a BGP evaluation under an explicit context
// (one unmeasured warm-up, then averaged measured runs). rows_returned is
// the binding-table row count, planned under `options`.
Measurement MeasureBgpHot(core::Backend* backend,
                          const std::vector<core::BgpPattern>& patterns,
                          const exec::ExecContext& ectx,
                          const plan::PlannerOptions& options,
                          int repetitions = 3);

// Correctness gate run before timing: executes every supported query on
// every backend and verifies that all backends produce identical rows.
// Aborts with a diagnostic on divergence. Returns per-query row counts.
std::vector<uint64_t> VerifyBackendsAgree(
    const std::vector<core::Backend*>& backends,
    const std::vector<core::QueryId>& queries, const core::QueryContext& ctx);

// Reads an unsigned environment override, e.g. SWAN_TRIPLES for the
// benchmark scale; returns `fallback` if unset or empty. Any other value
// that is not a whole decimal number exits 2 with a message naming `name`.
uint64_t EnvU64(const char* name, uint64_t fallback);

}  // namespace swan::bench_support

#endif  // SWANDB_BENCH_SUPPORT_HARNESS_H_
