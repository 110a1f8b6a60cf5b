#ifndef SWANDB_CORE_PROFILING_H_
#define SWANDB_CORE_PROFILING_H_

#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "core/backend.h"
#include "exec/exec_context.h"
#include "obs/querylog.h"
#include "obs/trace.h"

namespace swan::core {

// Glue between a backend, an execution context, and an obs::TraceSession.
//
// Construction starts a session whose deterministic time source is the
// backend's simulated-disk virtual clock and whose cost sample combines
// the disk's byte/seek/lane accounting with the context's scheduler
// counters, then attaches it to `ectx` so every instrumented layer below
// records spans. Finish() (or the destructor) detaches at the same
// quiescent point, folds buffer-pool and disk totals into the session's
// metrics registry, and closes the root span.
//
// The modeled CPU figure can either be computed here (own CpuTimer + lane
// snapshots bracketing the scope) or supplied by the caller via
// FinishWithCpu — the bench harness passes the exact value it measured so
// the profile's root "real" arithmetic matches Measurement::real_seconds
// bit for bit.
class ScopedProfile {
 public:
  ScopedProfile(std::string root_name, const Backend& backend,
                const exec::ExecContext& ectx);
  ~ScopedProfile();

  ScopedProfile(const ScopedProfile&) = delete;
  ScopedProfile& operator=(const ScopedProfile&) = delete;

  // Finishes with a self-measured modeled CPU cost.
  std::shared_ptr<obs::TraceSession> Finish();

  // Finishes with the caller's modeled CPU cost (bench harness path).
  std::shared_ptr<obs::TraceSession> FinishWithCpu(double cpu_seconds);

  obs::TraceSession* session() { return session_.get(); }

 private:
  const Backend* backend_;
  const exec::ExecContext* ectx_;
  std::shared_ptr<obs::TraceSession> session_;
  uint64_t pool_hits_before_ = 0;
  uint64_t pool_misses_before_ = 0;
  uint64_t disk_reads_before_ = 0;
  std::vector<double> lanes_cpu_before_;
  CpuTimer cpu_timer_;
  bool finished_ = false;
};

// The whole-store cost of one execution as a query-log record carries it,
// measured the same way by the serve tier and the shell: virtual time,
// bytes and seeks over every node's disk (the backend's aggregate
// virtuals), modeled network time, the topology, and the deltas of the
// context's operator counters. Construction takes the snapshot; Fill
// records the deltas since.
class CostMeter {
 public:
  CostMeter(const Backend& backend, const exec::ExecContext& ectx);

  // The backend's virtual time at construction.
  double io_start() const { return io_before_; }

  // Sets the record's io_seconds, bytes_read, seeks, match_calls,
  // morsels, bgp_batches, star_gathers and net_* fields, and on a
  // scale-out backend node (the coordinator) and nodes. Returns
  // io_seconds.
  double Fill(obs::QueryLogRecord* record) const;

 private:
  const Backend* backend_;
  const exec::ExecContext* ectx_;
  exec::OpCounters::Snapshot counters_before_;
  uint64_t bytes_before_;
  uint64_t seeks_before_;
  double net_seconds_before_;
  double io_before_;
};

}  // namespace swan::core

#endif  // SWANDB_CORE_PROFILING_H_
