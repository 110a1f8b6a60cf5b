#ifndef SWANDB_CORE_PROFILING_H_
#define SWANDB_CORE_PROFILING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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
// records spans. Finish (or the destructor) detaches at the same
// quiescent point, folds buffer-pool and disk totals into the session's
// metrics registry, and closes the root span with the caller's modeled
// CPU — the CostMeter reading of the same execution, so the profile's
// root "real" arithmetic matches the measurement bit for bit.
class ScopedProfile {
 public:
  ScopedProfile(std::string root_name, const Backend& backend,
                const exec::ExecContext& ectx);
  ~ScopedProfile();

  ScopedProfile(const ScopedProfile&) = delete;
  ScopedProfile& operator=(const ScopedProfile&) = delete;

  std::shared_ptr<obs::TraceSession> Finish(double cpu_seconds);

 private:
  const Backend* backend_;
  const exec::ExecContext* ectx_;
  std::shared_ptr<obs::TraceSession> session_;
  uint64_t pool_hits_before_ = 0;
  uint64_t pool_misses_before_ = 0;
  uint64_t disk_reads_before_ = 0;
  bool finished_ = false;
};

// The cost of one execution, the paper's real = CPU + I/O (§2.3) over the
// whole store: every node's disk and the modeled network, as the
// backend's aggregate virtuals report them.
struct ExecCost {
  double cpu_seconds = 0.0;   // modeled critical-path CPU
  double user_seconds = 0.0;  // process CPU summed over all threads
  double io_seconds = 0.0;    // virtual disk + network time
  uint64_t bytes_read = 0;
  uint64_t seeks = 0;
  uint64_t net_bytes = 0;
  uint64_t net_messages = 0;
  double net_seconds = 0.0;   // already inside io_seconds

  double real_seconds() const { return cpu_seconds + io_seconds; }
};

// The one bracket around an execution, shared by the bench harness, the
// serve tier and the shell. Construction snapshots the backend's
// aggregate virtuals (virtual time, bytes, seeks, network), the context's
// operator counters and the per-lane CPU, then starts the CPU clock last;
// Read stops it first. With exec parallelism the CPU figure is modeled:
// CPU spent in ParallelFor chunks progresses as its slowest lane, so at
// one thread it is the process CPU.
class CostMeter {
 public:
  CostMeter(const Backend& backend, const exec::ExecContext& ectx);

  // The backend's virtual time at construction.
  double io_start() const { return io_before_; }

  // The cost since construction.
  ExecCost Read() const;

  // Reads the cost and sets every cost field of the record: io_seconds,
  // cpu_seconds, bytes_read, seeks, net_*, the operator-counter deltas
  // (match_calls, morsels, bgp_batches, star_gathers), and on a scale-out
  // backend node (the coordinator) and nodes.
  ExecCost Fill(obs::QueryLogRecord* record) const;

 private:
  const Backend* backend_;
  const exec::ExecContext* ectx_;
  exec::OpCounters::Snapshot counters_before_;
  uint64_t bytes_before_;
  uint64_t seeks_before_;
  uint64_t net_bytes_before_;
  uint64_t net_messages_before_;
  double net_seconds_before_;
  double io_before_;
  std::vector<double> lanes_before_;
  int64_t cpu_start_ns_;
};

}  // namespace swan::core

#endif  // SWANDB_CORE_PROFILING_H_
