#include "core/profiling.h"

#include <utility>

#include "common/timer.h"
#include "exec/thread_pool.h"

namespace swan::core {

ScopedProfile::ScopedProfile(std::string root_name, const Backend& backend,
                             const exec::ExecContext& ectx)
    : backend_(&backend), ectx_(&ectx) {
  // Time and cost come from the backend's aggregate virtuals, so a
  // sharded backend's spans see max-over-nodes virtual time plus modeled
  // network time, and single-node backends reduce to their one disk.
  const Backend* be = &backend;
  const exec::OpCounters* counters = &ectx.counters();
  obs::TraceSources sources;
  sources.now = [be] { return be->VirtualSeconds(); };
  sources.sample = [be, counters] {
    obs::CounterSample s;
    s.bytes_read = be->TotalBytesRead();
    s.seeks = be->TotalSeeks();
    s.net_bytes = be->TotalNetBytes();
    s.net_messages = be->TotalNetMessages();
    const exec::OpCounters::Snapshot snap = counters->Snap();
    s.morsels = snap.morsels;
    s.parallel_regions = snap.parallel_regions;
    s.lane_seconds = be->LaneSecondsSnapshot();
    return s;
  };
  if (const storage::BufferPool* pool = backend.buffer_pool()) {
    pool_hits_before_ = pool->hits();
    pool_misses_before_ = pool->misses();
  }
  disk_reads_before_ = backend.TotalReads();
  session_ = std::make_shared<obs::TraceSession>(
      std::move(root_name), std::move(sources), ectx.threads());
  ectx.AttachTrace(session_.get());
}

ScopedProfile::~ScopedProfile() {
  if (!finished_) Finish(0.0);
}

std::shared_ptr<obs::TraceSession> ScopedProfile::Finish(double cpu_seconds) {
  if (finished_) return session_;
  finished_ = true;
  ectx_->AttachTrace(nullptr);

  // Fold end-of-query storage statistics into the registry. Hit/miss and
  // byte/seek totals are schedule-independent (the pool deduplicates
  // in-flight reads), so these snapshots stay deterministic at any width.
  obs::MetricsRegistry& metrics = session_->metrics();
  if (const storage::BufferPool* pool = backend_->buffer_pool()) {
    metrics.GetCounter("buffer_pool.hits")
        ->Add(pool->hits() - pool_hits_before_);
    metrics.GetCounter("buffer_pool.misses")
        ->Add(pool->misses() - pool_misses_before_);
  }
  metrics.GetCounter("disk.reads")
      ->Add(backend_->TotalReads() - disk_reads_before_);
  metrics.GetCounter("disk.bytes_read")
      ->Add(session_->root().open.bytes_read <= backend_->TotalBytesRead()
                ? backend_->TotalBytesRead() - session_->root().open.bytes_read
                : 0);
  metrics.GetCounter("disk.seeks")
      ->Add(backend_->TotalSeeks() - session_->root().open.seeks);

  session_->Finish(cpu_seconds);
  return session_;
}

CostMeter::CostMeter(const Backend& backend, const exec::ExecContext& ectx)
    : backend_(&backend),
      ectx_(&ectx),
      counters_before_(ectx.counters().Snap()),
      bytes_before_(backend.TotalBytesRead()),
      seeks_before_(backend.TotalSeeks()),
      net_bytes_before_(backend.TotalNetBytes()),
      net_messages_before_(backend.TotalNetMessages()),
      net_seconds_before_(backend.NetSeconds()),
      io_before_(backend.VirtualSeconds()),
      lanes_before_(exec::LaneCpuSnapshot()),
      cpu_start_ns_(ProcessCpuNanos()) {}

ExecCost CostMeter::Read() const {
  ExecCost cost;
  cost.user_seconds =
      static_cast<double>(ProcessCpuNanos() - cpu_start_ns_) * 1e-9;
  cost.cpu_seconds = exec::ModeledCpuSeconds(
      lanes_before_, exec::LaneCpuSnapshot(), cost.user_seconds);
  cost.io_seconds = backend_->VirtualSeconds() - io_before_;
  cost.bytes_read = backend_->TotalBytesRead() - bytes_before_;
  cost.seeks = backend_->TotalSeeks() - seeks_before_;
  cost.net_bytes = backend_->TotalNetBytes() - net_bytes_before_;
  cost.net_messages = backend_->TotalNetMessages() - net_messages_before_;
  cost.net_seconds = backend_->NetSeconds() - net_seconds_before_;
  return cost;
}

ExecCost CostMeter::Fill(obs::QueryLogRecord* record) const {
  const ExecCost cost = Read();
  const exec::OpCounters::Snapshot after = ectx_->counters().Snap();
  record->io_seconds = cost.io_seconds;
  record->cpu_seconds = cost.cpu_seconds;
  record->bytes_read = cost.bytes_read;
  record->seeks = cost.seeks;
  record->net_bytes = cost.net_bytes;
  record->net_messages = cost.net_messages;
  record->net_seconds = cost.net_seconds;
  record->match_calls = after.match_calls - counters_before_.match_calls;
  record->morsels = after.morsels - counters_before_.morsels;
  record->bgp_batches = after.bgp_batches - counters_before_.bgp_batches;
  record->star_gathers = after.star_gathers - counters_before_.star_gathers;
  if (const DistRouting* dist = backend_->dist()) {
    record->node = dist->Coordinator();
    record->nodes = dist->nodes();
  }
  return cost;
}

}  // namespace swan::core
