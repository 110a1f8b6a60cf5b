#include "core/profiling.h"

#include <utility>

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
  lanes_cpu_before_ = exec::LaneCpuSnapshot();
  session_ = std::make_shared<obs::TraceSession>(
      std::move(root_name), std::move(sources), ectx.threads());
  ectx.AttachTrace(session_.get());
  cpu_timer_.Restart();
}

ScopedProfile::~ScopedProfile() {
  if (!finished_) Finish();
}

std::shared_ptr<obs::TraceSession> ScopedProfile::Finish() {
  const double user = cpu_timer_.ElapsedSeconds();
  return FinishWithCpu(exec::ModeledCpuSeconds(
      lanes_cpu_before_, exec::LaneCpuSnapshot(), user));
}

std::shared_ptr<obs::TraceSession> ScopedProfile::FinishWithCpu(
    double cpu_seconds) {
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
      net_seconds_before_(backend.NetSeconds()),
      io_before_(backend.VirtualSeconds()) {}

double CostMeter::Fill(obs::QueryLogRecord* record) const {
  const exec::OpCounters::Snapshot after = ectx_->counters().Snap();
  record->io_seconds = backend_->VirtualSeconds() - io_before_;
  record->bytes_read = backend_->TotalBytesRead() - bytes_before_;
  record->seeks = backend_->TotalSeeks() - seeks_before_;
  record->match_calls = after.match_calls - counters_before_.match_calls;
  record->morsels = after.morsels - counters_before_.morsels;
  record->bgp_batches = after.bgp_batches - counters_before_.bgp_batches;
  record->star_gathers = after.star_gathers - counters_before_.star_gathers;
  if (const DistRouting* dist = backend_->dist()) {
    record->node = dist->Coordinator();
    record->nodes = dist->nodes();
  }
  record->net_bytes = after.net_bytes - counters_before_.net_bytes;
  record->net_messages = after.net_messages - counters_before_.net_messages;
  record->net_seconds = backend_->NetSeconds() - net_seconds_before_;
  return record->io_seconds;
}

}  // namespace swan::core
