#include "bench_support/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/macros.h"
#include "common/timer.h"
#include "core/profiling.h"
#include "exec/thread_pool.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace swan::bench_support {

namespace {

// Times one execution of `body` (which returns the row count) against
// the backend's aggregate cost model and returns the (real, user, bytes,
// rows) observation. The aggregate virtuals make this topology-agnostic:
// a single-node backend reports its one disk, a sharded backend reports
// max-over-nodes virtual time plus modeled network time.
template <typename Body>
Measurement TimeOnce(core::Backend* backend, const Body& body) {
  const double io_before = backend->VirtualSeconds();
  const uint64_t bytes_before = backend->TotalBytesRead();
  const uint64_t seeks_before = backend->TotalSeeks();
  const uint64_t net_bytes_before = backend->TotalNetBytes();
  const uint64_t net_messages_before = backend->TotalNetMessages();
  const double net_seconds_before = backend->NetSeconds();
  const std::vector<double> lanes_before = exec::LaneCpuSnapshot();
  WallTimer wall;
  CpuTimer timer;
  const uint64_t rows = body();
  Measurement m;
  m.user_seconds = timer.ElapsedSeconds();
  m.wall_seconds = wall.ElapsedSeconds();

  // Modeled parallel CPU: the portion of the process CPU charged to
  // ParallelFor lanes progresses as its slowest lane; the serial rest
  // runs start to finish. With no parallel work both terms are zero.
  m.cpu_seconds = exec::ModeledCpuSeconds(
      lanes_before, exec::LaneCpuSnapshot(), m.user_seconds);

  m.real_seconds = m.cpu_seconds + (backend->VirtualSeconds() - io_before);
  m.bytes_read = backend->TotalBytesRead() - bytes_before;
  m.seeks = backend->TotalSeeks() - seeks_before;
  m.net_bytes = backend->TotalNetBytes() - net_bytes_before;
  m.net_messages = backend->TotalNetMessages() - net_messages_before;
  m.net_seconds = backend->NetSeconds() - net_seconds_before;
  m.rows_returned = rows;
  return m;
}

// Executes one benchmark query under `ectx`, crediting the run's disk
// traffic to the context's operator counters so benches can print the
// full counter row per configuration.
Measurement RunOnce(core::Backend* backend, core::QueryId id,
                    const core::QueryContext& ctx,
                    const exec::ExecContext& ectx) {
  Measurement m = TimeOnce(backend, [&] {
    return backend->Run(id, ctx, ectx).row_count();
  });
  ectx.counters().bytes_read.fetch_add(m.bytes_read,
                                       std::memory_order_relaxed);
  ectx.counters().seeks.fetch_add(m.seeks, std::memory_order_relaxed);
  return m;
}

Measurement Average(const std::vector<Measurement>& runs) {
  Measurement avg;
  if (runs.empty()) return avg;
  for (const Measurement& m : runs) {
    avg.real_seconds += m.real_seconds;
    avg.cpu_seconds += m.cpu_seconds;
    avg.user_seconds += m.user_seconds;
    avg.wall_seconds += m.wall_seconds;
    avg.bytes_read += m.bytes_read;
    avg.seeks += m.seeks;
    avg.net_bytes += m.net_bytes;
    avg.net_messages += m.net_messages;
    avg.net_seconds += m.net_seconds;
    avg.rows_returned = m.rows_returned;
    if (m.profile != nullptr) avg.profile = m.profile;
  }
  avg.real_seconds /= static_cast<double>(runs.size());
  avg.cpu_seconds /= static_cast<double>(runs.size());
  avg.user_seconds /= static_cast<double>(runs.size());
  avg.wall_seconds /= static_cast<double>(runs.size());
  avg.net_seconds /= static_cast<double>(runs.size());
  avg.bytes_read /= runs.size();
  avg.seeks /= runs.size();
  avg.net_bytes /= runs.size();
  avg.net_messages /= runs.size();
  double variance = 0.0;
  for (const Measurement& m : runs) {
    const double d = m.real_seconds - avg.real_seconds;
    variance += d * d;
  }
  avg.real_stddev = std::sqrt(variance / static_cast<double>(runs.size()));
  return avg;
}

}  // namespace

Measurement MeasureCold(core::Backend* backend, core::QueryId id,
                        const core::QueryContext& ctx, int repetitions) {
  return MeasureCold(backend, id, ctx, exec::ExecContext(), repetitions);
}

Measurement MeasureHot(core::Backend* backend, core::QueryId id,
                       const core::QueryContext& ctx, int repetitions) {
  return MeasureHot(backend, id, ctx, exec::ExecContext(), repetitions);
}

Measurement MeasureCold(core::Backend* backend, core::QueryId id,
                        const core::QueryContext& ctx,
                        const exec::ExecContext& ectx, int repetitions) {
  std::vector<Measurement> runs;
  for (int i = 0; i < repetitions; ++i) {
    backend->DropCaches();  // "zapping the memory completely"
    runs.push_back(RunOnce(backend, id, ctx, ectx));
  }
  return Average(runs);
}

Measurement MeasureHot(core::Backend* backend, core::QueryId id,
                       const core::QueryContext& ctx,
                       const exec::ExecContext& ectx, int repetitions) {
  RunOnce(backend, id, ctx, ectx);  // warm-up, ignored
  std::vector<Measurement> runs;
  for (int i = 0; i < repetitions; ++i) {
    runs.push_back(RunOnce(backend, id, ctx, ectx));
  }
  return Average(runs);
}

namespace {

// As RunOnce, but with a trace session attached for the duration of the
// execution. The session starts on the disk's virtual clock *before*
// TimeOnce reads it (the clock only advances on reads, so both see the
// same instant) and finishes with the measurement's own modeled CPU, so
// profile->RootRealSeconds() equals Measurement::real_seconds exactly.
Measurement RunOnceProfiled(core::Backend* backend, core::QueryId id,
                            const core::QueryContext& ctx,
                            const exec::ExecContext& ectx) {
  core::ScopedProfile scoped(core::ToString(id), *backend, ectx);
  Measurement m = RunOnce(backend, id, ctx, ectx);
  m.profile = scoped.FinishWithCpu(m.cpu_seconds);
  return m;
}

}  // namespace

Measurement MeasureColdProfiled(core::Backend* backend, core::QueryId id,
                                const core::QueryContext& ctx,
                                const exec::ExecContext& ectx,
                                int repetitions) {
  std::vector<Measurement> runs;
  for (int i = 0; i < repetitions; ++i) {
    backend->DropCaches();
    runs.push_back(RunOnceProfiled(backend, id, ctx, ectx));
  }
  return Average(runs);
}

Measurement MeasureHotProfiled(core::Backend* backend, core::QueryId id,
                               const core::QueryContext& ctx,
                               const exec::ExecContext& ectx,
                               int repetitions) {
  RunOnce(backend, id, ctx, ectx);  // warm-up, unprofiled and ignored
  std::vector<Measurement> runs;
  for (int i = 0; i < repetitions; ++i) {
    runs.push_back(RunOnceProfiled(backend, id, ctx, ectx));
  }
  return Average(runs);
}

Measurement MeasureBgpHot(core::Backend* backend,
                          const std::vector<core::BgpPattern>& patterns,
                          const exec::ExecContext& ectx,
                          const plan::PlannerOptions& options,
                          int repetitions) {
  auto run = [&] {
    const Result<core::BgpResult> result =
        core::ExecuteBgp(*backend, patterns, ectx, options);
    SWAN_CHECK_MSG(result.ok(), "BGP evaluation failed during measurement");
    return static_cast<uint64_t>(result.value().rows.size());
  };
  run();  // warm-up, ignored
  std::vector<Measurement> runs;
  for (int i = 0; i < repetitions; ++i) {
    Measurement m = TimeOnce(backend, run);
    ectx.counters().bytes_read.fetch_add(m.bytes_read,
                                         std::memory_order_relaxed);
    ectx.counters().seeks.fetch_add(m.seeks, std::memory_order_relaxed);
    runs.push_back(m);
  }
  return Average(runs);
}

std::vector<uint64_t> VerifyBackendsAgree(
    const std::vector<core::Backend*>& backends,
    const std::vector<core::QueryId>& queries, const core::QueryContext& ctx) {
  std::vector<uint64_t> row_counts;
  for (core::QueryId id : queries) {
    core::Backend* reference = nullptr;
    core::QueryResult expected;
    for (core::Backend* backend : backends) {
      if (!backend->Supports(id)) continue;
      core::QueryResult got = backend->Run(id, ctx);
      if (reference == nullptr) {
        reference = backend;
        expected = std::move(got);
        continue;
      }
      if (!expected.SameRows(got)) {
        std::fprintf(stderr,
                     "result divergence on %s: %s returned %llu rows, "
                     "%s returned %llu rows\n",
                     core::ToString(id).c_str(), reference->name().c_str(),
                     static_cast<unsigned long long>(expected.row_count()),
                     backend->name().c_str(),
                     static_cast<unsigned long long>(got.row_count()));
        SWAN_CHECK_MSG(false, "backends disagree; benchmark aborted");
      }
    }
    row_counts.push_back(reference != nullptr ? expected.row_count() : 0);
  }
  return row_counts;
}

void RecordMeasurement(obs::Telemetry* telemetry, const std::string& workload,
                       const std::string& backend, const Measurement& m) {
  SWAN_CHECK(telemetry != nullptr);
  obs::QueryLogRecord record;
  record.seq = telemetry->records();
  record.session = "bench";
  record.kind = "bench";
  record.text = workload;
  record.text_hash = obs::Fnv1a64(workload);
  record.backend = backend;
  record.rows = m.rows_returned;
  record.bytes_read = m.bytes_read;
  record.seeks = m.seeks;
  record.io_seconds = m.real_seconds - m.cpu_seconds;
  // Standalone benches have no serve epoch; the modeled real cost is both
  // the record's latency and its position on the window axis.
  record.latency_seconds = m.real_seconds;
  record.vt_finish = m.real_seconds;
  record.cpu_seconds = m.cpu_seconds;
  record.service_seconds = m.real_seconds;
  if (m.profile != nullptr && m.profile->finished()) {
    record.ops = obs::CollectEstimatedOps(m.profile->root());
  }
  telemetry->Record(std::move(record), m.profile.get());
}

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value) return fallback;
  return static_cast<uint64_t>(parsed);
}

}  // namespace swan::bench_support
