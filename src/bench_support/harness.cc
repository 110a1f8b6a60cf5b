#include "bench_support/harness.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/macros.h"
#include "core/profiling.h"
#include "obs/trace.h"

namespace swan::bench_support {

namespace {

// Times one execution of `body` (which returns the row count) with the
// shared cost meter. The backend's aggregate virtuals make this
// topology-agnostic: a single-node backend reports its one disk, a
// sharded backend reports max-over-nodes virtual time plus modeled
// network time.
template <typename Body>
Measurement TimeOnce(core::Backend* backend, const exec::ExecContext& ectx,
                     const Body& body) {
  const core::CostMeter meter(*backend, ectx);
  const uint64_t rows = body();
  const core::ExecCost cost = meter.Read();
  Measurement m;
  m.real_seconds = cost.real_seconds();
  m.cpu_seconds = cost.cpu_seconds;
  m.user_seconds = cost.user_seconds;
  m.io_seconds = cost.io_seconds;
  m.bytes_read = cost.bytes_read;
  m.seeks = cost.seeks;
  m.net_bytes = cost.net_bytes;
  m.net_messages = cost.net_messages;
  m.net_seconds = cost.net_seconds;
  m.rows_returned = rows;
  return m;
}

Measurement RunOnce(core::Backend* backend, core::QueryId id,
                    const core::QueryContext& ctx,
                    const exec::ExecContext& ectx) {
  return TimeOnce(backend, ectx, [&] {
    return backend->Run(id, ctx, ectx).row_count();
  });
}

Measurement Average(const std::vector<Measurement>& runs) {
  Measurement avg;
  if (runs.empty()) return avg;
  for (const Measurement& m : runs) {
    avg.real_seconds += m.real_seconds;
    avg.cpu_seconds += m.cpu_seconds;
    avg.user_seconds += m.user_seconds;
    avg.io_seconds += m.io_seconds;
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
  avg.io_seconds /= static_cast<double>(runs.size());
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
// execution. The session starts on the disk's virtual clock *before* the
// meter reads it (the clock only advances on reads, so both see the same
// instant) and finishes with the meter's modeled CPU, so
// profile->RootRealSeconds() equals Measurement::real_seconds exactly.
Measurement RunOnceProfiled(core::Backend* backend, core::QueryId id,
                            const core::QueryContext& ctx,
                            const exec::ExecContext& ectx) {
  core::ScopedProfile scoped(core::ToString(id), *backend, ectx);
  Measurement m = RunOnce(backend, id, ctx, ectx);
  m.profile = scoped.Finish(m.cpu_seconds);
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
    runs.push_back(TimeOnce(backend, ectx, run));
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

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  // strtoull also takes leading blanks, a sign and a numeric prefix.
  if (!std::isdigit(static_cast<unsigned char>(*value)) || *end != '\0' ||
      errno == ERANGE) {
    std::fprintf(stderr, "error: invalid %s value '%s' (expected a whole "
                         "decimal number)\n", name, value);
    std::exit(2);
  }
  return static_cast<uint64_t>(parsed);
}

}  // namespace swan::bench_support
