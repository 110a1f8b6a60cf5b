#ifndef SWANDB_SERVE_SERVICE_H_
#define SWANDB_SERVE_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "core/store.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/querylog.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "serve/admission.h"
#include "serve/request.h"
#include "serve/result_cache.h"
#include "serve/script.h"
#include "serve/session.h"

namespace swan::serve {

struct ServiceOptions {
  // Dispatch width: number of worker threads, and the server count of the
  // modeled latency schedule.
  int workers = 4;
  // Admission queue capacity (Status::Overloaded beyond it).
  size_t max_queue = 256;
  // Result-cache byte budget; 0 disables the cache.
  size_t cache_bytes = 8u << 20;
  // Modeled per-request handling cost (admission, cache lookup, response
  // marshaling) charged to every completion — the whole service cost of a
  // cache hit.
  double request_overhead_seconds = 1e-4;
  // Keep the per-request Chrome-trace records (SessionTracks). Profiling
  // itself is always on — every executed (non-cache-hit) query runs under
  // a core::ScopedProfile so the fleet telemetry sees its span tree; this
  // flag only controls whether the raw per-request traces are retained.
  bool trace = false;
  // ExecContext width for sessions that do not ask for one explicitly.
  int default_session_threads = 1;
};

// The concurrent query service: sessions submit requests, a bounded
// fairness-aware admission queue hands them to real worker threads, and
// a snapshot-keyed result cache short-circuits repeated queries.
//
// Determinism contract. Dispatch order is a pure function of the
// submission order (the admission policy never looks at the clock or the
// worker count), and execution is a *turnstile*: a dispatched ticket
// runs only when every lower dispatch index has finished, so backend
// state — delta-store merges, buffer-pool contents, snapshot versions,
// cache population — evolves through one deterministic sequence at any
// worker count. Submit everything, then Start(): the completion stream
// (rows, cache hits, snapshot versions) is bit-identical at 1, 2, or 8
// workers, which is the serving layer's equivalence gate. (Clients that
// keep submitting after Start() still get correct, serialized execution;
// only the replay guarantee needs the submit-then-start protocol.)
// Genuine cross-thread concurrency — submission, dispatch, cache and
// metrics bookkeeping — is real and TSan-checked; the *backends* are
// serialized because their reads mutate state (merge-on-read, buffer
// pool), exactly like the single-writer engines the paper measures.
//
// Latency is modeled, not wall-measured: each completion carries its
// modeled service cost (critical-path CPU + simulated-disk virtual time,
// both read off one core::CostMeter, + fixed handling overhead) and
// ModelSchedule replays the completion stream onto `workers` FCFS servers
// for throughput and p50/p95/p99.
//
// Telemetry is kept once: every executed request appends one record to
// the service's query log (telemetry()); windows, per-session cache
// attribution and the latency percentiles are all read off that log.
//
// The service registers the result cache's audit walker with the store
// (core::RdfStore::AddAuditHook), so store->Audit() also checks cache
// accounting and snapshot coherence; the hook is removed on destruction.
class QueryService {
 public:
  QueryService(core::RdfStore* store,
               std::optional<core::QueryContext> bench_ctx,
               ServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Opens a session. threads == 0 uses options.default_session_threads.
  // Fails with AlreadyExists on a duplicate label.
  Result<Session*> OpenSession(const std::string& label, int priority = 0,
                               int threads = 0) SWAN_EXCLUDES(mutex_);
  Session* FindSession(const std::string& label) SWAN_EXCLUDES(mutex_);

  // Queues a request; returns its ticket id, or Status::Overloaded when
  // the admission queue is full (the backpressure signal — retry later).
  Result<uint64_t> Submit(Session* session, Request request)
      SWAN_EXCLUDES(mutex_);

  // Releases the workers. Idempotent; submissions may continue after.
  void Start() SWAN_EXCLUDES(mutex_, turn_mutex_);

  // Stops dispatching (in-flight requests finish) so a further batch can
  // be submitted under the replay guarantee and released with Start().
  // Call only while idle (after Drain); idempotent.
  void Pause() SWAN_EXCLUDES(mutex_);

  // Blocks until the queue is empty and nothing is in flight. Requires
  // Start() to have been called.
  void Drain() SWAN_EXCLUDES(mutex_);

  // Stops and joins the workers (queued-but-undispatched requests are
  // abandoned — call Drain() first for a clean shutdown). Idempotent;
  // the destructor calls it.
  void Stop() SWAN_EXCLUDES(mutex_);

  // Completion records accumulated since the last call, sorted into
  // dispatch order. Call between Drain()s to separate passes.
  std::vector<Completion> TakeCompletions() SWAN_EXCLUDES(mutex_);

  // Per-request traces (options.trace) grouped per session, offset so
  // each session's requests line up end to end — feed directly to
  // obs::ChromeTraceJsonMulti. Call only while idle (after Drain).
  std::vector<obs::SessionTrack> SessionTracks() const
      SWAN_EXCLUDES(turn_mutex_);

  obs::MetricsRegistry& metrics() { return metrics_; }
  // The fleet-telemetry bundle: the structured query log (one record per
  // executed request, in dispatch order) and the cross-query profile
  // aggregator; the windowed latency metrics are derived from the log.
  obs::Telemetry& telemetry() { return telemetry_; }
  const obs::Telemetry& telemetry() const { return telemetry_; }
  ResultCache* cache() { return cache_.get(); }
  core::RdfStore* store() { return store_; }
  const ServiceOptions& options() const { return options_; }
  const std::optional<core::QueryContext>& bench_context() const {
    return bench_ctx_;
  }

 private:
  struct TraceRecord {
    std::string label;
    std::shared_ptr<obs::TraceSession> session;
    double offset_seconds = 0.0;
  };

  void WorkerLoop() SWAN_EXCLUDES(mutex_, turn_mutex_);
  Completion Execute(Ticket ticket) SWAN_EXCLUDES(turn_mutex_);
  void RunQueryTicket(const Ticket& ticket, Completion* completion,
                      obs::QueryLogRecord* record,
                      std::shared_ptr<obs::TraceSession>* profile_out)
      SWAN_REQUIRES(turn_mutex_);

  core::RdfStore* store_;
  std::optional<core::QueryContext> bench_ctx_;
  ServiceOptions options_;
  obs::MetricsRegistry metrics_;
  obs::Telemetry telemetry_;
  std::unique_ptr<ResultCache> cache_;
  uint64_t audit_hook_token_ = 0;

  // Scheduler state (mutex_): admission queue, sessions, completions.
  // Lock order: mutex_ (kServeService) outranks turn_mutex_
  // (kServeTurnstile) — Start() nests them in exactly that direction, and
  // the rank checker aborts any code path that tries the reverse.
  mutable Mutex mutex_{LockRank::kServeService, "serve.service"};
  CondVar work_cv_;
  CondVar drained_cv_;
  SessionManager sessions_ SWAN_GUARDED_BY(mutex_);
  AdmissionController admission_ SWAN_GUARDED_BY(mutex_);
  bool started_ SWAN_GUARDED_BY(mutex_) = false;
  bool stopping_ SWAN_GUARDED_BY(mutex_) = false;
  uint64_t next_ticket_ SWAN_GUARDED_BY(mutex_) = 1;
  uint64_t dispatch_counter_ SWAN_GUARDED_BY(mutex_) = 0;
  int in_flight_ SWAN_GUARDED_BY(mutex_) = 0;
  std::vector<Completion> completions_ SWAN_GUARDED_BY(mutex_);

  // Turnstile (turn_mutex_): serializes execution in dispatch order; the
  // holder of the current turn also owns backend access and the trace
  // records. trace_clock0_ lives here (not under mutex_) because its
  // readers run under the turnstile; Start() writes it with both locks
  // held.
  mutable Mutex turn_mutex_{LockRank::kServeTurnstile, "serve.turnstile"};
  CondVar turn_cv_;
  uint64_t exec_turn_ SWAN_GUARDED_BY(turn_mutex_) = 0;
  double trace_clock0_ SWAN_GUARDED_BY(turn_mutex_) = 0.0;
  std::vector<TraceRecord> traces_ SWAN_GUARDED_BY(turn_mutex_);

  std::vector<std::thread> workers_;
};

// Replays a parsed script: opens sessions (reusing ones whose label
// already exists, so a second replay of the same script is the warm
// pass), submits every request in file order, then Start() + Drain().
// Overloaded submissions are counted, not fatal. Fails if a command
// names an unknown session, or an insert/delete term is not in the
// store's dictionary.
struct ScriptRunResult {
  std::vector<Completion> completions;  // dispatch order
  uint64_t submitted = 0;
  uint64_t rejected = 0;  // Status::Overloaded submissions
};

Result<ScriptRunResult> RunScript(QueryService* service,
                                  const std::vector<ScriptCommand>& script);

}  // namespace swan::serve

#endif  // SWANDB_SERVE_SERVICE_H_
