#ifndef SWANDB_OBS_QUERYLOG_H_
#define SWANDB_OBS_QUERYLOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace swan::obs {

// The structured query log: one record per executed request, the fleet
// counterpart of the per-query span tree. Records split into two
// surfaces:
//
//   * the deterministic surface — everything derived from the virtual
//     clock, the operator counters and the scheduler (vt_* times, queue
//     wait, modeled latency, bytes, seeks, cardinalities, cache state) —
//     is a pure function of the submitted workload and each session's
//     thread budget, so the JSONL export with include_host_time=false is
//     byte-identical at any worker count;
//   * the host surface (cpu_seconds, service_seconds) carries the
//     host-measured modeled-CPU figure and is included only on request.
//
// Appends happen under the owner's synchronization (the serve turnstile,
// or the single-threaded shell/bench loop); obs::Telemetry provides the
// locked bundle.

// FNV-1a 64-bit hash of the canonical query text — the log's stable query
// identity (two lexical variants of one query share a hash because the
// caller hashes the *canonical* text).
uint64_t Fnv1a64(std::string_view text);

// One operator of the executed physical plan: the planner's estimated
// output cardinality next to the actual rows the span produced. `op` is
// the span name with the planner's " est=N" suffix stripped.
struct QueryLogOp {
  std::string op;
  uint64_t est = 0;
  uint64_t actual = 0;
};

struct QueryLogRecord {
  // --- identity -----------------------------------------------------------
  uint64_t seq = 0;            // dispatch index (serve) / statement index
  std::string session;         // session id, or "shell" / "bench"
  std::string kind;            // "bench" | "sparql" | "insert" | "delete"
  uint64_t text_hash = 0;      // Fnv1a64 of the canonical text
  std::string text;            // canonical text (possibly truncated)
  std::string backend;         // executing backend's name
  std::string plan_mode;       // planner mode note ("" when not planned)
  // --- outcome ------------------------------------------------------------
  bool ok = true;
  std::string error;           // status message when !ok
  bool cache_hit = false;
  uint64_t snapshot_version = 0;
  uint64_t rows = 0;
  // --- deterministic timing (virtual clock, relative to the epoch) -------
  double vt_start = 0.0;       // execution start
  double vt_finish = 0.0;      // execution finish
  double queue_wait_seconds = 0.0;  // admission-to-execution wait
  uint64_t queue_depth = 0;    // admitted-but-undispatched at dispatch
  double io_seconds = 0.0;     // virtual disk time of this execution
  // Deterministic modeled latency: io + fixed handling overhead (a cache
  // hit or write pays overhead only). The windows' percentiles read this.
  double latency_seconds = 0.0;
  // --- deterministic cost counters ---------------------------------------
  uint64_t bytes_read = 0;     // cold bytes pulled from the simulated disk
  uint64_t seeks = 0;
  uint64_t match_calls = 0;
  uint64_t morsels = 0;
  uint64_t bgp_batches = 0;
  uint64_t star_gathers = 0;
  // --- scale-out dimension (all zero on a single-node store) --------------
  int node = 0;                // coordinator node this query gathered at
  int nodes = 1;               // topology size of the executing store
  uint64_t net_bytes = 0;      // modeled inter-node bytes of this execution
  uint64_t net_messages = 0;   // modeled inter-node messages
  double net_seconds = 0.0;    // modeled network time (inside io_seconds'
                               // virtual-clock discipline, not added to it)
  // --- per-session cache visibility (cumulative at record time) ----------
  uint64_t session_cache_hits = 0;
  uint64_t session_cache_misses = 0;
  uint64_t session_cache_evictions = 0;
  // --- per-operator estimated vs actual cardinalities --------------------
  std::vector<QueryLogOp> ops;
  // --- host surface (excluded from the byte-reproducible export) ---------
  double cpu_seconds = 0.0;      // modeled critical-path CPU (host-measured)
  double service_seconds = 0.0;  // cpu + io + overhead
};

// Splits a planner-annotated span name ("merge-join p=... est=120") into
// the bare operator name and the estimate; returns false when the name
// carries no estimate suffix.
bool SplitEstimatedName(std::string_view name, std::string* op,
                        uint64_t* est);

// Walks a finished session's span tree collecting every span that carries
// a planner estimate, in tree (pre-)order — the record's ops column.
std::vector<QueryLogOp> CollectEstimatedOps(const SpanNode& root);

// One record as a single JSON line (no trailing newline), written through
// obs::JsonWriter with fixed numeric formatting; text_hash is a 16-digit
// hex string so consumers never round a uint64 through a double.
std::string QueryLogRecordJson(const QueryLogRecord& record,
                               bool include_host_time);

}  // namespace swan::obs

#endif  // SWANDB_OBS_QUERYLOG_H_
