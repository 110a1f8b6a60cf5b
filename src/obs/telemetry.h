#ifndef SWANDB_OBS_TELEMETRY_H_
#define SWANDB_OBS_TELEMETRY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "obs/querylog.h"
#include "obs/trace.h"

namespace swan::obs {

// Fleet telemetry: the always-on layer above the per-query span trees.
// The query log is the one store; everything else is read off it or
// folded beside it, and every export (the JSONL log, the window
// snapshots, the top-operators table, the collapsed flamegraph stacks) is
// byte-identical at any thread width:
//
//   * WindowedMetrics — the log's records bucketed into fixed-boundary
//     windows on the virtual clock (half-open [k*w, (k+1)*w), keyed by
//     k = floor(vt_finish/w)) at export time: per-window latency
//     percentiles (nearest-rank over the raw latencies, exact — no
//     histogram approximation), throughput, cache hit counts, the max
//     observed queue depth, and an SLO breach counter;
//   * ProfileAggregator — merges span trees across queries by name path
//     (the planner's per-query " est=N" suffixes stripped, so one logical
//     operator accumulates across queries) into cumulative totals,
//     exported as a top-operators table and collapsed (flamegraph)
//     stacks. Virtual times are accumulated in integer nanoseconds, so
//     merging aggregators is exactly associative;
//   * the Telemetry bundle — one mutex (LockRank::kTelemetry, near-leaf)
//     over the query log and the aggregator, with a snapshot-then-merge
//     MergeFrom so two bundles never nest their equal-rank locks.

// Window width on the virtual clock. Modeled latencies are milliseconds
// to tens of milliseconds at bench scale, so a serve script spans a
// handful of windows.
inline constexpr double kWindowSeconds = 0.1;
// Latency above this counts as an SLO breach in its window.
inline constexpr double kSloLatencySeconds = 0.05;
// Recorded canonical text is truncated to this many bytes (the hash
// always covers the full text).
inline constexpr size_t kMaxTextBytes = 120;

// The latency windows of a set of query-log records, computed once from
// the records (their vt_finish, latency_seconds, cache_hit and
// queue_depth).
class WindowedMetrics {
 public:
  explicit WindowedMetrics(const std::vector<QueryLogRecord>& records);

  struct WindowSnapshot {
    int64_t index = 0;       // window k covers [k*w, (k+1)*w)
    uint64_t count = 0;
    uint64_t cache_hits = 0;
    uint64_t slo_breaches = 0;
    uint64_t max_queue_depth = 0;
    double throughput_per_second = 0.0;  // count / window width
    double p50_seconds = 0.0;
    double p95_seconds = 0.0;
    double p99_seconds = 0.0;
  };
  // Per-window snapshots in window order.
  std::vector<WindowSnapshot> Windows() const;

  // Pooled over every record regardless of window: the pooled
  // percentiles equal a brute-force nearest-rank over all latencies.
  WindowSnapshot Pooled() const;

  // Deterministic JSON snapshot: the constants, per-window stats, pooled
  // stats.
  std::string ToJson() const;

  uint64_t samples() const { return total_count_; }

 private:
  struct Window {
    std::vector<double> latencies;
    uint64_t cache_hits = 0;
    uint64_t slo_breaches = 0;
    uint64_t max_queue_depth = 0;
  };

  static void FillPercentiles(std::vector<double> latencies,
                              WindowSnapshot* snap);

  uint64_t total_count_ = 0;
  std::map<int64_t, Window> windows_;
};

// Externally synchronized cross-query span-tree aggregator.
class ProfileAggregator {
 public:
  // Folds one finished session's span tree into the cumulative trie.
  void AddSession(const TraceSession& session);

  void MergeFrom(const ProfileAggregator& other);

  // Cumulative totals of an operator over every call folded in.
  struct Totals {
    uint64_t calls = 0;
    uint64_t incl_ns = 0;    // inclusive virtual nanoseconds
    uint64_t excl_ns = 0;    // exclusive virtual nanoseconds
    uint64_t rows_out = 0;
    uint64_t bytes = 0;
    uint64_t seeks = 0;
    void Add(const Totals& other);
  };
  struct OpStat : Totals {
    std::string name;        // operator name, est-suffix stripped
  };
  // Operators summed across all stack positions, sorted by exclusive
  // virtual time descending (name ascending on ties). n == 0 means all.
  std::vector<OpStat> TopOps(size_t n = 0) const;

  // Fixed-format text table of TopOps(n).
  std::string TopOpsTable(size_t n = 10) const;

  // Collapsed-stack (flamegraph) export: "root;child;leaf <excl_ns>\n"
  // per distinct stack, in lexicographic stack order. Feed to
  // flamegraph.pl / speedscope as folded stacks.
  std::string CollapsedStacks() const;

  uint64_t sessions() const { return sessions_; }

 private:
  struct Node : Totals {
    std::map<std::string, Node> children;
  };

  static void FoldSpan(const SpanNode& span, Node* into);
  static void MergeNode(const Node& from, Node* into);

  uint64_t sessions_ = 0;
  std::map<std::string, Node> roots_;
};

// The locked bundle: the query log and the profile aggregator behind one
// near-leaf mutex. The serve tier records under its turnstile; the shell
// records single-threaded; exports lock briefly and copy.
class Telemetry {
 public:
  Telemetry() = default;

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  // Appends the record (text truncated to kMaxTextBytes) and folds
  // `profile` (may be null — cache hits and writes carry no span tree)
  // into the aggregator.
  void Record(QueryLogRecord record, const TraceSession* profile)
      SWAN_EXCLUDES(mutex_);

  // Appends another bundle's log and merges its aggregator. Snapshots
  // `other` under its own lock first, then locks this — equal-rank
  // mutexes never nest.
  void MergeFrom(const Telemetry& other) SWAN_EXCLUDES(mutex_);

  std::vector<QueryLogRecord> LogSnapshot() const SWAN_EXCLUDES(mutex_);
  // The log as JSON lines, one QueryLogRecordJson per line.
  std::string QueryLogJsonl(bool include_host_time) const
      SWAN_EXCLUDES(mutex_);
  // The log's windows (WindowedMetrics::ToJson) and pooled snapshot.
  std::string WindowsJson() const SWAN_EXCLUDES(mutex_);
  WindowedMetrics::WindowSnapshot PooledWindow() const SWAN_EXCLUDES(mutex_);
  std::vector<ProfileAggregator::OpStat> TopOps(size_t n = 0) const
      SWAN_EXCLUDES(mutex_);
  std::string TopOpsTable(size_t n = 10) const SWAN_EXCLUDES(mutex_);
  std::string CollapsedStacks() const SWAN_EXCLUDES(mutex_);
  uint64_t records() const SWAN_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_{LockRank::kTelemetry, "obs.telemetry"};
  std::vector<QueryLogRecord> log_ SWAN_GUARDED_BY(mutex_);
  ProfileAggregator aggregator_ SWAN_GUARDED_BY(mutex_);
};

}  // namespace swan::obs

#endif  // SWANDB_OBS_TELEMETRY_H_
