#ifndef SWANDB_OBS_TRACE_H_
#define SWANDB_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace swan::obs {

// Deterministic per-query tracing.
//
// A TraceSession is attached to one query execution (through the
// exec::ExecContext handle) and records a tree of operator spans. Span
// timestamps come from the *virtual* clock of the backend's simulated
// disk (serial stream seconds + the slowest I/O lane), and every other
// recorded quantity (bytes, seeks, morsels, per-lane virtual seconds,
// row counts) is a pure function of the query and the context's thread
// budget — so the whole span tree, including all durations, is identical
// on any host and byte-reproducible run-to-run at a fixed width. Host
// CPU time enters exactly once, as the session-level modeled CPU figure
// passed to Finish(); exporters keep it separate from (or omit it from)
// the deterministic payload.
//
// Spans are recorded only on the session's owner thread and only outside
// ParallelFor regions: a Span constructed from a worker thread, or on the
// owner thread while one of its ParallelFor calls is in flight (at *any*
// width, including the inline serial path), is a no-op. This makes the
// tree single-writer (no synchronization on the hot path) and — because
// region entry/exit points do not depend on the thread budget — gives the
// same tree shape at every width. Work done inside a region is aggregated
// into the enclosing span via the counter deltas it brackets.
//
// With no session attached (the default), constructing a Span is a single
// null check.

// Sample of the deterministic cost counters bracketed by a span.
struct CounterSample {
  uint64_t bytes_read = 0;         // cumulative simulated-disk bytes
  uint64_t seeks = 0;              // cumulative simulated-disk seeks
  uint64_t morsels = 0;            // cumulative ParallelFor chunks
  uint64_t parallel_regions = 0;   // cumulative fanned-out ParallelFor calls
  uint64_t net_bytes = 0;          // cumulative modeled inter-node bytes
  uint64_t net_messages = 0;       // cumulative modeled inter-node messages
  std::vector<double> lane_seconds;  // cumulative per-lane virtual I/O time
};

// One node of the span tree. vt_* are virtual seconds on the session's
// deterministic clock; open/close bracket the cost counters.
struct SpanNode {
  std::string name;
  double vt_start = 0.0;
  double vt_end = 0.0;
  CounterSample open;
  CounterSample close;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  SpanNode* parent = nullptr;
  std::vector<std::unique_ptr<SpanNode>> children;

  double vt_seconds() const { return vt_end - vt_start; }
  uint64_t bytes() const { return close.bytes_read - open.bytes_read; }
  uint64_t seeks() const { return close.seeks - open.seeks; }
  uint64_t morsels() const { return close.morsels - open.morsels; }
  uint64_t regions() const {
    return close.parallel_regions - open.parallel_regions;
  }
  uint64_t net_bytes() const { return close.net_bytes - open.net_bytes; }
  uint64_t net_messages() const {
    return close.net_messages - open.net_messages;
  }
  // Virtual I/O seconds accrued per lane while the span was open (trailing
  // zero lanes trimmed). Non-empty only for spans that bracket parallel
  // cold reads.
  std::vector<double> LaneIoSeconds() const;
  // Inclusive virtual time minus the children's inclusive virtual time.
  double ExclusiveVtSeconds() const;
};

// Callbacks binding a session to its deterministic time/cost sources
// (in practice: the owning backend's SimulatedDisk and the query's
// OpCounters). Both must be safe to call from the owner thread at span
// boundaries; either may be null (times/costs then read as zero).
struct TraceSources {
  std::function<double()> now;             // virtual seconds
  std::function<CounterSample()> sample;   // cost counters
};

class TraceSession {
 public:
  // Opens the root span immediately. `threads` is the context's budget,
  // recorded for the exporters (one Chrome track per lane).
  TraceSession(std::string root_name, TraceSources sources, int threads);

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  // Closes the root span and freezes the tree. `cpu_seconds` is the
  // modeled critical-path CPU cost of the traced execution (the one
  // host-measured input); pass 0.0 when unknown.
  void Finish(double cpu_seconds);

  bool finished() const { return finished_; }
  int threads() const { return threads_; }
  const SpanNode& root() const { return root_; }
  double cpu_seconds() const { return cpu_seconds_; }
  // Modeled real seconds of the whole traced execution: modeled CPU plus
  // the root span's virtual I/O duration. Matches the bench harness's
  // Measurement::real_seconds when the session brackets the measured run.
  double RootRealSeconds() const { return cpu_seconds_ + root_.vt_seconds(); }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  bool OnOwnerThread() const {
    return std::this_thread::get_id() == owner_;
  }

 private:
  friend class Span;

  SpanNode* OpenSpan(std::string_view name);
  void CloseSpan(SpanNode* node);
  CounterSample Sample() const;
  double Now() const;

  std::thread::id owner_;
  TraceSources sources_;
  int threads_ = 1;
  double t0_ = 0.0;  // session start on the source clock; spans are relative
  SpanNode root_;
  SpanNode* current_ = nullptr;
  MetricsRegistry metrics_;
  double cpu_seconds_ = 0.0;
  bool finished_ = false;
};

// RAII operator span. Constructing with a null session — the untraced
// default everywhere — costs one branch. A non-null session records the
// span only on the owner thread outside ParallelFor regions (see file
// comment); otherwise the Span silently no-ops.
class Span {
 public:
  Span(TraceSession* session, std::string_view name) {
    if (session != nullptr) Init(session, name);
  }
  ~Span() {
    if (node_ != nullptr) session_->CloseSpan(node_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return node_ != nullptr; }
  void set_rows_in(uint64_t n) {
    if (node_ != nullptr) node_->rows_in = n;
  }
  void set_rows_out(uint64_t n) {
    if (node_ != nullptr) node_->rows_out = n;
  }

 private:
  void Init(TraceSession* session, std::string_view name);

  TraceSession* session_ = nullptr;
  SpanNode* node_ = nullptr;
};

}  // namespace swan::obs

#endif  // SWANDB_OBS_TRACE_H_
