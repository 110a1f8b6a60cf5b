#include "obs/telemetry.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <utility>

#include "common/mutex.h"
#include "common/stats.h"
#include "obs/export.h"
#include "obs/json_writer.h"

namespace swan::obs {

namespace {

uint64_t ToNanos(double seconds) {
  if (seconds <= 0.0) return 0;
  return static_cast<uint64_t>(std::llround(seconds * 1e9));
}

// One window of the windows JSON, or (without its index) the pooled one.
void SnapshotJson(const WindowedMetrics::WindowSnapshot& snap,
                  bool with_index, JsonWriter* w) {
  w->BeginObject();
  if (with_index) w->Field("index", snap.index);
  w->Field("count", snap.count).Field("cache_hits", snap.cache_hits)
      .Field("slo_breaches", snap.slo_breaches)
      .Field("max_queue_depth", snap.max_queue_depth)
      .Field("throughput", snap.throughput_per_second, 6)
      .Field("p50", snap.p50_seconds, 9).Field("p95", snap.p95_seconds, 9)
      .Field("p99", snap.p99_seconds, 9).EndObject();
}

}  // namespace

// ---------------------------------------------------------------------------
// WindowedMetrics
// ---------------------------------------------------------------------------

WindowedMetrics::WindowedMetrics(const std::vector<QueryLogRecord>& records)
    : total_count_(records.size()) {
  for (const QueryLogRecord& record : records) {
    const int64_t index =
        static_cast<int64_t>(std::floor(record.vt_finish / kWindowSeconds));
    Window& window = windows_[index];
    window.latencies.push_back(record.latency_seconds);
    if (record.cache_hit) ++window.cache_hits;
    if (record.latency_seconds > kSloLatencySeconds) ++window.slo_breaches;
    window.max_queue_depth =
        std::max(window.max_queue_depth, record.queue_depth);
  }
}

void WindowedMetrics::FillPercentiles(std::vector<double> latencies,
                                      WindowSnapshot* snap) {
  std::sort(latencies.begin(), latencies.end());
  snap->count = latencies.size();
  snap->p50_seconds = NearestRank(latencies, 0.50);
  snap->p95_seconds = NearestRank(latencies, 0.95);
  snap->p99_seconds = NearestRank(latencies, 0.99);
}

std::vector<WindowedMetrics::WindowSnapshot> WindowedMetrics::Windows()
    const {
  std::vector<WindowSnapshot> out;
  out.reserve(windows_.size());
  for (const auto& [index, window] : windows_) {
    WindowSnapshot snap;
    snap.index = index;
    snap.cache_hits = window.cache_hits;
    snap.slo_breaches = window.slo_breaches;
    snap.max_queue_depth = window.max_queue_depth;
    FillPercentiles(window.latencies, &snap);
    snap.throughput_per_second =
        static_cast<double>(snap.count) / kWindowSeconds;
    out.push_back(std::move(snap));
  }
  return out;
}

WindowedMetrics::WindowSnapshot WindowedMetrics::Pooled() const {
  WindowSnapshot snap;
  std::vector<double> all;
  all.reserve(total_count_);
  for (const auto& [index, window] : windows_) {
    all.insert(all.end(), window.latencies.begin(), window.latencies.end());
    snap.cache_hits += window.cache_hits;
    snap.slo_breaches += window.slo_breaches;
    snap.max_queue_depth =
        std::max(snap.max_queue_depth, window.max_queue_depth);
  }
  FillPercentiles(std::move(all), &snap);
  if (!windows_.empty()) {
    // Throughput over the observed span of whole windows.
    const int64_t first = windows_.begin()->first;
    const int64_t last = windows_.rbegin()->first;
    const double span =
        static_cast<double>(last - first + 1) * kWindowSeconds;
    snap.throughput_per_second = static_cast<double>(snap.count) / span;
  }
  return snap;
}

std::string WindowedMetrics::ToJson() const {
  JsonWriter w;
  w.BeginObject().Field("window_seconds", kWindowSeconds, 9)
      .Field("slo_seconds", kSloLatencySeconds, 9).Key("windows")
      .BeginArray();
  for (const WindowSnapshot& window : Windows()) {
    SnapshotJson(window, /*with_index=*/true, &w);
  }
  w.EndArray().Key("pooled");
  SnapshotJson(Pooled(), /*with_index=*/false, &w);
  return w.EndObject().str() + "\n";
}

// ---------------------------------------------------------------------------
// ProfileAggregator
// ---------------------------------------------------------------------------

namespace {

// Aggregation key of a span: its name with the planner's per-query
// " est=N" suffix stripped, so "scan <p> est=120" and "scan <p> est=7"
// accumulate under one operator.
std::string StrippedName(const SpanNode& span) {
  std::string op;
  uint64_t est = 0;
  if (SplitEstimatedName(span.name, &op, &est)) return op;
  return span.name;
}

}  // namespace

void ProfileAggregator::Totals::Add(const Totals& other) {
  calls += other.calls;
  incl_ns += other.incl_ns;
  excl_ns += other.excl_ns;
  rows_out += other.rows_out;
  bytes += other.bytes;
  seeks += other.seeks;
}

void ProfileAggregator::FoldSpan(const SpanNode& span, Node* into) {
  into->Add({1, ToNanos(span.vt_seconds()),
             ToNanos(span.ExclusiveVtSeconds()), span.rows_out, span.bytes(),
             span.seeks()});
  for (const auto& child : span.children) {
    FoldSpan(*child, &into->children[StrippedName(*child)]);
  }
}

void ProfileAggregator::AddSession(const TraceSession& session) {
  ++sessions_;
  FoldSpan(session.root(), &roots_[StrippedName(session.root())]);
}

void ProfileAggregator::MergeNode(const Node& from, Node* into) {
  into->Add(from);
  for (const auto& [name, child] : from.children) {
    MergeNode(child, &into->children[name]);
  }
}

void ProfileAggregator::MergeFrom(const ProfileAggregator& other) {
  sessions_ += other.sessions_;
  for (const auto& [name, node] : other.roots_) {
    MergeNode(node, &roots_[name]);
  }
}

std::vector<ProfileAggregator::OpStat> ProfileAggregator::TopOps(
    size_t n) const {
  // Sum every trie node into its operator name, independent of stack
  // position.
  std::map<std::string, OpStat> by_name;
  const auto walk = [&by_name](const auto& self, const std::string& name,
                               const Node& node) -> void {
    OpStat& stat = by_name[name];
    stat.name = name;
    stat.Add(node);
    for (const auto& [child, sub] : node.children) self(self, child, sub);
  };
  for (const auto& [name, node] : roots_) walk(walk, name, node);

  std::vector<OpStat> out;
  out.reserve(by_name.size());
  for (auto& [name, stat] : by_name) out.push_back(std::move(stat));
  std::sort(out.begin(), out.end(), [](const OpStat& a, const OpStat& b) {
    if (a.excl_ns != b.excl_ns) return a.excl_ns > b.excl_ns;
    return a.name < b.name;
  });
  if (n > 0 && out.size() > n) out.resize(n);
  return out;
}

std::string ProfileAggregator::TopOpsTable(size_t n) const {
  std::string out;
  AppendF(&out, "top operators (%" PRIu64 " profiles merged):\n", sessions_);
  AppendF(&out, "%-40s %8s %12s %12s %12s %12s %8s\n", "operator", "calls",
          "excl(ms)", "incl(ms)", "rows_out", "bytes", "seeks");
  for (const OpStat& stat : TopOps(n)) {
    std::string name = stat.name;
    if (name.size() > 40) name.resize(40);
    AppendF(&out,
            "%-40s %8" PRIu64 " %12.3f %12.3f %12" PRIu64 " %12" PRIu64
            " %8" PRIu64 "\n",
            name.c_str(), stat.calls, stat.excl_ns / 1e6, stat.incl_ns / 1e6,
            stat.rows_out, stat.bytes, stat.seeks);
  }
  return out;
}

std::string ProfileAggregator::CollapsedStacks() const {
  // Flatten the trie into "a;b;c <excl_ns>" lines. std::map iteration
  // gives lexicographic stack order for free.
  std::string out;
  const auto walk = [&out](const auto& self, const std::string& stack,
                           const Node& node) -> void {
    if (node.excl_ns > 0) {
      out += stack + " " + std::to_string(node.excl_ns) + "\n";
    }
    for (const auto& [name, child] : node.children) {
      self(self, stack + ";" + name, child);
    }
  };
  for (const auto& [name, node] : roots_) walk(walk, name, node);
  return out;
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

void Telemetry::Record(QueryLogRecord record, const TraceSession* profile) {
  if (record.text.size() > kMaxTextBytes) record.text.resize(kMaxTextBytes);
  MutexLock lock(&mutex_);
  if (profile != nullptr && profile->finished()) {
    aggregator_.AddSession(*profile);
  }
  log_.push_back(std::move(record));
}

void Telemetry::MergeFrom(const Telemetry& other) {
  // Snapshot the source under its own lock, release, then lock this
  // bundle: two kTelemetry mutexes are never held together.
  std::vector<QueryLogRecord> other_log;
  ProfileAggregator other_aggregator;
  {
    MutexLock lock(&other.mutex_);
    other_log = other.log_;
    other_aggregator.MergeFrom(other.aggregator_);
  }
  MutexLock lock(&mutex_);
  log_.insert(log_.end(), std::make_move_iterator(other_log.begin()),
              std::make_move_iterator(other_log.end()));
  aggregator_.MergeFrom(other_aggregator);
}

std::vector<QueryLogRecord> Telemetry::LogSnapshot() const {
  MutexLock lock(&mutex_);
  return log_;
}

std::string Telemetry::QueryLogJsonl(bool include_host_time) const {
  MutexLock lock(&mutex_);
  std::string out;
  for (const QueryLogRecord& record : log_) {
    out += QueryLogRecordJson(record, include_host_time) + "\n";
  }
  return out;
}

std::string Telemetry::WindowsJson() const {
  MutexLock lock(&mutex_);
  return WindowedMetrics(log_).ToJson();
}

WindowedMetrics::WindowSnapshot Telemetry::PooledWindow() const {
  MutexLock lock(&mutex_);
  return WindowedMetrics(log_).Pooled();
}

std::vector<ProfileAggregator::OpStat> Telemetry::TopOps(size_t n) const {
  MutexLock lock(&mutex_);
  return aggregator_.TopOps(n);
}

std::string Telemetry::TopOpsTable(size_t n) const {
  MutexLock lock(&mutex_);
  return aggregator_.TopOpsTable(n);
}

std::string Telemetry::CollapsedStacks() const {
  MutexLock lock(&mutex_);
  return aggregator_.CollapsedStacks();
}

uint64_t Telemetry::records() const {
  MutexLock lock(&mutex_);
  return log_.size();
}

}  // namespace swan::obs
