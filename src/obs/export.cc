#include "obs/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>

namespace swan::obs {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, std::min<size_t>(static_cast<size_t>(n),
                                               sizeof(buf) - 1));
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          AppendF(&out, "\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Text profile
// ---------------------------------------------------------------------------

void TextRow(std::string* out, const SpanNode& node, int depth,
             double root_real) {
  std::string label(static_cast<size_t>(depth) * 2, ' ');
  label += node.name;
  if (label.size() > 40) label.resize(40);
  const double incl = node.vt_seconds();
  const double excl = node.ExclusiveVtSeconds();
  const double pct = root_real > 0.0 ? 100.0 * incl / root_real : 0.0;
  AppendF(out,
          "%-40s %10.6f %10.6f %6.1f%% %10" PRIu64 " %10" PRIu64
          " %12" PRIu64 " %6" PRIu64 " %8" PRIu64 "\n",
          label.c_str(), incl, excl, pct, node.rows_in, node.rows_out,
          node.bytes(), node.seeks(), node.morsels());
  for (const auto& child : node.children) {
    TextRow(out, *child, depth + 1, root_real);
  }
}

// ---------------------------------------------------------------------------
// Chrome trace
// ---------------------------------------------------------------------------

void ChromeSpanEvents(std::string* out, const SpanNode& node, int pid,
                      double offset_us, bool* first) {
  const double ts_us = node.vt_start * 1e6 + offset_us;
  const double dur_us = node.vt_seconds() * 1e6;
  AppendF(out,
          "%s{\"ph\":\"X\",\"pid\":%d,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
          "\"name\":\"%s\",\"args\":{\"rows_in\":%" PRIu64
          ",\"rows_out\":%" PRIu64 ",\"bytes\":%" PRIu64 ",\"seeks\":%" PRIu64
          ",\"morsels\":%" PRIu64 ",\"regions\":%" PRIu64
          ",\"net_bytes\":%" PRIu64 ",\"net_messages\":%" PRIu64 "}}",
          *first ? "" : ",\n", pid, ts_us, dur_us,
          JsonEscape(node.name).c_str(), node.rows_in, node.rows_out,
          node.bytes(), node.seeks(), node.morsels(), node.regions(),
          node.net_bytes(), node.net_messages());
  *first = false;
  // One slice per lane that accrued virtual I/O inside this span, on the
  // lane's own track. Lane slices start at the span's start; their
  // duration is the lane's accrual, i.e. the lane's contribution to the
  // span's critical path.
  const std::vector<double> lanes = node.LaneIoSeconds();
  for (size_t lane = 0; lane < lanes.size(); ++lane) {
    if (lanes[lane] <= 0.0) continue;
    AppendF(out,
            ",\n{\"ph\":\"X\",\"pid\":%d,\"tid\":%zu,\"ts\":%.3f,"
            "\"dur\":%.3f,\"name\":\"%s\",\"args\":{\"lane\":%zu}}",
            pid, lane + 2, ts_us, lanes[lane] * 1e6,
            JsonEscape(node.name).c_str(), lane);
  }
  for (const auto& child : node.children) {
    ChromeSpanEvents(out, *child, pid, offset_us, first);
  }
}

// Metadata events naming one session's process and track layout.
void ChromeTrackMeta(std::string* out, const std::string& process_name,
                     int pid, int threads, bool* first) {
  AppendF(out,
          "%s{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"%s\"}},\n",
          *first ? "" : ",\n", pid, JsonEscape(process_name).c_str());
  AppendF(out,
          "{\"ph\":\"M\",\"pid\":%d,\"tid\":1,\"name\":\"thread_name\","
          "\"args\":{\"name\":\"control (virtual clock)\"}}",
          pid);
  // One named track per lane of the session's thread budget, present even
  // when a lane accrued no I/O, so the track layout is a function of the
  // width alone.
  for (int lane = 0; lane < threads; ++lane) {
    AppendF(out,
            ",\n{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\","
            "\"args\":{\"name\":\"lane %d I/O\"}}",
            pid, lane + 2, lane);
  }
  *first = false;
}

// ---------------------------------------------------------------------------
// JSON profile
// ---------------------------------------------------------------------------

void JsonSpan(std::string* out, const SpanNode& node) {
  AppendF(out,
          "{\"name\":\"%s\",\"vt_start\":%.9f,\"vt_seconds\":%.9f,"
          "\"excl_vt_seconds\":%.9f,\"rows_in\":%" PRIu64
          ",\"rows_out\":%" PRIu64 ",\"bytes\":%" PRIu64 ",\"seeks\":%" PRIu64
          ",\"morsels\":%" PRIu64 ",\"regions\":%" PRIu64
          ",\"net_bytes\":%" PRIu64 ",\"net_messages\":%" PRIu64,
          JsonEscape(node.name).c_str(), node.vt_start, node.vt_seconds(),
          node.ExclusiveVtSeconds(), node.rows_in, node.rows_out, node.bytes(),
          node.seeks(), node.morsels(), node.regions(), node.net_bytes(),
          node.net_messages());
  const std::vector<double> lanes = node.LaneIoSeconds();
  out->append(",\"lane_io_seconds\":[");
  for (size_t i = 0; i < lanes.size(); ++i) {
    AppendF(out, "%s%.9f", i ? "," : "", lanes[i]);
  }
  out->append("],\"children\":[");
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i) out->append(",");
    JsonSpan(out, *node.children[i]);
  }
  out->append("]}");
}

void JsonMetrics(std::string* out, const MetricsRegistry::Snapshot& snap) {
  out->append("{\"counters\":{");
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    AppendF(out, "%s\"%s\":%" PRIu64, first ? "" : ",",
            JsonEscape(name).c_str(), value);
    first = false;
  }
  out->append("},\"histograms\":{");
  first = true;
  for (const auto& [name, hist] : snap.histograms) {
    AppendF(out, "%s\"%s\":{\"upper_bounds\":[", first ? "" : ",",
            JsonEscape(name).c_str());
    first = false;
    for (size_t i = 0; i < hist.upper_bounds.size(); ++i) {
      AppendF(out, "%s%" PRIu64, i ? "," : "", hist.upper_bounds[i]);
    }
    out->append("],\"counts\":[");
    for (size_t i = 0; i < hist.counts.size(); ++i) {
      AppendF(out, "%s%" PRIu64, i ? "," : "", hist.counts[i]);
    }
    AppendF(out, "],\"total_count\":%" PRIu64 ",\"sum\":%" PRIu64 "}",
            hist.total_count, hist.sum);
  }
  out->append("}}");
}

}  // namespace

std::string TextProfile(const TraceSession& session) {
  std::string out;
  const SpanNode& root = session.root();
  const double real = session.RootRealSeconds();
  AppendF(&out, "profile: %s (threads=%d)\n", root.name.c_str(),
          session.threads());
  AppendF(&out,
          "modeled real %.6fs = cpu %.6fs + io %.6fs  "
          "(%" PRIu64 " bytes, %" PRIu64 " seeks)\n",
          real, session.cpu_seconds(), root.vt_seconds(), root.bytes(),
          root.seeks());
  AppendF(&out, "%-40s %10s %10s %7s %10s %10s %12s %6s %8s\n", "span",
          "incl(s)", "excl(s)", "%real", "rows_in", "rows_out", "bytes",
          "seeks", "morsels");
  TextRow(&out, root, 0, real);

  const MetricsRegistry::Snapshot snap = session.metrics().Snap();
  if (!snap.counters.empty() || !snap.histograms.empty()) {
    out.append("metrics:\n");
    for (const auto& [name, value] : snap.counters) {
      AppendF(&out, "  %-38s %12" PRIu64 "\n", name.c_str(), value);
    }
    for (const auto& [name, hist] : snap.histograms) {
      AppendF(&out, "  %-38s n=%" PRIu64 " sum=%" PRIu64 " buckets:",
              name.c_str(), hist.total_count, hist.sum);
      for (size_t i = 0; i < hist.counts.size(); ++i) {
        if (i < hist.upper_bounds.size()) {
          AppendF(&out, " [<=%" PRIu64 "]=%" PRIu64, hist.upper_bounds[i],
                  hist.counts[i]);
        } else {
          AppendF(&out, " [inf]=%" PRIu64, hist.counts[i]);
        }
      }
      out.append("\n");
    }
  }
  return out;
}

std::string ChromeTraceJson(const TraceSession& session) {
  std::string out;
  out.append("{\"traceEvents\":[\n");
  bool meta_first = true;
  ChromeTrackMeta(&out, "swandb", /*pid=*/1, session.threads(), &meta_first);
  out.append(",\n");
  bool first = true;
  ChromeSpanEvents(&out, session.root(), /*pid=*/1, /*offset_us=*/0.0, &first);
  out.append("\n],\"displayTimeUnit\":\"ms\"}\n");
  return out;
}

std::string ChromeTraceJsonMulti(const std::vector<SessionTrack>& tracks) {
  std::string out;
  out.append("{\"traceEvents\":[\n");
  bool first = true;
  // Deterministic label -> pid assignment in first-appearance order; the
  // process metadata is emitted once per label, sized by that label's
  // first track (later tracks of the same label reuse the pid).
  std::map<std::string, int> pids;
  int next_pid = 0;
  for (const SessionTrack& track : tracks) {
    if (track.session == nullptr) continue;
    int pid = 0;
    const auto it = pids.find(track.label);
    if (it == pids.end()) {
      pid = ++next_pid;
      pids.emplace(track.label, pid);
      ChromeTrackMeta(&out, track.label, pid, track.session->threads(), &first);
    } else {
      pid = it->second;
    }
    ChromeSpanEvents(&out, track.session->root(), pid,
                     track.ts_offset_seconds * 1e6, &first);
  }
  out.append("\n],\"displayTimeUnit\":\"ms\"}\n");
  return out;
}

std::string ProfileJson(const TraceSession& session, bool include_host_time) {
  std::string out;
  AppendF(&out, "{\"threads\":%d,\"io_seconds\":%.9f,", session.threads(),
          session.root().vt_seconds());
  if (include_host_time) {
    AppendF(&out, "\"cpu_seconds\":%.9f,\"real_seconds\":%.9f,",
            session.cpu_seconds(), session.RootRealSeconds());
  }
  out.append("\"root\":");
  JsonSpan(&out, session.root());
  out.append(",\"metrics\":");
  JsonMetrics(&out, session.metrics().Snap());
  out.append("}\n");
  return out;
}

}  // namespace swan::obs
