#include "obs/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>

#include "obs/json_writer.h"

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

namespace {

// One aligned row of the text profile per span, children indented.
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

// One Chrome event per span on the control track, plus one per lane that
// accrued virtual I/O inside the span, on the lane's own track. Lane
// slices start at the span's start; their duration is the lane's accrual,
// i.e. the lane's contribution to the span's critical path.
void ChromeSpanEvents(JsonWriter* w, const SpanNode& node, int pid,
                      double offset_us) {
  const double ts_us = node.vt_start * 1e6 + offset_us;
  w->BeginObject().Field("ph", "X").Field("pid", pid).Field("tid", 1)
      .Field("ts", ts_us, 3).Field("dur", node.vt_seconds() * 1e6, 3)
      .Field("name", node.name).Key("args").BeginObject()
      .Field("rows_in", node.rows_in).Field("rows_out", node.rows_out)
      .Field("bytes", node.bytes()).Field("seeks", node.seeks())
      .Field("morsels", node.morsels()).Field("regions", node.regions())
      .Field("net_bytes", node.net_bytes())
      .Field("net_messages", node.net_messages()).EndObject().EndObject();
  const std::vector<double> lanes = node.LaneIoSeconds();
  for (size_t lane = 0; lane < lanes.size(); ++lane) {
    if (lanes[lane] <= 0.0) continue;
    w->BeginObject().Field("ph", "X").Field("pid", pid)
        .Field("tid", lane + 2).Field("ts", ts_us, 3)
        .Field("dur", lanes[lane] * 1e6, 3).Field("name", node.name)
        .Key("args").BeginObject().Field("lane", lane).EndObject()
        .EndObject();
  }
  for (const auto& child : node.children) {
    ChromeSpanEvents(w, *child, pid, offset_us);
  }
}

// Metadata events naming one session's process (tid 0), its control
// track (tid 1) and one track per lane of its thread budget, present even
// when a lane accrued no I/O, so the track layout is a function of the
// width alone.
void ChromeTrackMeta(JsonWriter* w, const std::string& process_name, int pid,
                     int threads) {
  for (int tid = 0; tid < threads + 2; ++tid) {
    const std::string name =
        tid == 0   ? process_name
        : tid == 1 ? "control (virtual clock)"
                   : "lane " + std::to_string(tid - 2) + " I/O";
    w->BeginObject().Field("ph", "M").Field("pid", pid).Field("tid", tid)
        .Field("name", tid == 0 ? "process_name" : "thread_name")
        .Key("args").BeginObject().Field("name", name).EndObject()
        .EndObject();
  }
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
  return ChromeTraceJsonMulti({{"swandb", &session, 0.0}});
}

std::string ChromeTraceJsonMulti(const std::vector<SessionTrack>& tracks) {
  JsonWriter w;
  w.BeginObject().Key("traceEvents").BeginArray(JsonWriter::Layout::kLines);
  // Deterministic label -> pid assignment in first-appearance order; the
  // process metadata is emitted once per label, sized by that label's
  // first track (later tracks of the same label reuse the pid).
  std::map<std::string, int> pids;
  for (const SessionTrack& track : tracks) {
    if (track.session == nullptr) continue;
    const auto [it, added] =
        pids.emplace(track.label, static_cast<int>(pids.size()) + 1);
    if (added) {
      ChromeTrackMeta(&w, track.label, it->second, track.session->threads());
    }
    ChromeSpanEvents(&w, track.session->root(), it->second,
                     track.ts_offset_seconds * 1e6);
  }
  w.EndArray().Field("displayTimeUnit", "ms").EndObject();
  return w.str() + "\n";
}

}  // namespace swan::obs
