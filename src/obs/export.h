#ifndef SWANDB_OBS_EXPORT_H_
#define SWANDB_OBS_EXPORT_H_

#include <string>
#include <vector>

#include "obs/trace.h"

namespace swan::obs {

// printf-style append for the fixed-width text tables (TextProfile, the
// top-operators table); one call adds at most 511 bytes. JSON is never
// built with it: every JSON export goes through obs::JsonWriter.
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void AppendF(std::string* out, const char* fmt, ...);

// Exporters over a finished TraceSession. All numeric output uses fixed
// formatting, so two sessions with identical recorded state produce
// byte-identical strings.

// Human-readable profile: an aligned span tree with inclusive/exclusive
// virtual time, percent of the modeled real time, row/byte/seek/morsel
// counts, followed by the metrics registry snapshot. Contains the
// host-measured modeled-CPU figure, so it is *not* part of the
// byte-reproducible surface (the Chrome trace is).
std::string TextProfile(const TraceSession& session);

// Chrome trace_event JSON (chrome://tracing, Perfetto). Track (tid) 1 is
// the control thread carrying the span tree on the virtual clock; tracks
// 2..threads+1 are one per lane, carrying each span's per-lane virtual
// I/O accrual. Timestamps are virtual microseconds. Fully deterministic.
std::string ChromeTraceJson(const TraceSession& session);

// Multi-session Chrome trace: every distinct label becomes its own Chrome
// *process* (pids assigned in first-appearance order) with the same
// per-pid track layout as ChromeTraceJson — so the serving layer's
// per-session profiles land on visually distinct track groups in one
// trace file, and the successive requests of one session share a group.
// ts_offset_seconds shifts a session's events along the timeline (span
// times are relative to each session's own start; the serving layer
// passes each request's start on the store's virtual clock so requests
// line up end to end per track). Null sessions are skipped. Fully
// deterministic.
struct SessionTrack {
  std::string label;
  const TraceSession* session = nullptr;
  double ts_offset_seconds = 0.0;
};
std::string ChromeTraceJsonMulti(const std::vector<SessionTrack>& tracks);

}  // namespace swan::obs

#endif  // SWANDB_OBS_EXPORT_H_
