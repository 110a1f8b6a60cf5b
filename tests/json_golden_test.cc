// obs::JsonWriter's contract, and byte-exact goldens for every JSON
// emitter: the query-log record, the latency windows, the single- and
// multi-session Chrome traces and the bench JSON document (cells plus each
// bench's extra fields), over fixed hand-built inputs. The expected bytes
// live in tests/goldens/ (recorded before the emitters moved onto the
// writer); any change to an emitter's output shows up as a diff against
// those files.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/export.h"
#include "obs/json_writer.h"
#include "obs/querylog.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace swan {
namespace {

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(SWAN_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void ExpectGolden(const std::string& actual, const std::string& name) {
  EXPECT_EQ(actual, ReadGolden(name)) << "golden " << name;
}

// ---------------------------------------------------------------------------
// The writer's own contract: escaping, separators, layouts and misuse.

TEST(JsonWriterTest, EscapesSeparatesAndLaysOut) {
  obs::JsonWriter w;
  w.BeginObject().Field("a\"b", "x\\y\x7f\x1f\b").Key("list").BeginArray()
      .Value(-3).Value(uint64_t{18446744073709551615u}).Value(0.5, 2)
      .Value(-1e-7, 3).Value(std::nan(""), 9)
      .Value(-std::numeric_limits<double>::infinity(), 1).BeginObject().EndObject().BeginArray().EndArray()
      .EndArray().Key("lines").BeginArray(obs::JsonWriter::Layout::kLines)
      .Value(true).Value(false).EndArray().EndObject();
  EXPECT_EQ(w.str(),
            "{\"a\\\"b\":\"x\\\\y\x7f\\u001f\\u0008\",\"list\":[-3,"
            "18446744073709551615,0.50,-0.000,null,null,{},[]],\"lines\":[\ntrue,\n"
            "false\n]}");
  EXPECT_TRUE(w.complete());
}

TEST(JsonWriterTest, MisuseAborts) {
  EXPECT_DEATH(obs::JsonWriter().Key("k"), "key outside an object");
  EXPECT_DEATH(obs::JsonWriter().BeginObject().Value(1), "without a key");
  EXPECT_DEATH(obs::JsonWriter().BeginArray().Key("k"), "key outside");
  EXPECT_DEATH(obs::JsonWriter().BeginArray().EndObject(), "unbalanced End");
  EXPECT_DEATH(obs::JsonWriter().Value(1).Value(2), "second top-level");
  EXPECT_DEATH(obs::JsonWriter().Value(obs::JsonWriter().BeginObject()),
               "partial");
}

// ---------------------------------------------------------------------------
// Query log: an ok and a failed record, each with and without host time,
// with quotes and control characters in session, text and error.

obs::QueryLogRecord LoggedRecord(bool ok) {
  obs::QueryLogRecord r;
  r.seq = 7;
  r.session = "al\"ice\t\x01\\";
  r.kind = "sparql";
  r.text = "SELECT ?s WHERE { ?s <p> \"a\\b\" }\n";
  r.text_hash = obs::Fnv1a64(r.text);
  r.backend = "col vert. SO";
  r.plan_mode = "cost-based";
  r.ok = ok;
  if (!ok) r.error = "parse error: \"}\" at\r\nline 2\x1f";
  r.cache_hit = ok;
  r.snapshot_version = 3;
  r.rows = ok ? 42 : 0;
  r.vt_start = 0.125;
  r.vt_finish = 0.1375;
  r.queue_wait_seconds = 0.0005;
  r.queue_depth = 2;
  r.io_seconds = 0.0123456789;
  r.latency_seconds = 0.0124456789;
  r.bytes_read = 1048576;
  r.seeks = 17;
  r.match_calls = 5;
  r.morsels = 9;
  r.bgp_batches = 2;
  r.star_gathers = 1;
  r.node = 1;
  r.nodes = 2;
  r.net_bytes = 4096;
  r.net_messages = 3;
  r.net_seconds = 0.00008192;
  r.session_cache_hits = 4;
  r.session_cache_misses = 6;
  r.session_cache_evictions = 1;
  r.ops = {{"merge-join \"x\"", 120, 118}, {"scan <p>", 7, 9}};
  r.cpu_seconds = 0.000321;
  r.service_seconds = 0.012766679;
  return r;
}

TEST(JsonGoldenTest, QueryLogRecords) {
  std::string out;
  for (const bool ok : {true, false}) {
    for (const bool host : {false, true}) {
      out += obs::QueryLogRecordJson(LoggedRecord(ok), host);
      out += '\n';
    }
  }
  ExpectGolden(out, "querylog.jsonl");
}

// ---------------------------------------------------------------------------
// Latency windows over fixed records: three windows, a cache hit, an SLO
// breach and a queue depth.

obs::QueryLogRecord Finished(double vt_finish, double latency, bool hit,
                             uint64_t depth) {
  obs::QueryLogRecord r;
  r.vt_finish = vt_finish;
  r.latency_seconds = latency;
  r.cache_hit = hit;
  r.queue_depth = depth;
  return r;
}

TEST(JsonGoldenTest, WindowsJson) {
  const obs::WindowedMetrics windows({
      Finished(0.01, 0.0012, false, 0),
      Finished(0.05, 0.0001, true, 3),
      Finished(0.099, 0.061, false, 1),
      Finished(0.1, 0.002, false, 0),
      Finished(0.35, 0.0305, true, 5),
  });
  ExpectGolden(windows.ToJson(), "windows.json");
}

// ---------------------------------------------------------------------------
// Chrome traces over hand-built sessions on fake sources: two lanes,
// nested spans with network and lane I/O, escaped span names.

struct FakeSources {
  double now = 0.0;
  obs::CounterSample sample;

  obs::TraceSources Bind() {
    return {[this] { return now; }, [this] { return sample; }};
  }
};

std::unique_ptr<obs::TraceSession> MakeSession(const std::string& root,
                                               double scale,
                                               FakeSources* src) {
  src->now = 1.0;
  auto session = std::make_unique<obs::TraceSession>(root, src->Bind(),
                                                     /*threads=*/2);
  {
    obs::Span scan(session.get(), "scan <p> \"q\"\test=10");
    src->now += 0.001 * scale;
    src->sample.bytes_read += 8192;
    src->sample.seeks += 1;
    src->sample.morsels += 4;
    src->sample.parallel_regions += 1;
    src->sample.lane_seconds = {0.0004 * scale, 0.0006 * scale};
    scan.set_rows_out(10);
    {
      obs::Span join(session.get(), "merge-join est=4");
      src->now += 0.0005;
      src->sample.net_bytes += 512;
      src->sample.net_messages += 1;
      join.set_rows_in(10);
      join.set_rows_out(4);
    }
  }
  src->now += 0.0002;
  session->Finish(0.00005);
  return session;
}

TEST(JsonGoldenTest, ChromeTrace) {
  FakeSources src;
  const auto session = MakeSession("query \"q2\"", 1.0, &src);
  ExpectGolden(obs::ChromeTraceJson(*session), "chrome_trace.json");
}

TEST(JsonGoldenTest, ChromeTraceMulti) {
  FakeSources a, b, c;
  const auto first = MakeSession("s1", 1.0, &a);
  const auto second = MakeSession("s2", 2.5, &b);
  const auto third = MakeSession("s3", 0.5, &c);
  const std::vector<obs::SessionTrack> tracks = {
      {"s1:alice", first.get(), 0.0},
      {"s2:b\"o\\b\n", second.get(), 0.25},
      {"skipped", nullptr, 0.5},
      {"s1:alice", third.get(), 1.125},
  };
  ExpectGolden(obs::ChromeTraceJsonMulti(tracks), "chrome_trace_multi.json");
}

// ---------------------------------------------------------------------------
// Bench JSON: the shared cells plus, per bench, the extra fields that
// bench writes.

bench::BenchJsonWriter WithCells(const std::string& name) {
  bench::BenchJsonWriter json(name);
  json.Add("q1", "DBX triple PSO", 123456, 0.123456789);
  json.Add("q2*", "col \"vert\" SO", 7, 1.5e-5, 2.3456789);
  json.Add("q1", "C-Store vert. SO", 0, 0.0, 0.0);
  // A measured cell also carries its seeks, I/O seconds and net bytes.
  bench_support::Measurement m;
  m.bytes_read = 98304;
  m.real_seconds = 0.0123456789;
  m.seeks = 12;
  m.io_seconds = 0.0098765432;
  m.net_bytes = 4096;
  json.Add("q8", "x2 nodes", m, 1.9876543);
  return json;
}

TEST(JsonGoldenTest, BenchJson) {
  std::string out;
  {
    auto json = WithCells("table6_cold_runs");
    json.Extra("triples").Value(uint64_t{20000});
    json.Extra("codec").Value("auto");
    json.Extra("hot").Value(false);
    out += json.ToJson();
  }
  {
    auto json = WithCells("parallel_speedup");
    json.Extra("triples").Value(uint64_t{400000});
    obs::JsonWriter& widths = json.Extra("threads").BeginArray();
    for (const int t : {1, 2, 4, 8}) widths.Value(t);
    widths.EndArray();
    json.Extra("equivalent").Value(true);
    out += json.ToJson();
  }
  {
    auto json = WithCells("serve_throughput");
    json.Extra("triples").Value(uint64_t{20000});
    json.Extra("workers").Value(4);
    json.Extra("telemetry_reconciled").Value(true);
    out += json.ToJson();
  }
  {
    auto json = WithCells("scaleout");
    json.Extra("triples").Value(uint64_t{400000});
    json.Extra("scaleout").BeginObject()
        .Field("speedup_2_nodes", 1.8234567, 6)
        .Field("speedup_4_nodes", 3.0812345, 6)
        .Field("cross_net_bytes", uint64_t{123456789}).EndObject();
    out += json.ToJson();
  }
  {
    auto json = WithCells("ablation_planner");
    json.Extra("planner").BeginObject().Field("losses", 0)
        .Field("gates_passed", true).Field("heuristic_baseline", "applied")
        .EndObject();
    out += json.ToJson();
  }
  {
    auto json = WithCells("ablation_compression");
    json.Extra("triples").Value(uint64_t{40000});
    json.Extra("hot").Value(false);
    out += json.ToJson();
  }
  ExpectGolden(out, "bench.jsonl");
}

}  // namespace
}  // namespace swan
