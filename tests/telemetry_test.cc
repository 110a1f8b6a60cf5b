// Fleet telemetry: the structured query log's byte-reproducibility
// across serve worker counts (the determinism acceptance gate), one cost
// meter behind the bench harness and the serve tier, the
// fixed-boundary windowed metrics (half-open windows, exact nearest-rank
// percentiles vs a brute-force sort, merge correctness), and the
// cross-query profile aggregator (est-suffix folding, exact merge
// associativity in integer nanoseconds).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench_support/barton_generator.h"
#include "bench_support/harness.h"
#include "common/macros.h"
#include "core/query.h"
#include "core/store.h"
#include "exec/exec_context.h"
#include "obs/export.h"
#include "obs/querylog.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "serve/script.h"
#include "serve/service.h"

namespace swan::obs {
namespace {

// ---------------------------------------------------------------------------
// Query-log byte-identity across serve worker counts.
//
// The determinism contract of the whole PR: the serve tier's query-log
// JSONL, window snapshots, top-operators table, and collapsed flamegraph
// stacks are byte-identical at any worker count, because every recorded
// quantity is a pure function of the dispatch order (which the turnstile
// fixes) and the virtual clock.

class TelemetryServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bench_support::BartonConfig config;
    config.target_triples = 4000;
    barton_ = bench_support::GenerateBarton(config);
    ctx_ = bench_support::MakeBartonContext(barton_.dataset, 28);
  }

  std::unique_ptr<core::RdfStore> OpenStore() {
    return core::RdfStore::Open(barton_.dataset, core::StoreOptions{});
  }

  static std::vector<serve::ScriptCommand> Mix() {
    const auto result = serve::ParseScript(
        "session alice priority=1\n"
        "session bob\n"
        "bench alice q1\n"
        "bench alice repeat=2 q5\n"
        "query bob SELECT ?s WHERE { ?s <type> <Text> } LIMIT 10\n"
        "query bob repeat=2 SELECT ?s ?o WHERE { ?s <origin> ?o } LIMIT 5\n"
        "bench bob q2\n");
    SWAN_CHECK(result.ok());
    return result.value();
  }

  bench_support::BartonDataset barton_;
  std::optional<core::QueryContext> ctx_;
};

TEST_F(TelemetryServeTest, QueryLogIsByteIdenticalAtAnyWorkerCount) {
  std::vector<std::string> logs, windows, topops, stacks;
  for (const int workers : {1, 2, 8}) {
    auto store = OpenStore();
    serve::ServiceOptions options;
    options.workers = workers;
    serve::QueryService service(store.get(), ctx_, options);
    auto run = serve::RunScript(&service, Mix());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    // The deterministic surface excludes host time.
    logs.push_back(service.telemetry().QueryLogJsonl(false));
    windows.push_back(service.telemetry().WindowsJson());
    topops.push_back(service.telemetry().TopOpsTable(0));
    stacks.push_back(service.telemetry().CollapsedStacks());
    EXPECT_EQ(service.telemetry().records(),
              run.value().completions.size());
    service.Stop();
  }
  ASSERT_FALSE(logs[0].empty());
  for (size_t w = 1; w < logs.size(); ++w) {
    EXPECT_EQ(logs[w], logs[0]) << "query log diverged at width " << w;
    EXPECT_EQ(windows[w], windows[0]) << "windows diverged at width " << w;
    EXPECT_EQ(topops[w], topops[0]) << "top-ops diverged at width " << w;
    EXPECT_EQ(stacks[w], stacks[0]) << "stacks diverged at width " << w;
  }
}

// A session name longer than any formatting buffer, with a quote and a
// backslash in it: the query-log line and the multi-session Chrome trace
// carry it whole and escaped, and each stays one closed document.
TEST_F(TelemetryServeTest, LongSessionNameSurvivesEveryExport) {
  const std::string tail(600, 'n');
  const std::string name = "long\"q\\\"uote\"" + tail;
  const std::string escaped = "long\\\"q\\\\\\\"uote\\\"" + tail;
  const auto script =
      serve::ParseScript("session " + name + "\nbench " + name + " q1\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  auto store = OpenStore();
  serve::ServiceOptions options;
  options.trace = true;
  serve::QueryService service(store.get(), ctx_, options);
  ASSERT_TRUE(serve::RunScript(&service, script.value()).ok());

  const std::string log = service.telemetry().QueryLogJsonl(false);
  EXPECT_NE(
      log.find("\"session\":\"s1:" + escaped + "\",\"kind\":\"bench\","),
      std::string::npos)
      << log;
  EXPECT_EQ(std::count(log.begin(), log.end(), '\n'), 1) << log;
  EXPECT_EQ(log.substr(log.size() - 3), "]}\n") << log;

  const std::string trace = ChromeTraceJsonMulti(service.SessionTracks());
  EXPECT_NE(trace.find("\"args\":{\"name\":\"s1:" + escaped + "\"}}"),
            std::string::npos)
      << trace;
  const std::string close = "\n],\"displayTimeUnit\":\"ms\"}\n";
  ASSERT_GT(trace.size(), close.size());
  EXPECT_EQ(trace.substr(trace.size() - close.size()), close);
  service.Stop();
}

TEST_F(TelemetryServeTest, RecordsCarryPlanAndCacheState) {
  auto store = OpenStore();
  serve::QueryService service(store.get(), ctx_, {});
  auto run = serve::RunScript(&service, Mix());
  ASSERT_TRUE(run.ok());
  const auto log = service.telemetry().LogSnapshot();
  ASSERT_EQ(log.size(), 7u);
  uint64_t hits = 0;
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].seq, i) << "records must be in dispatch order";
    EXPECT_TRUE(log[i].ok);
    EXPECT_NE(log[i].text_hash, 0u);
    EXPECT_FALSE(log[i].backend.empty());
    if (log[i].cache_hit) {
      ++hits;
      EXPECT_EQ(log[i].bytes_read, 0u);
      EXPECT_TRUE(log[i].ops.empty());  // no execution, no span tree
    } else if (log[i].kind == "sparql") {
      EXPECT_FALSE(log[i].plan_mode.empty());
    }
    EXPECT_GE(log[i].vt_finish, log[i].vt_start);
  }
  EXPECT_EQ(hits, 2u);  // q5 and the <origin> query each repeat once
  // The executed queries were profiled (always-on), so the aggregator has
  // operator totals and the flamegraph export is non-empty.
  EXPECT_FALSE(service.telemetry().TopOps().empty());
  EXPECT_NE(service.telemetry().CollapsedStacks().find(";"),
            std::string::npos);
  service.Stop();
}

TEST_F(TelemetryServeTest, PerSessionCountersDivergeFromGlobal) {
  // Two sessions issue the same query: the second session's execution
  // misses (per-session result visibility goes through the shared cache,
  // so it actually hits) — what must differ is the *per-session*
  // attribution in the log: bob's hit is not charged to alice.
  const auto script = serve::ParseScript(
      "session alice\n"
      "session bob\n"
      "query alice SELECT ?s WHERE { ?s <type> <Text> } LIMIT 10\n"
      "query bob SELECT ?s WHERE { ?s <type> <Text> } LIMIT 10\n"
      "query alice SELECT ?s WHERE { ?s <type> <Text> } LIMIT 10\n");
  ASSERT_TRUE(script.ok());
  auto store = OpenStore();
  serve::QueryService service(store.get(), ctx_, {});
  auto run = serve::RunScript(&service, script.value());
  ASSERT_TRUE(run.ok());
  const auto log = service.telemetry().LogSnapshot();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_FALSE(log[0].cache_hit);
  EXPECT_TRUE(log[1].cache_hit);
  EXPECT_TRUE(log[2].cache_hit);
  // Session-scoped counters: alice saw 1 miss + 1 hit, bob 1 hit + 0
  // misses — distinguishable even though the registry-global counters
  // only show totals.
  EXPECT_EQ(log[0].session_cache_misses, 1u);
  EXPECT_EQ(log[0].session_cache_hits, 0u);
  EXPECT_EQ(log[1].session_cache_hits, 1u);
  EXPECT_EQ(log[1].session_cache_misses, 0u);
  EXPECT_EQ(log[2].session_cache_hits, 1u);
  EXPECT_EQ(log[2].session_cache_misses, 1u);
  service.Stop();
}

// One meter behind both surfaces: a cold benchmark query measured by the
// bench harness and the same query served by the query service (after
// DropCaches) report the same virtual I/O, bytes, seeks and network, on
// a column vertical store at 1 and 2 nodes.
TEST_F(TelemetryServeTest, HarnessAndServiceMeterColdRunsAlike) {
  for (const int nodes : {1, 2}) {
    for (const core::QueryId q : {core::QueryId::kQ2, core::QueryId::kQ5}) {
      SCOPED_TRACE(std::to_string(nodes) + " nodes, " + core::ToString(q));
      core::StoreOptions options;
      options.nodes = nodes;
      auto measured_store = core::RdfStore::Open(barton_.dataset, options);
      const bench_support::Measurement m = bench_support::MeasureCold(
          &measured_store->backend(), q, *ctx_, exec::ExecContext(1), 1);

      auto served_store = core::RdfStore::Open(barton_.dataset, options);
      serve::QueryService service(served_store.get(), ctx_, {});
      const auto script = serve::ParseScript(
          "session alice\nbench alice " + core::ToString(q) + "\n");
      ASSERT_TRUE(script.ok());
      served_store->backend().DropCaches();
      ASSERT_TRUE(serve::RunScript(&service, script.value()).ok());
      const auto log = service.telemetry().LogSnapshot();
      ASSERT_EQ(log.size(), 1u);
      const QueryLogRecord& record = log[0];
      EXPECT_GT(record.bytes_read, 0u);
      EXPECT_EQ(record.io_seconds, m.io_seconds);
      EXPECT_EQ(record.bytes_read, m.bytes_read);
      EXPECT_EQ(record.seeks, m.seeks);
      EXPECT_EQ(record.net_bytes, m.net_bytes);
      EXPECT_EQ(record.net_messages, m.net_messages);
      EXPECT_EQ(record.net_seconds, m.net_seconds);
      if (nodes > 1) {
        EXPECT_GT(record.net_bytes, 0u);
      }
      service.Stop();
    }
  }
}

// ---------------------------------------------------------------------------
// Query-log JSON emission.

TEST(QueryLogTest, HostTimeFieldsAreExcludedFromDeterministicSurface) {
  QueryLogRecord record;
  record.kind = "sparql";
  record.text = "SELECT ?s WHERE { ?s <p> ?o }";
  record.text_hash = Fnv1a64(record.text);
  record.cpu_seconds = 0.123;
  record.service_seconds = 0.456;
  const std::string deterministic = QueryLogRecordJson(record, false);
  const std::string full = QueryLogRecordJson(record, true);
  EXPECT_EQ(deterministic.find("cpu_seconds"), std::string::npos);
  EXPECT_EQ(deterministic.find("service_seconds"), std::string::npos);
  EXPECT_NE(full.find("cpu_seconds"), std::string::npos);
  EXPECT_NE(full.find("service_seconds"), std::string::npos);
  // 16-hex-digit stable hash of the canonical text.
  EXPECT_NE(deterministic.find("\"text_hash\":\""), std::string::npos);
}

TEST(QueryLogTest, JsonEscapesAndErrorField) {
  QueryLogRecord record;
  record.text = "say \"hi\"\n";
  record.ok = false;
  record.error = "bad \\ thing";
  const std::string json = QueryLogRecordJson(record, false);
  EXPECT_NE(json.find("say \\\"hi\\\"\\n"), std::string::npos) << json;
  EXPECT_NE(json.find("\"error\":\"bad \\\\ thing\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
}

TEST(QueryLogTest, EstimatedNameSuffixSplits) {
  std::string op;
  uint64_t est = 0;
  EXPECT_TRUE(SplitEstimatedName("scan <p> est=120", &op, &est));
  EXPECT_EQ(op, "scan <p>");
  EXPECT_EQ(est, 120u);
  EXPECT_FALSE(SplitEstimatedName("scan <p>", &op, &est));
  EXPECT_FALSE(SplitEstimatedName("scan est=notanumber", &op, &est));
}

// ---------------------------------------------------------------------------
// Windowed metrics: fixed boundaries and merge. Windows are 0.1 s wide on
// the virtual clock, with a 0.05 s SLO.

// A record carrying just what the windows read off the log.
QueryLogRecord Completed(double finish_vt, double latency_seconds,
                         bool cache_hit, uint64_t queue_depth) {
  QueryLogRecord record;
  record.vt_finish = finish_vt;
  record.latency_seconds = latency_seconds;
  record.cache_hit = cache_hit;
  record.queue_depth = queue_depth;
  return record;
}

TEST(WindowedMetricsTest, HalfOpenWindowBoundaries) {
  const WindowedMetrics wm({
      Completed(0.0, 0.01, false, 0),       // window 0: [0, 0.1)
      Completed(0.0999999, 0.06, true, 3),  // window 0, SLO breach, hit
      Completed(0.1, 0.02, false, 1),       // window 1: boundary exclusive
      Completed(0.25, 0.03, false, 0),      // window 2
  });
  const auto windows = wm.Windows();
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].index, 0);
  EXPECT_EQ(windows[0].count, 2u);
  EXPECT_EQ(windows[0].cache_hits, 1u);
  EXPECT_EQ(windows[0].slo_breaches, 1u);
  EXPECT_EQ(windows[0].max_queue_depth, 3u);
  EXPECT_DOUBLE_EQ(windows[0].throughput_per_second, 20.0);
  EXPECT_EQ(windows[1].index, 1);
  EXPECT_EQ(windows[1].count, 1u);
  EXPECT_EQ(windows[2].index, 2);
  EXPECT_EQ(wm.samples(), 4u);
  // Pooled throughput spans whole windows 0..2 inclusive.
  EXPECT_NEAR(wm.Pooled().throughput_per_second, 4.0 / 0.3, 1e-9);
}

// Windows are derived from the log, so merging two bundles' logs yields
// the windows of one bundle that recorded everything.
TEST(WindowedMetricsTest, MergeEqualsInterleavedObservation) {
  Telemetry a, b, both;
  const double finishes[] = {0.01, 0.11, 0.02, 0.35, 0.12, 0.09};
  const double latencies[] = {0.01, 0.06, 0.02, 0.01, 0.07, 0.005};
  for (int i = 0; i < 6; ++i) {
    const QueryLogRecord record = Completed(
        finishes[i], latencies[i], i % 3 == 0, static_cast<uint64_t>(i));
    (i % 2 == 0 ? a : b).Record(record, nullptr);
    both.Record(record, nullptr);
  }
  a.MergeFrom(b);
  EXPECT_EQ(a.WindowsJson(), both.WindowsJson());
}

// ---------------------------------------------------------------------------
// Percentiles: exact nearest-rank vs brute force.

double BruteForcePercentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  rank = std::max<size_t>(1, std::min(rank, samples.size()));
  return samples[rank - 1];
}

TEST(WindowedMetricsTest, PercentilesMatchBruteForceSort) {
  std::vector<double> samples;
  std::vector<QueryLogRecord> records;
  uint64_t lcg = 12345;
  for (int i = 0; i < 997; ++i) {  // odd count exercises rank rounding
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const double latency = static_cast<double>(lcg >> 40) / 1e6;
    const double finish = static_cast<double>(i) * 0.013;
    samples.push_back(latency);
    records.push_back(Completed(finish, latency, false, 0));
  }
  const WindowedMetrics wm(records);
  const auto pooled = wm.Pooled();
  EXPECT_EQ(pooled.count, samples.size());
  EXPECT_DOUBLE_EQ(pooled.p50_seconds, BruteForcePercentile(samples, 50.0));
  EXPECT_DOUBLE_EQ(pooled.p95_seconds, BruteForcePercentile(samples, 95.0));
  EXPECT_DOUBLE_EQ(pooled.p99_seconds, BruteForcePercentile(samples, 99.0));

  // Per-window percentiles are exact over each window's own samples too.
  const auto windows = wm.Windows();
  std::map<int64_t, std::vector<double>> expect;
  for (int i = 0; i < 997; ++i) {
    expect[static_cast<int64_t>(std::floor(i * 0.013 / 0.1))].push_back(
        samples[static_cast<size_t>(i)]);
  }
  ASSERT_EQ(windows.size(), expect.size());
  for (const auto& w : windows) {
    const auto& s = expect.at(w.index);
    EXPECT_EQ(w.count, s.size());
    EXPECT_DOUBLE_EQ(w.p99_seconds, BruteForcePercentile(s, 99.0));
  }
}

TEST(WindowedMetricsTest, SingleSampleIsEveryPercentile) {
  const WindowedMetrics wm({Completed(0.01, 0.042, false, 0)});
  const auto pooled = wm.Pooled();
  EXPECT_DOUBLE_EQ(pooled.p50_seconds, 0.042);
  EXPECT_DOUBLE_EQ(pooled.p95_seconds, 0.042);
  EXPECT_DOUBLE_EQ(pooled.p99_seconds, 0.042);
}

// ---------------------------------------------------------------------------
// Profile aggregator: synthetic span trees on a fake virtual clock.

struct FakeClock {
  double now = 0.0;
  CounterSample counters;
  TraceSources Sources() {
    TraceSources sources;
    sources.now = [this] { return now; };
    sources.sample = [this] { return counters; };
    return sources;
  }
};

// Builds root(child_a(leaf), child_b) with fixed virtual durations; the
// child names carry est= suffixes that the aggregator must strip.
std::unique_ptr<TraceSession> MakeSession(FakeClock* clock,
                                          const std::string& leaf) {
  auto session =
      std::make_unique<TraceSession>("query", clock->Sources(), 1);
  {
    Span a(session.get(), "bgp.extend est=42");
    {
      Span inner(session.get(), leaf);
      clock->now += 0.001;
      clock->counters.bytes_read += 4096;
      inner.set_rows_out(10);
    }
    clock->now += 0.002;
    a.set_rows_out(5);
  }
  {
    Span b(session.get(), "sparql.project");
    clock->now += 0.0005;
  }
  session->Finish(0.0);
  return session;
}

TEST(ProfileAggregatorTest, EstSuffixFoldsIntoOneOperator) {
  FakeClock clock;
  const auto s1 = MakeSession(&clock, "scan <p> est=7");
  const auto s2 = MakeSession(&clock, "scan <p> est=1200");
  ProfileAggregator agg;
  agg.AddSession(*s1);
  agg.AddSession(*s2);
  EXPECT_EQ(agg.sessions(), 2u);
  const auto ops = agg.TopOps();
  // query, bgp.extend, scan <p>, sparql.project — est= variants merged.
  ASSERT_EQ(ops.size(), 4u);
  for (const auto& op : ops) {
    EXPECT_EQ(op.name.find(" est="), std::string::npos) << op.name;
  }
  const auto scan = std::find_if(ops.begin(), ops.end(), [](const auto& op) {
    return op.name == "scan <p>";
  });
  ASSERT_NE(scan, ops.end());
  EXPECT_EQ(scan->calls, 2u);
  EXPECT_EQ(scan->rows_out, 20u);
  EXPECT_EQ(scan->bytes, 8192u);
  EXPECT_EQ(scan->excl_ns, 2000000u);  // 2 x 0.001s exact in integer ns
  // Collapsed stacks keep the trie paths, also suffix-free.
  const std::string stacks = agg.CollapsedStacks();
  EXPECT_NE(stacks.find("query;bgp.extend;scan <p> 2000000\n"),
            std::string::npos)
      << stacks;
  EXPECT_EQ(stacks.find("est="), std::string::npos);
}

TEST(ProfileAggregatorTest, MergeIsExactlyAssociative) {
  FakeClock clock;
  std::vector<std::unique_ptr<TraceSession>> sessions;
  const char* leaves[] = {"scan <a> est=3", "scan <b>", "scan <a> est=90",
                          "scan <c> est=11"};
  for (const char* leaf : leaves) {
    sessions.push_back(MakeSession(&clock, leaf));
  }
  ProfileAggregator a, b, c;
  a.AddSession(*sessions[0]);
  a.AddSession(*sessions[1]);
  b.AddSession(*sessions[2]);
  c.AddSession(*sessions[3]);

  // (a + b) + c
  ProfileAggregator left;
  left.MergeFrom(a);
  left.MergeFrom(b);
  left.MergeFrom(c);
  // a + (b + c)
  ProfileAggregator bc;
  bc.MergeFrom(b);
  bc.MergeFrom(c);
  ProfileAggregator right;
  right.MergeFrom(a);
  right.MergeFrom(bc);
  // everything folded directly, no intermediate merge
  ProfileAggregator flat;
  for (const auto& session : sessions) flat.AddSession(*session);

  EXPECT_EQ(left.sessions(), 4u);
  EXPECT_EQ(left.TopOpsTable(0), right.TopOpsTable(0));
  EXPECT_EQ(left.TopOpsTable(0), flat.TopOpsTable(0));
  EXPECT_EQ(left.CollapsedStacks(), right.CollapsedStacks());
  EXPECT_EQ(left.CollapsedStacks(), flat.CollapsedStacks());
}

// ---------------------------------------------------------------------------
// Telemetry bundle: record + merge.

TEST(TelemetryTest, MergePreservesRecordsWindowsAndProfiles) {
  FakeClock clock;
  // Longer than the 120-byte limit the stored text is cut at.
  const std::string text =
      "SELECT ?s WHERE { ?s <a-very-long-pattern> ?o . "
      "?o <another-rather-long-property-name> ?x . "
      "?x <yet-another-long-property-name-right-here> ?y }";
  ASSERT_GT(text.size(), kMaxTextBytes);
  Telemetry a, b;
  for (int i = 0; i < 4; ++i) {
    QueryLogRecord record;
    record.seq = static_cast<uint64_t>(i);
    record.text = text;
    record.text_hash = Fnv1a64(record.text);
    record.vt_finish = 0.03 * i;
    record.latency_seconds = 0.01;
    const auto session = MakeSession(&clock, "scan <p>");
    (i % 2 == 0 ? a : b).Record(record, session.get());
  }
  EXPECT_EQ(a.records(), 2u);
  // Truncation bounds the stored text; the hash still covers all of it.
  EXPECT_EQ(a.LogSnapshot()[0].text, text.substr(0, kMaxTextBytes));
  EXPECT_EQ(a.LogSnapshot()[0].text.size(), 120u);
  EXPECT_EQ(a.LogSnapshot()[0].text_hash, Fnv1a64(text));
  a.MergeFrom(b);
  EXPECT_EQ(a.records(), 4u);
  EXPECT_EQ(a.PooledWindow().count, 4u);
  EXPECT_EQ(a.TopOps().front().calls, 4u);
  // Merging an empty bundle is a no-op on every export.
  const std::string before = a.QueryLogJsonl(false) + a.WindowsJson() +
                             a.CollapsedStacks();
  Telemetry empty;
  a.MergeFrom(empty);
  EXPECT_EQ(before, a.QueryLogJsonl(false) + a.WindowsJson() +
                        a.CollapsedStacks());
}

}  // namespace
}  // namespace swan::obs
