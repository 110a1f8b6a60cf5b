// The serving layer: script parsing, the snapshot-keyed result cache
// (LRU accounting, invalidation, audit walker), the fairness-aware
// admission controller, and the QueryService determinism contract —
// identical completion streams at any worker count, queue-full
// backpressure, and cache coherence across the store's write path.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "bench_support/barton_generator.h"
#include "core/store.h"
#include "obs/metrics.h"
#include "rdf/dataset.h"
#include "serve/admission.h"
#include "serve/request.h"
#include "serve/result_cache.h"
#include "serve/script.h"
#include "serve/service.h"
#include "serve/session.h"
#include "sparql/sparql.h"

namespace swan::serve {
namespace {

// ---------------------------------------------------------------------------
// Script parser.

TEST(ScriptTest, ParsesSessionsOptionsAndCommands) {
  const auto result = ParseScript(
      "# comment\n"
      "session alice priority=2 threads=4\n"
      "session bob\n"
      "bench alice repeat=3 q5\n"
      "query bob SELECT ?s WHERE { ?s <type> <Text> }\n"
      "insert alice <s> <p> \"a literal with spaces\"\n"
      "delete bob <s> <p> <o>\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& script = result.value();
  ASSERT_EQ(script.size(), 6u);

  EXPECT_EQ(script[0].kind, ScriptCommand::Kind::kSession);
  EXPECT_EQ(script[0].session, "alice");
  EXPECT_EQ(script[0].priority, 2);
  EXPECT_EQ(script[0].threads, 4);
  EXPECT_EQ(script[1].priority, 0);

  EXPECT_EQ(script[2].kind, ScriptCommand::Kind::kBench);
  EXPECT_EQ(script[2].repeat, 3);
  EXPECT_EQ(script[2].bench_id, core::QueryId::kQ5);

  EXPECT_EQ(script[3].kind, ScriptCommand::Kind::kSparql);
  EXPECT_EQ(script[3].text, "SELECT ?s WHERE { ?s <type> <Text> }");

  EXPECT_EQ(script[4].kind, ScriptCommand::Kind::kInsert);
  EXPECT_EQ(script[4].terms[2], "\"a literal with spaces\"");
  EXPECT_EQ(script[5].kind, ScriptCommand::Kind::kDelete);
}

TEST(ScriptTest, ErrorsCarryLineNumbers) {
  const auto unknown = ParseScript("session a\nfrobnicate a q1\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().ToString().find("line 2"), std::string::npos)
      << unknown.status().ToString();

  EXPECT_FALSE(ParseScript("bench alice nosuchquery\n").ok());
  EXPECT_FALSE(ParseScript("session a repeat=2\n").ok());  // wrong option
  EXPECT_FALSE(ParseScript("insert a <s> <p>\n").ok());    // missing term
  EXPECT_FALSE(ParseScript("bench a repeat=zero q1\n").ok());
}

TEST(ScriptTest, QuotedLiteralsAreNeverOptions) {
  // A literal object that contains '=' must not be parsed as key=value.
  const auto result = ParseScript("session a\ninsert a <s> <p> \"k=v\"\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value()[1].terms[2], "\"k=v\"");
}

TEST(ScriptTest, CanonicalQueryTextCollapsesLexicalNoise) {
  const std::string canonical =
      sparql::CanonicalQueryText("SELECT ?s WHERE { ?s <type> <Text> }");
  EXPECT_EQ(sparql::CanonicalQueryText(
                "  SELECT   ?s\nWHERE {\n  ?s <type> <Text> }  # trailing\n"),
            canonical);
  // Whitespace inside quoted literals is load-bearing.
  EXPECT_NE(sparql::CanonicalQueryText("SELECT ?s WHERE { ?s <p> \"a  b\" }"),
            sparql::CanonicalQueryText("SELECT ?s WHERE { ?s <p> \"a b\" }"));
}

// ---------------------------------------------------------------------------
// Result cache.

ResultPayload MakePayload(uint64_t tag, size_t rows) {
  ResultPayload payload;
  payload.column_names = {"s"};
  for (size_t i = 0; i < rows; ++i) payload.rows.push_back({tag, i});
  return payload;
}

TEST(ResultCacheTest, HitMissAndCounters) {
  obs::MetricsRegistry metrics;
  ResultCache cache({}, &metrics);
  const ResultPayload payload = MakePayload(7, 3);

  EXPECT_FALSE(cache.Get("sparql:q", 1).has_value());
  cache.Put("sparql:q", 1, payload);
  const auto hit = cache.Get("sparql:q", 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, payload);
  // The same text at a different snapshot version misses by construction.
  EXPECT_FALSE(cache.Get("sparql:q", 2).has_value());

  const auto snap = metrics.Snap();
  EXPECT_EQ(snap.counters.at("serve.cache.hits"), 1u);
  EXPECT_EQ(snap.counters.at("serve.cache.misses"), 2u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  obs::MetricsRegistry metrics;
  const ResultPayload payload = MakePayload(1, 8);
  const uint64_t entry_bytes = std::string("k0@1").size() +
                               payload.ApproxBytes();
  CacheOptions options;
  options.max_bytes = static_cast<size_t>(entry_bytes) * 2;
  ResultCache cache(options, &metrics);

  cache.Put("k0", 1, payload);
  cache.Put("k1", 1, payload);
  EXPECT_EQ(cache.entries(), 2u);
  // Touch k0 so k1 is the LRU victim of the next insertion.
  EXPECT_TRUE(cache.Get("k0", 1).has_value());
  cache.Put("k2", 1, payload);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_TRUE(cache.Get("k0", 1).has_value());
  EXPECT_FALSE(cache.Get("k1", 1).has_value());
  EXPECT_TRUE(cache.Get("k2", 1).has_value());
  EXPECT_EQ(metrics.Snap().counters.at("serve.cache.evictions"), 1u);
  EXPECT_LE(cache.bytes(), options.max_bytes);
}

TEST(ResultCacheTest, OversizedEntryIsNotCached) {
  obs::MetricsRegistry metrics;
  CacheOptions options;
  options.max_bytes = 16;
  ResultCache cache(options, &metrics);
  cache.Put("big", 1, MakePayload(1, 100));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ResultCacheTest, InvalidateOlderThanDropsStaleEntries) {
  obs::MetricsRegistry metrics;
  ResultCache cache({}, &metrics);
  cache.Put("a", 1, MakePayload(1, 2));
  cache.Put("b", 2, MakePayload(2, 2));
  cache.Put("c", 3, MakePayload(3, 2));
  cache.InvalidateOlderThan(3);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_FALSE(cache.Get("a", 1).has_value());
  EXPECT_FALSE(cache.Get("b", 2).has_value());
  EXPECT_TRUE(cache.Get("c", 3).has_value());
  EXPECT_EQ(metrics.Snap().counters.at("serve.cache.invalidations"), 2u);
}

TEST(ResultCacheTest, AuditCleanThenFlagsStaleEntries) {
  obs::MetricsRegistry metrics;
  ResultCache cache({}, &metrics);
  cache.Put("a", 5, MakePayload(1, 2));
  cache.Put("b", 5, MakePayload(2, 2));

  audit::AuditReport clean;
  cache.AuditInto(audit::AuditLevel::kFull, &clean, 5);
  EXPECT_TRUE(clean.ok()) << clean.ToString();

  // The service invalidates eagerly on every write, so an entry older
  // than the store's current version means the invalidation hook was
  // skipped — an audit failure.
  audit::AuditReport stale;
  cache.AuditInto(audit::AuditLevel::kFull, &stale, 6);
  EXPECT_FALSE(stale.ok());
  EXPECT_NE(stale.ToString().find("stale"), std::string::npos)
      << stale.ToString();
}

// ---------------------------------------------------------------------------
// Admission controller.

TEST(AdmissionTest, RejectsWithOverloadedWhenFull) {
  SessionManager sessions;
  Session* s = sessions.Open("a", 0, 1);
  AdmissionOptions options;
  options.max_queue = 2;
  AdmissionController admission(options);
  EXPECT_TRUE(admission.Admit(s, Request{}, 1).ok());
  EXPECT_TRUE(admission.Admit(s, Request{}, 2).ok());
  const Status st = admission.Admit(s, Request{}, 3);
  EXPECT_EQ(st.code(), StatusCode::kOverloaded);
  // Dispatching frees capacity again.
  admission.PickNext();
  EXPECT_TRUE(admission.Admit(s, Request{}, 3).ok());
}

TEST(AdmissionTest, HotClientCannotStarveOthers) {
  SessionManager sessions;
  Session* hot = sessions.Open("hot", 0, 1);
  Session* cold = sessions.Open("cold", 0, 1);
  AdmissionController admission;
  uint64_t ticket = 1;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(admission.Admit(hot, Request{}, ticket++).ok());
  }
  ASSERT_TRUE(admission.Admit(cold, Request{}, ticket++).ok());
  ASSERT_TRUE(admission.Admit(cold, Request{}, ticket++).ok());

  // The fairness term interleaves the single-request client round-robin
  // with the hot one instead of running all six hot requests first.
  std::vector<std::string> order;
  while (admission.HasWork()) {
    order.push_back(admission.PickNext().session->label());
  }
  const std::vector<std::string> expected = {"hot", "cold", "hot", "cold",
                                             "hot", "hot", "hot", "hot"};
  EXPECT_EQ(order, expected);
}

TEST(AdmissionTest, PriorityBeatsFairness) {
  SessionManager sessions;
  Session* low = sessions.Open("low", 0, 1);
  Session* high = sessions.Open("high", 3, 1);
  AdmissionController admission;
  ASSERT_TRUE(admission.Admit(low, Request{}, 1).ok());
  ASSERT_TRUE(admission.Admit(low, Request{}, 2).ok());
  ASSERT_TRUE(admission.Admit(high, Request{}, 3).ok());
  ASSERT_TRUE(admission.Admit(high, Request{}, 4).ok());
  std::vector<std::string> order;
  while (admission.HasWork()) {
    order.push_back(admission.PickNext().session->label());
  }
  const std::vector<std::string> expected = {"high", "high", "low", "low"};
  EXPECT_EQ(order, expected);

  // A per-request priority offset lifts one session's head request over
  // another session's (within a session the queue stays strictly FIFO).
  Session* other = sessions.Open("other", 0, 1);
  Request urgent;
  urgent.priority = 10;
  ASSERT_TRUE(admission.Admit(low, Request{}, 5).ok());
  ASSERT_TRUE(admission.Admit(other, urgent, 6).ok());
  EXPECT_EQ(admission.PickNext().ticket, 6u);
  EXPECT_EQ(admission.PickNext().ticket, 5u);
}

TEST(AdmissionTest, FifoWithinSession) {
  SessionManager sessions;
  Session* s = sessions.Open("a", 0, 1);
  AdmissionController admission;
  for (uint64_t t = 1; t <= 4; ++t) {
    ASSERT_TRUE(admission.Admit(s, Request{}, t).ok());
  }
  for (uint64_t t = 1; t <= 4; ++t) EXPECT_EQ(admission.PickNext().ticket, t);
}

// ---------------------------------------------------------------------------
// QueryService end to end.

class ServeTest : public ::testing::Test {
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

  static std::vector<ScriptCommand> Mix() {
    const auto result = ParseScript(
        "session alice\n"
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

TEST_F(ServeTest, CompletionStreamIsIdenticalAtAnyWorkerCount) {
  std::vector<std::vector<Completion>> streams;
  for (const int workers : {1, 2, 8}) {
    auto store = OpenStore();
    ServiceOptions options;
    options.workers = workers;
    QueryService service(store.get(), ctx_, options);
    auto run = RunScript(&service, Mix());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run.value().rejected, 0u);
    streams.push_back(std::move(run.value().completions));
    service.Stop();
  }
  ASSERT_EQ(streams[0].size(), 7u);
  for (size_t w = 1; w < streams.size(); ++w) {
    ASSERT_EQ(streams[w].size(), streams[0].size());
    for (size_t i = 0; i < streams[0].size(); ++i) {
      const Completion& a = streams[0][i];
      const Completion& b = streams[w][i];
      EXPECT_EQ(a.ticket, b.ticket);
      EXPECT_EQ(a.dispatch_index, b.dispatch_index);
      EXPECT_EQ(a.session_id, b.session_id);
      EXPECT_EQ(a.cache_hit, b.cache_hit);
      EXPECT_EQ(a.snapshot_version, b.snapshot_version);
      EXPECT_TRUE(a.result == b.result) << "rows diverged at index " << i;
    }
  }
}

TEST_F(ServeTest, RepeatedQueriesHitTheCacheWithinOnePass) {
  auto store = OpenStore();
  QueryService service(store.get(), ctx_, {});
  auto run = RunScript(&service, Mix());
  ASSERT_TRUE(run.ok());
  // q5 and the <origin> SPARQL query each run twice: second occurrence
  // hits; results still match the executed occurrence bit for bit.
  uint64_t hits = 0;
  for (const auto& c : run.value().completions) {
    if (c.cache_hit) ++hits;
  }
  EXPECT_EQ(hits, 2u);
  EXPECT_EQ(service.metrics().Snap().counters.at("serve.cache.hits"), 2u);
  service.Stop();
}

TEST_F(ServeTest, WarmReplayHitsEverywhereAndMatches) {
  auto store = OpenStore();
  QueryService service(store.get(), ctx_, {});
  auto cold = RunScript(&service, Mix());
  ASSERT_TRUE(cold.ok());
  auto warm = RunScript(&service, Mix());
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm.value().completions.size(), cold.value().completions.size());
  for (size_t i = 0; i < warm.value().completions.size(); ++i) {
    const Completion& c = cold.value().completions[i];
    const Completion& w = warm.value().completions[i];
    EXPECT_TRUE(w.cache_hit) << "warm completion " << i;
    EXPECT_TRUE(w.result == c.result);
    EXPECT_EQ(w.session_id, c.session_id);
  }
  service.Stop();
}

TEST_F(ServeTest, SubmitRejectsWithOverloadedWhenQueueIsFull) {
  auto store = OpenStore();
  ServiceOptions options;
  options.max_queue = 3;
  QueryService service(store.get(), ctx_, options);
  Session* session = service.OpenSession("a").value();
  Request request;
  request.kind = Request::Kind::kBench;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(service.Submit(session, request).ok());
  }
  const auto overflow = service.Submit(session, request);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOverloaded);
  service.Start();
  service.Drain();
  // Backpressure is transient: capacity returns once the queue drains,
  // and rejected tickets were never handed out (ids stay gapless).
  const auto retry = service.Submit(session, request);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.value(), 4u);
  service.Drain();
  EXPECT_EQ(service.TakeCompletions().size(), 4u);
  service.Stop();
}

TEST_F(ServeTest, DuplicateSessionLabelFails) {
  auto store = OpenStore();
  QueryService service(store.get(), ctx_, {});
  ASSERT_TRUE(service.OpenSession("a").ok());
  const auto dup = service.OpenSession("a");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  EXPECT_NE(service.FindSession("a"), nullptr);
  EXPECT_EQ(service.FindSession("b"), nullptr);
  service.Stop();
}

TEST_F(ServeTest, CacheCoherenceAcrossTheWritePath) {
  auto store = OpenStore();
  QueryService service(store.get(), ctx_, {});

  const auto script = ParseScript(
      "session a\n"
      "query a SELECT ?s WHERE { ?s <type> <Text> } LIMIT 3\n");
  ASSERT_TRUE(script.ok());
  auto before = RunScript(&service, script.value());
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before.value().completions[0].cache_hit);

  // A write through the service bumps the snapshot and invalidates; the
  // same query afterwards must execute again, not replay the old rows.
  // (Insert terms are dictionary spellings: intern the new subject first.)
  barton_.dataset.dict().Intern("<coherence-subject>");
  const uint64_t version_before = store->snapshot_version();
  const auto update = ParseScript(
      "session a\n"
      "insert a <coherence-subject> <type> <Text>\n"
      "query a SELECT ?s WHERE { ?s <type> <Text> } LIMIT 3\n");
  ASSERT_TRUE(update.ok());
  auto after = RunScript(&service, update.value());
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.value().completions.size(), 2u);
  const Completion& write = after.value().completions[0];
  const Completion& requery = after.value().completions[1];
  EXPECT_TRUE(write.status.ok());
  EXPECT_EQ(write.snapshot_version, version_before + 1);
  EXPECT_FALSE(requery.cache_hit);
  EXPECT_EQ(service.cache()->entries(), 1u);  // old entry invalidated

  // The registered audit hook checks the cache against the live store.
  const auto report = store->Audit(audit::AuditLevel::kQuick);
  EXPECT_TRUE(report.ok()) << report.ToString();
  service.Stop();
}

// Regression: the cache key is the lexer's canonical text, so a prefixed
// name or a language tag that spells a keyword in another case is its
// own query. A second tokenizer once upper-cased `:select` and the `in`
// of `"chat"@in`, and the second query of each pair got the first one's
// rows from the cache.
TEST(ServeCacheKeyTest, CaseVariantsOfNamesAndTagsAreDistinctQueries) {
  rdf::Dataset data;
  data.Add("<lower>", "<http://x/select>", "<o>");
  data.Add("<upper>", "<http://x/SELECT>", "<o>");
  data.Add("<in>", "<label>", "\"chat\"@in");
  data.Add("<IN>", "<label>", "\"chat\"@IN");
  auto store = core::RdfStore::Open(data, core::StoreOptions{});
  QueryService service(store.get(), std::nullopt, {});
  ASSERT_NE(service.cache(), nullptr);
  const auto script = ParseScript(
      "session a\n"
      "query a PREFIX : <http://x/> SELECT ?s WHERE { ?s :select ?o }\n"
      "query a PREFIX : <http://x/> SELECT ?s WHERE { ?s :SELECT ?o }\n"
      "query a SELECT ?s WHERE { ?s <label> \"chat\"@in }\n"
      "query a SELECT ?s WHERE { ?s <label> \"chat\"@IN }\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  auto run = RunScript(&service, script.value());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const auto& completions = run.value().completions;
  ASSERT_EQ(completions.size(), 4u);
  const char* expected[] = {"<lower>", "<upper>", "<in>", "<IN>"};
  for (size_t i = 0; i < completions.size(); ++i) {
    const Completion& c = completions[i];
    ASSERT_TRUE(c.status.ok()) << c.status.ToString();
    EXPECT_FALSE(c.cache_hit) << "query " << i;
    ASSERT_EQ(c.result.rows.size(), 1u) << "query " << i;
    EXPECT_EQ(c.result.rows[0][0], data.dict().Find(expected[i]).value())
        << "query " << i;
  }
  service.Stop();
}

TEST_F(ServeTest, PerSessionTracesLandOnDistinctTracks) {
  auto store = OpenStore();
  ServiceOptions options;
  options.trace = true;
  QueryService service(store.get(), ctx_, options);
  auto run = RunScript(&service, Mix());
  ASSERT_TRUE(run.ok());
  const auto tracks = service.SessionTracks();
  // One track per executed (non-hit) request; both sessions appear.
  ASSERT_EQ(tracks.size(), 5u);
  bool saw_alice = false, saw_bob = false;
  for (const auto& track : tracks) {
    ASSERT_NE(track.session, nullptr);
    if (track.label == "s1:alice") saw_alice = true;
    if (track.label == "s2:bob") saw_bob = true;
  }
  EXPECT_TRUE(saw_alice);
  EXPECT_TRUE(saw_bob);
  const std::string json = obs::ChromeTraceJsonMulti(tracks);
  EXPECT_NE(json.find("s1:alice"), std::string::npos);
  EXPECT_NE(json.find("s2:bob"), std::string::npos);
  service.Stop();
}

TEST_F(ServeTest, ModelScheduleComputesDeterministicPercentiles) {
  std::vector<Completion> completions(4);
  for (size_t i = 0; i < completions.size(); ++i) {
    completions[i].dispatch_index = i;
    completions[i].service_seconds = 0.1 * static_cast<double>(i + 1);
  }
  completions[3].cache_hit = true;

  // One server: FCFS latencies are the prefix sums 0.1 0.3 0.6 1.0.
  const LatencyStats serial = ModelSchedule(completions, 1);
  EXPECT_EQ(serial.requests, 4u);
  EXPECT_EQ(serial.cache_hits, 1u);
  EXPECT_NEAR(serial.makespan_seconds, 1.0, 1e-9);
  EXPECT_NEAR(serial.throughput_per_second, 4.0, 1e-6);
  EXPECT_NEAR(serial.p50_seconds, 0.3, 1e-9);
  EXPECT_NEAR(serial.p99_seconds, 1.0, 1e-9);

  // Two servers: 0.1 and 0.2 start at once; 0.3 follows the first free.
  const LatencyStats wide = ModelSchedule(completions, 2);
  EXPECT_NEAR(wide.makespan_seconds, 0.6, 1e-9);
  EXPECT_NEAR(wide.p99_seconds, 0.6, 1e-9);
}

}  // namespace
}  // namespace swan::serve
