// Insert support across all writable backends: visibility in queries and
// pattern matches, duplicate rejection, schema growth in the vertical
// scheme, and cross-backend equivalence after a mixed insert workload.
// Also the store's write-path contract consumed by the serving layer:
// the snapshot version bumps exactly once per successful write, column
// deletes (delta cancellation / base tombstones) behave, and a cached
// result is never served after a write touching its property.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "audit/audit.h"
#include "bench_support/barton_generator.h"
#include "bench_support/harness.h"
#include "colstore/column.h"
#include "core/col_backends.h"
#include "core/cstore_backend.h"
#include "core/reference_backend.h"
#include "core/row_backends.h"
#include "core/store.h"
#include "serve/request.h"
#include "serve/service.h"
#include "shard/sharded_backend.h"
#include "storage/node_storage.h"

namespace swan::core {
namespace {

class UpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bench_support::BartonConfig config;
    config.target_triples = 5000;
    barton_ = bench_support::GenerateBarton(config);
  }

  std::vector<std::unique_ptr<Backend>> WritableBackends() {
    std::vector<std::unique_ptr<Backend>> backends;
    backends.push_back(std::make_unique<ColTripleBackend>(
        barton_.dataset, rdf::TripleOrder::kPSO));
    backends.push_back(std::make_unique<ColTripleBackend>(
        barton_.dataset, rdf::TripleOrder::kSPO));
    backends.push_back(std::make_unique<ColVerticalBackend>(barton_.dataset));
    backends.push_back(std::make_unique<RowTripleBackend>(
        barton_.dataset, rowstore::TripleRelation::PsoConfig()));
    backends.push_back(std::make_unique<RowVerticalBackend>(barton_.dataset));
    backends.push_back(std::make_unique<ReferenceBackend>(barton_.dataset));
    return backends;
  }

  // Every column design, each over the one write store: triple SPO and
  // PSO, vertical, and the vertical store on two nodes.
  std::vector<std::unique_ptr<Backend>> ColumnDesigns() {
    std::vector<std::unique_ptr<Backend>> backends;
    backends.push_back(std::make_unique<ColTripleBackend>(
        barton_.dataset, rdf::TripleOrder::kSPO));
    backends.push_back(std::make_unique<ColTripleBackend>(
        barton_.dataset, rdf::TripleOrder::kPSO));
    backends.push_back(std::make_unique<ColVerticalBackend>(barton_.dataset));
    shard::ShardOptions options;
    options.nodes = 2;
    backends.push_back(
        std::make_unique<shard::ShardedBackend>(barton_.dataset, options));
    return backends;
  }

  bench_support::BartonDataset barton_;
};

// A column design's partitions: the store itself, or each node's store.
std::vector<const PhasedBackend*> PartitionsOf(const Backend& backend) {
  if (const auto* sharded =
          dynamic_cast<const shard::ShardedBackend*>(&backend)) {
    std::vector<const PhasedBackend*> parts;
    for (int n = 0; n < sharded->options().nodes; ++n) {
      parts.push_back(&sharded->node_backend(n));
    }
    return parts;
  }
  return {dynamic_cast<const PhasedBackend*>(&backend)};
}

uint64_t PendingWrites(const Backend& backend) {
  uint64_t total = 0;
  for (const PhasedBackend* part : PartitionsOf(backend)) {
    total += part->PendingWrites();
  }
  return total;
}

uint64_t MergeCount(const Backend& backend) {
  uint64_t total = 0;
  for (const PhasedBackend* part : PartitionsOf(backend)) {
    total += part->merge_count();
  }
  return total;
}

TEST_F(UpdateTest, InsertedTripleVisibleInMatch) {
  // New subject with an existing property and object.
  const uint64_t s = barton_.dataset.dict().Intern("<new-subject>");
  const uint64_t type = *barton_.dataset.dict().Find("<type>");
  const uint64_t text = *barton_.dataset.dict().Find("<Text>");
  for (auto& backend : WritableBackends()) {
    EXPECT_TRUE(backend->Insert({s, type, text}).ok()) << backend->name();
    rdf::TriplePattern pattern;
    pattern.subject = s;
    const auto matches = backend->Match(pattern);
    ASSERT_EQ(matches.size(), 1u) << backend->name();
    EXPECT_EQ(matches[0].object, text) << backend->name();
  }
}

TEST_F(UpdateTest, InsertedTripleVisibleInBenchmarkQuery) {
  const uint64_t s = barton_.dataset.dict().Intern("<another-subject>");
  const uint64_t type = *barton_.dataset.dict().Find("<type>");
  const uint64_t text = *barton_.dataset.dict().Find("<Text>");
  const auto ctx = bench_support::MakeBartonContext(barton_.dataset, 28);
  for (auto& backend : WritableBackends()) {
    const QueryResult before = backend->Run(QueryId::kQ1, ctx);
    uint64_t text_count_before = 0;
    for (const auto& row : before.rows) {
      if (row[0] == text) text_count_before = row[1];
    }
    ASSERT_TRUE(backend->Insert({s, type, text}).ok());
    const QueryResult after = backend->Run(QueryId::kQ1, ctx);
    uint64_t text_count_after = 0;
    for (const auto& row : after.rows) {
      if (row[0] == text) text_count_after = row[1];
    }
    EXPECT_EQ(text_count_after, text_count_before + 1) << backend->name();
  }
}

TEST_F(UpdateTest, DuplicateInsertRejected) {
  const rdf::Triple existing = barton_.dataset.triples().front();
  for (auto& backend : WritableBackends()) {
    const Status st = backend->Insert(existing);
    EXPECT_EQ(st.code(), StatusCode::kAlreadyExists) << backend->name();
  }
}

TEST_F(UpdateTest, DuplicateOfUnmergedDeltaRejected) {
  const uint64_t s = barton_.dataset.dict().Intern("<delta-subject>");
  const uint64_t type = *barton_.dataset.dict().Find("<type>");
  const uint64_t text = *barton_.dataset.dict().Find("<Text>");
  for (auto& backend : ColumnDesigns()) {
    ASSERT_TRUE(backend->Insert({s, type, text}).ok()) << backend->name();
    EXPECT_EQ(backend->Insert({s, type, text}).code(),
              StatusCode::kAlreadyExists)
        << backend->name();
  }
}

TEST_F(UpdateTest, CStoreIsReadOnly) {
  const auto ctx = bench_support::MakeBartonContext(barton_.dataset, 28);
  CStoreBackend cstore(barton_.dataset, ctx.interesting_properties());
  EXPECT_EQ(cstore.Insert({1, 2, 3}).code(), StatusCode::kUnimplemented);
}

TEST_F(UpdateTest, NewPropertyCreatesPartition) {
  const uint64_t s = barton_.dataset.dict().Intern("<subject-np>");
  const uint64_t p = barton_.dataset.dict().Intern("<brand-new-property>");
  const uint64_t o = barton_.dataset.dict().Intern("\"value\"");

  ColVerticalBackend col(barton_.dataset);
  EXPECT_EQ(col.partitions_created(), 0u);
  ASSERT_TRUE(col.Insert({s, p, o}).ok());
  EXPECT_EQ(col.partitions_created(), 1u);

  RowVerticalBackend row(barton_.dataset);
  ASSERT_TRUE(row.Insert({s, p, o}).ok());
  EXPECT_EQ(row.relation().partitions_created(), 1u);
  rdf::TriplePattern pattern;
  pattern.property = p;
  EXPECT_EQ(row.Match(pattern).size(), 1u);
  EXPECT_EQ(col.Match(pattern).size(), 1u);

  // Cancelling the only insert on the new property withdraws its
  // partition; inserting it again claims one partition, not a second.
  ASSERT_TRUE(col.Delete({s, p, o}).ok());
  EXPECT_EQ(col.partitions_created(), 0u);
  ASSERT_TRUE(col.Insert({s, p, o}).ok());
  EXPECT_EQ(col.partitions_created(), 1u);
  col.Run(QueryId::kQ1, bench_support::MakeBartonContext(barton_.dataset, 28));
  EXPECT_TRUE(col.table().HasPartition(p));
  EXPECT_EQ(col.partitions_created(), 1u);
}

TEST_F(UpdateTest, ColumnBackendMergesOnNextRun) {
  const uint64_t s = barton_.dataset.dict().Intern("<merge-subject>");
  const uint64_t type = *barton_.dataset.dict().Find("<type>");
  const uint64_t text = *barton_.dataset.dict().Find("<Text>");
  const auto ctx = bench_support::MakeBartonContext(barton_.dataset, 28);

  for (auto& backend : ColumnDesigns()) {
    ASSERT_TRUE(backend->Insert({s, type, text}).ok()) << backend->name();
    EXPECT_EQ(PendingWrites(*backend), 1u) << backend->name();
    EXPECT_EQ(MergeCount(*backend), 0u) << backend->name();
    backend->Run(QueryId::kQ1, ctx);
    EXPECT_EQ(PendingWrites(*backend), 0u) << backend->name();
    EXPECT_EQ(MergeCount(*backend), 1u) << backend->name();
    // A second run does not merge again.
    backend->Run(QueryId::kQ1, ctx);
    EXPECT_EQ(MergeCount(*backend), 1u) << backend->name();
  }
}

TEST_F(UpdateTest, AllBackendsAgreeAfterMixedInsertWorkload) {
  // Build the insert batch first (interning mutates the dictionary, so all
  // ids must exist before contexts/backends snapshot dict_size).
  std::vector<rdf::Triple> batch;
  {
    auto& dict = barton_.dataset.dict();
    const uint64_t type = *dict.Find("<type>");
    const uint64_t text = *dict.Find("<Text>");
    const uint64_t fresh_p = dict.Intern("<post-load-property>");
    for (int i = 0; i < 50; ++i) {
      const uint64_t s =
          dict.Intern("<post-load-subject-" + std::to_string(i) + ">");
      batch.push_back({s, type, text});
      batch.push_back({s, fresh_p, dict.Intern("\"v" + std::to_string(i % 7) +
                                               "\"")});
    }
  }

  auto backends = WritableBackends();
  for (auto& backend : backends) {
    for (const rdf::Triple& t : batch) {
      ASSERT_TRUE(backend->Insert(t).ok()) << backend->name();
    }
  }
  const auto ctx = bench_support::MakeBartonContext(barton_.dataset, 28);
  std::vector<Backend*> raw;
  for (auto& b : backends) raw.push_back(b.get());
  bench_support::VerifyBackendsAgree(raw, AllQueries(), ctx);

  // After the whole mutation workload, every backend's physical structures
  // must still satisfy their invariants.
  for (auto& backend : backends) {
    const auto report = backend->Audit(audit::AuditLevel::kFull);
    EXPECT_TRUE(report.ok()) << backend->name() << "\n" << report.ToString();
  }
}

void ExpectSameColumn(const colstore::Column& merged,
                      const colstore::Column& fresh, const std::string& what) {
  EXPECT_EQ(merged.Encoded().Materialize(), fresh.Encoded().Materialize())
      << what;
  EXPECT_EQ(merged.resolved_codec(), fresh.resolved_codec()) << what;
  EXPECT_EQ(merged.stored_bytes(), fresh.stored_bytes()) << what;
  EXPECT_EQ(merged.disk_bytes(), fresh.disk_bytes()) << what;
}

// A write-store merge rebuilds exactly what a fresh load of the final
// triple set builds: every column has the same values, resolved codec and
// stored bytes.
TEST_F(UpdateTest, MergedColumnsEqualFreshLoad) {
  auto& dict = barton_.dataset.dict();
  const uint64_t type = *dict.Find("<type>");
  const uint64_t text = *dict.Find("<Text>");
  const uint64_t new_p = dict.Intern("<merge-new-property>");
  const std::vector<rdf::Triple> base = barton_.dataset.triples();

  // Inserts on an existing and on a new property, and one between the
  // base rows of an existing subject.
  std::vector<rdf::Triple> inserts;
  for (int i = 0; i < 40; ++i) {
    const uint64_t s =
        dict.Intern("<merge-subject-" + std::to_string(i) + ">");
    inserts.push_back({s, type, text});
    inserts.push_back(
        {s, new_p, dict.Intern("\"m" + std::to_string(i % 5) + "\"")});
  }
  inserts.push_back(
      {base[7].subject, base[7].property, dict.Intern("\"merge-extra\"")});
  // Deletes of base rows, never a property's last row (a fresh load has
  // no empty partitions).
  std::unordered_map<uint64_t, uint64_t> left;
  for (const rdf::Triple& t : base) ++left[t.property];
  std::vector<rdf::Triple> base_deletes;
  for (size_t i = 3; i < base.size(); i += 61) {
    if (left[base[i].property] > 1) {
      --left[base[i].property];
      base_deletes.push_back(base[i]);
    }
  }
  const rdf::Triple revived = base[1];  // tombstoned, then re-inserted
  const std::vector<rdf::Triple> cancelled = {inserts[0], inserts[1]};

  std::set<rdf::Triple> final_set(base.begin(), base.end());
  for (const rdf::Triple& t : base_deletes) final_set.erase(t);
  final_set.insert(inserts.begin(), inserts.end());
  for (const rdf::Triple& t : cancelled) final_set.erase(t);
  const std::vector<rdf::Triple> final_triples(final_set.begin(),
                                               final_set.end());
  const auto ctx = bench_support::MakeBartonContext(barton_.dataset, 28);
  const auto apply = [&](Backend* backend) {
    for (const rdf::Triple& t : inserts) {
      ASSERT_TRUE(backend->Insert(t).ok()) << backend->name();
    }
    for (const rdf::Triple& t : base_deletes) {
      ASSERT_TRUE(backend->Delete(t).ok()) << backend->name();
    }
    for (const rdf::Triple& t : cancelled) {
      ASSERT_TRUE(backend->Delete(t).ok()) << backend->name();
    }
    ASSERT_TRUE(backend->Delete(revived).ok()) << backend->name();
    ASSERT_TRUE(backend->Insert(revived).ok()) << backend->name();
    backend->Run(QueryId::kQ1, ctx);
    const auto report = backend->Audit(audit::AuditLevel::kFull);
    EXPECT_TRUE(report.ok()) << backend->name() << "\n" << report.ToString();
  };

  const auto codec = colstore::ColumnCodec::kAuto;
  const storage::NodeStorage node = storage::MakeNodeStorage({}, 4096);
  for (auto order : {rdf::TripleOrder::kPSO, rdf::TripleOrder::kSPO}) {
    ColTripleBackend merged(barton_.dataset, order, {}, 4096, codec);
    apply(&merged);
    EXPECT_EQ(merged.merge_count(), 1u);
    const ColTripleBackend fresh(barton_.dataset, order, node.disk.get(),
                                 node.pool.get(), final_triples, codec);
    for (int c = 0; c < 3; ++c) {
      ExpectSameColumn(merged.table().column(c), fresh.table().column(c),
                       merged.name() + " component " + std::to_string(c));
    }
  }

  ColVerticalBackend merged(barton_.dataset, {}, 4096, codec);
  apply(&merged);
  EXPECT_EQ(merged.merge_count(), 1u);
  const ColVerticalBackend fresh(barton_.dataset, node.disk.get(),
                                 node.pool.get(), final_triples, codec);
  ASSERT_EQ(merged.table().properties(), fresh.table().properties());
  for (uint64_t p : fresh.table().properties()) {
    const std::string what = "property " + std::to_string(p);
    ExpectSameColumn(merged.table().SubjectColumn(p),
                     fresh.table().SubjectColumn(p), what + " subjects");
    ExpectSameColumn(merged.table().ObjectColumn(p),
                     fresh.table().ObjectColumn(p), what + " objects");
  }
}

TEST_F(UpdateTest, SnapshotVersionBumpsExactlyOncePerSuccessfulWrite) {
  auto store = RdfStore::Open(barton_.dataset, StoreOptions{});
  EXPECT_EQ(store->snapshot_version(), 1u);

  const uint64_t s = barton_.dataset.dict().Intern("<version-subject>");
  const uint64_t type = *barton_.dataset.dict().Find("<type>");
  const uint64_t text = *barton_.dataset.dict().Find("<Text>");
  ASSERT_TRUE(store->Insert({s, type, text}).ok());
  EXPECT_EQ(store->snapshot_version(), 2u);

  // Failed writes must not advance the version: a version bump without a
  // state change would invalidate cached results for nothing, and a state
  // change without a bump would serve stale ones.
  EXPECT_EQ(store->Insert({s, type, text}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(store->snapshot_version(), 2u);

  ASSERT_TRUE(store->Delete({s, type, text}).ok());
  EXPECT_EQ(store->snapshot_version(), 3u);
  EXPECT_EQ(store->Delete({s, type, text}).code(), StatusCode::kNotFound);
  EXPECT_EQ(store->snapshot_version(), 3u);
}

TEST_F(UpdateTest, ColumnDeleteSemantics) {
  const uint64_t s = barton_.dataset.dict().Intern("<delete-subject>");
  const uint64_t type = *barton_.dataset.dict().Find("<type>");
  const uint64_t text = *barton_.dataset.dict().Find("<Text>");
  const auto ctx = bench_support::MakeBartonContext(barton_.dataset, 28);

  for (auto& backend : ColumnDesigns()) {
    // Deleting an unmerged insert cancels the delta entry directly.
    ASSERT_TRUE(backend->Insert({s, type, text}).ok()) << backend->name();
    ASSERT_TRUE(backend->Delete({s, type, text}).ok()) << backend->name();
    rdf::TriplePattern fresh;
    fresh.subject = s;
    EXPECT_TRUE(backend->Match(fresh).empty()) << backend->name();
    EXPECT_EQ(backend->Delete({s, type, text}).code(), StatusCode::kNotFound)
        << backend->name();

    // Deleting a base row tombstones it: invisible to queries, duplicate
    // delete rejected, and a re-insert cancels the tombstone.
    const rdf::Triple existing = barton_.dataset.triples().front();
    rdf::TriplePattern bound;
    bound.subject = existing.subject;
    bound.property = existing.property;
    bound.object = existing.object;
    ASSERT_EQ(backend->Match(bound).size(), 1u) << backend->name();
    ASSERT_TRUE(backend->Delete(existing).ok()) << backend->name();
    EXPECT_TRUE(backend->Match(bound).empty()) << backend->name();
    EXPECT_EQ(backend->Delete(existing).code(), StatusCode::kNotFound)
        << backend->name();
    ASSERT_TRUE(backend->Insert(existing).ok()) << backend->name();
    EXPECT_EQ(backend->Match(bound).size(), 1u) << backend->name();

    // The merge path (triggered by a benchmark run) drops tombstoned base
    // rows physically; structures must still audit clean afterwards.
    ASSERT_TRUE(backend->Delete(existing).ok()) << backend->name();
    backend->Run(QueryId::kQ1, ctx);
    EXPECT_TRUE(backend->Match(bound).empty()) << backend->name();
    const auto report = backend->Audit(audit::AuditLevel::kFull);
    EXPECT_TRUE(report.ok()) << backend->name() << "\n" << report.ToString();
    ASSERT_TRUE(backend->Insert(existing).ok()) << backend->name();
  }
}

// Regression for the serving layer's coherence contract: a result cached
// by the query service must never be served after a delete (or insert)
// touching its property — the write bumps the snapshot version, which
// both misses the cache by key construction and eagerly invalidates.
TEST_F(UpdateTest, CachedResultNeverServedAfterWriteTouchingItsProperty) {
  const uint64_t origin = *barton_.dataset.dict().Find("<origin>");
  rdf::Triple victim{0, 0, 0};
  for (const rdf::Triple& t : barton_.dataset.triples()) {
    if (t.property == origin) {
      victim = t;
      break;
    }
  }
  ASSERT_NE(victim.property, 0u);

  auto store = RdfStore::Open(barton_.dataset, StoreOptions{});
  serve::QueryService service(store.get(), std::nullopt, {});
  serve::Session* session = service.OpenSession("client").value();

  serve::Request query;
  query.kind = serve::Request::Kind::kSparql;
  query.text = "SELECT ?s ?o WHERE { ?s <origin> ?o }";
  ASSERT_TRUE(service.Submit(session, query).ok());
  ASSERT_TRUE(service.Submit(session, query).ok());  // second → cache hit
  service.Start();
  service.Drain();
  const auto before = service.TakeCompletions();
  ASSERT_EQ(before.size(), 2u);
  ASSERT_TRUE(before[0].status.ok()) << before[0].status.ToString();
  EXPECT_FALSE(before[0].cache_hit);
  EXPECT_TRUE(before[1].cache_hit);
  const size_t rows_before = before[0].result.rows.size();
  ASSERT_GT(rows_before, 0u);

  serve::Request del;
  del.kind = serve::Request::Kind::kDelete;
  del.triple = victim;
  ASSERT_TRUE(service.Submit(session, del).ok());
  ASSERT_TRUE(service.Submit(session, query).ok());
  service.Drain();
  const auto after = service.TakeCompletions();
  ASSERT_EQ(after.size(), 2u);
  ASSERT_TRUE(after[0].status.ok()) << after[0].status.ToString();
  const serve::Completion& requery = after[1];
  ASSERT_TRUE(requery.status.ok());
  // Not a cache hit, and the rows reflect the delete.
  EXPECT_FALSE(requery.cache_hit);
  EXPECT_EQ(requery.result.rows.size(), rows_before - 1);

  // Same guarantee for an insert touching the property: re-inserting the
  // victim invalidates again and the re-executed query sees it back.
  serve::Request ins;
  ins.kind = serve::Request::Kind::kInsert;
  ins.triple = victim;
  ASSERT_TRUE(service.Submit(session, ins).ok());
  ASSERT_TRUE(service.Submit(session, query).ok());
  service.Drain();
  const auto restored = service.TakeCompletions();
  ASSERT_EQ(restored.size(), 2u);
  ASSERT_TRUE(restored[1].status.ok());
  EXPECT_FALSE(restored[1].cache_hit);
  EXPECT_EQ(restored[1].result.rows.size(), rows_before);
  service.Stop();
}

}  // namespace
}  // namespace swan::core
