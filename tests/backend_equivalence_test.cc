// Property test at the system level: all scheme × engine combinations must
// return identical rows for every benchmark query, on generated Barton-like
// datasets of several scales and seeds, both with restricted and full
// property lists, and cold as well as hot.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "bench_support/barton_generator.h"
#include "bench_support/harness.h"
#include "bench_support/ledger.h"
#include "core/col_backends.h"
#include "core/cstore_backend.h"
#include "core/reference_backend.h"
#include "core/row_backends.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"
#include "shard/sharded_backend.h"

namespace swan {
namespace {

using bench_support::BartonConfig;
using bench_support::GenerateBarton;
using bench_support::MakeBartonContext;
using core::QueryId;

struct Combo {
  uint64_t triples;
  uint64_t seed;
};

class EquivalenceTest : public ::testing::TestWithParam<Combo> {};

TEST_P(EquivalenceTest, AllBackendsAgreeOnAllQueries) {
  BartonConfig config;
  config.target_triples = GetParam().triples;
  config.seed = GetParam().seed;
  const auto barton = GenerateBarton(config);
  const rdf::Dataset& data = barton.dataset;
  const core::QueryContext ctx = MakeBartonContext(data, 28);

  core::ColTripleBackend col_spo(data, rdf::TripleOrder::kSPO);
  core::ColTripleBackend col_pso(data, rdf::TripleOrder::kPSO);
  core::ColVerticalBackend col_vert(data);
  core::RowTripleBackend row_spo(data, rowstore::TripleRelation::SpoConfig());
  core::RowTripleBackend row_pso(data, rowstore::TripleRelation::PsoConfig());
  core::RowVerticalBackend row_vert(data);
  core::CStoreBackend cstore(data, ctx.interesting_properties());
  core::ReferenceBackend reference(data);

  // The naive reference oracle goes first so every optimized backend is
  // compared against it, not just against each other.
  std::vector<core::Backend*> backends = {&reference, &col_spo, &col_pso,
                                          &col_vert, &row_spo, &row_pso,
                                          &row_vert, &cstore};
  const std::vector<uint64_t> rows = bench_support::VerifyBackendsAgree(
      backends, core::AllQueries(), ctx);

  // Every benchmark query must be non-trivial on generated data.
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_GT(rows[i], 0u) << "query " << ToString(core::AllQueries()[i])
                           << " returned no rows";
  }
}

TEST_P(EquivalenceTest, ColdRunsReturnSameRowsAsHot) {
  BartonConfig config;
  config.target_triples = GetParam().triples;
  config.seed = GetParam().seed;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);

  core::ColVerticalBackend col_vert(barton.dataset);
  core::RowTripleBackend row_pso(barton.dataset,
                                 rowstore::TripleRelation::PsoConfig());
  for (QueryId id : core::AllQueries()) {
    core::QueryResult hot_col = col_vert.Run(id, ctx);
    col_vert.DropCaches();
    core::QueryResult cold_col = col_vert.Run(id, ctx);
    EXPECT_TRUE(hot_col.SameRows(cold_col)) << ToString(id);

    core::QueryResult hot_row = row_pso.Run(id, ctx);
    row_pso.DropCaches();
    core::QueryResult cold_row = row_pso.Run(id, ctx);
    EXPECT_TRUE(hot_row.SameRows(cold_row)) << ToString(id);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ScalesAndSeeds, EquivalenceTest,
    ::testing::Values(Combo{3000, 1}, Combo{3000, 7}, Combo{12000, 42},
                      Combo{12000, 99}, Combo{40000, 2026}),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return "t" + std::to_string(info.param.triples) + "_s" +
             std::to_string(info.param.seed);
    });

// The restriction list is part of query semantics: growing it must only
// grow q2's result set (monotonicity property used by Figure 6).
TEST(PropertySweepTest, Q2ResultGrowsWithPropertyCount) {
  BartonConfig config;
  config.target_triples = 20000;
  const auto barton = GenerateBarton(config);
  core::ColVerticalBackend vert(barton.dataset);
  core::ColTripleBackend triple(barton.dataset, rdf::TripleOrder::kPSO);

  uint64_t previous = 0;
  for (size_t k : {28, 56, 112, 222}) {
    const core::QueryContext ctx = MakeBartonContext(barton.dataset, k);
    core::QueryResult from_vert = vert.Run(QueryId::kQ2, ctx);
    core::QueryResult from_triple = triple.Run(QueryId::kQ2, ctx);
    EXPECT_TRUE(from_vert.SameRows(from_triple)) << "k=" << k;
    EXPECT_GE(from_vert.row_count(), previous);
    previous = from_vert.row_count();
  }
}

// The row engine's rows at widths 1, 2 and 8, for all three row designs,
// against the reference. On a fresh load the triple stores' full scans
// split into leaf-range chunks with one hash partial each; after an insert
// batch has split leaves, the chain is no longer contiguous and they fall
// back to the serial leaf walk. The inserts clone every triple of every 40th
// subject onto a fresh subject, so each query's patterns see new rows.
class RowEngineWidthTest : public ::testing::TestWithParam<bool> {};

TEST_P(RowEngineWidthTest, MatchesReferenceAtEveryWidth) {
  const bool after_inserts = GetParam();
  BartonConfig config;
  config.target_triples = 40000;
  config.seed = 11;
  auto barton = GenerateBarton(config);
  rdf::Dataset& data = barton.dataset;
  std::vector<rdf::Triple> inserts;
  if (after_inserts) {
    for (const rdf::Triple& t : data.triples()) {
      if (t.subject % 40 != 0) continue;
      const uint64_t clone =
          data.dict().Intern("<clone-" + std::to_string(t.subject) + ">");
      inserts.push_back({clone, t.property, t.object});
    }
  }
  const core::QueryContext ctx = MakeBartonContext(data, 28);

  core::RowTripleBackend row_spo(data, rowstore::TripleRelation::SpoConfig());
  core::RowTripleBackend row_pso(data, rowstore::TripleRelation::PsoConfig());
  core::RowVerticalBackend row_vert(data);
  core::ReferenceBackend reference(data);
  const std::vector<core::Backend*> row_backends = {&row_spo, &row_pso,
                                                    &row_vert};
  for (const rdf::Triple& t : inserts) {
    ASSERT_TRUE(reference.Insert(t).ok());
    for (core::Backend* backend : row_backends) {
      ASSERT_TRUE(backend->Insert(t).ok()) << backend->name();
    }
  }

  exec::SetThreads(8);
  for (int width : {1, 2, 8}) {
    const exec::ExecContext ectx(width);
    for (const core::RowTripleBackend* triple : {&row_spo, &row_pso}) {
      uint64_t parts = 0;
      triple->relation().FullScan(
          ectx, nullptr, nullptr, [&](uint64_t n) { parts = n; },
          [](uint64_t, std::span<const rdf::Triple>) {});
      EXPECT_EQ(parts > 1, width > 1 && !after_inserts)
          << triple->name() << " x" << width << ": " << parts << " parts";
    }
    for (QueryId id : core::AllQueries()) {
      const core::QueryResult want = reference.Run(id, ctx);
      EXPECT_GT(want.row_count(), 0u) << ToString(id);
      for (core::Backend* backend : row_backends) {
        EXPECT_TRUE(backend->Run(id, ctx, ectx).SameRows(want))
            << backend->name() << " " << ToString(id) << " x" << width;
      }
    }
  }
  exec::SetThreads(1);
}

INSTANTIATE_TEST_SUITE_P(LoadStates, RowEngineWidthTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "after_inserts" : "fresh_load";
                         });

// The engine cost pins run at widths 1 and 8. TearDown puts the pool back
// to one thread even when an assertion stops a test early.
class WideCostTest : public ::testing::Test {
 protected:
  void SetUp() override { exec::SetThreads(8); }
  void TearDown() override { exec::SetThreads(1); }
};
using RowEngineCostTest = WideCostTest;
using ColumnEngineCostTest = WideCostTest;

// Runs every query cold on `backend` at widths 1 and 8 and adds one ledger
// row per run: `key`, the query, the width, then cold bytes, seeks and
// virtual seconds after DropCaches.
void AddColdRuns(bench_support::Ledger& ledger, core::Backend* backend,
                 const std::vector<std::string>& key,
                 const core::QueryContext& ctx) {
  for (int threads : {1, 8}) {
    const exec::ExecContext ectx(threads);
    for (QueryId id : core::AllQueries()) {
      backend->DropCaches();
      backend->disk()->ResetStats();
      (void)backend->Run(id, ctx, ectx);
      std::vector<std::string> row = key;
      row.insert(row.end(),
                 {ToString(id), std::to_string(threads),
                  std::to_string(backend->TotalBytesRead()),
                  std::to_string(backend->TotalSeeks()),
                  bench_support::SecondsCell(backend->VirtualSeconds())});
      ledger.rows.push_back(std::move(row));
    }
  }
}

// Fails once per cell of `got` that differs from bench/baselines/<suite>.csv.
void ExpectPinned(const std::string& suite, bench_support::Ledger got) {
  for (const std::string& diff :
       bench_support::CheckPinnedLedger(suite, std::move(got))) {
    ADD_FAILURE() << diff;
  }
}

// The row engines' modeled cold cost, pinned per query
// (bench/baselines/row_engine_cold.csv): simulated-disk bytes, seeks and
// virtual seconds after DropCaches, for every row design at one and eight
// threads, recorded from the hand-wired per-design query code that
// core::RowBackend replaced. 40k triples give the triple store enough
// leaves to split its full scans into chunks. Any change to which pages a
// plan reads, in which order, or on which lane shows up here.
TEST_F(RowEngineCostTest, ColdCostIsPinned) {
  BartonConfig config;
  config.target_triples = 40000;
  config.seed = 7;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);
  core::RowTripleBackend row_spo(barton.dataset,
                                 rowstore::TripleRelation::SpoConfig());
  core::RowTripleBackend row_pso(barton.dataset,
                                 rowstore::TripleRelation::PsoConfig());
  core::RowVerticalBackend row_vert(barton.dataset);

  bench_support::Ledger got(
      config, {"backend", "query", "width", "cold_bytes", "seeks", "seconds"});
  for (core::Backend* backend :
       std::vector<core::Backend*>{&row_spo, &row_pso, &row_vert}) {
    AddColdRuns(got, backend, {backend->name()}, ctx);
  }
  ExpectPinned("row_engine_cold", std::move(got));
}

// The subject with the most triples, and its last triple: the constant
// subject both Match pins describe and bind.
rdf::Triple HubTriple(const rdf::Dataset& data) {
  std::map<uint64_t, uint64_t> per_subject;
  for (const rdf::Triple& t : data.triples()) ++per_subject[t.subject];
  const uint64_t hub =
      std::max_element(per_subject.begin(), per_subject.end(),
                       [](const auto& a, const auto& b) {
                         return a.second < b.second;
                       })
          ->first;
  rdf::Triple hub_triple{};
  for (const rdf::Triple& t : data.triples()) {
    if (t.subject == hub) hub_triple = t;
  }
  return hub_triple;
}

// One Match pin row: `key`, then `op`'s cost on `backend` after
// DropCaches: its rows (count and an order-sensitive FNV-1a hash of every
// id), cold bytes, seeks, virtual seconds, pool misses and page fetches.
std::vector<std::string> ColdRow(
    std::vector<std::string> key, core::Backend* backend,
    const std::function<std::vector<std::vector<uint64_t>>()>& op) {
  const storage::BufferPool* pool = backend->buffer_pool();
  backend->DropCaches();
  backend->disk()->ResetStats();
  const uint64_t hits = pool->hits();
  const uint64_t misses = pool->misses();
  const std::vector<std::vector<uint64_t>> rows = op();
  uint64_t hash = 14695981039346656037ull;
  for (const std::vector<uint64_t>& row : rows) {
    for (uint64_t id : row) hash = (hash ^ id) * 1099511628211ull;
  }
  key.insert(key.end(),
             {std::to_string(rows.size()), bench_support::HexCell(hash),
              std::to_string(backend->TotalBytesRead()),
              std::to_string(backend->TotalSeeks()),
              bench_support::SecondsCell(backend->VirtualSeconds()),
              std::to_string(pool->misses() - misses),
              std::to_string(pool->hits() - hits + pool->misses() - misses)});
  return key;
}

// ColdRow of `backend->Match(pattern)`.
std::vector<std::string> ColdMatchRow(std::vector<std::string> key,
                                      core::Backend* backend,
                                      const rdf::TriplePattern& pattern,
                                      const exec::ExecContext& ectx) {
  return ColdRow(std::move(key), backend, [&] {
    std::vector<std::vector<uint64_t>> rows;
    for (const rdf::Triple& t : backend->Match(pattern, ectx)) {
      rows.push_back({t.subject, t.property, t.object});
    }
    return rows;
  });
}

// Backend::Match on the row designs, pinned per pattern at width 1
// (bench/baselines/row_match_cold.csv): the rows (count and an
// order-sensitive hash), cold bytes, seeks, virtual seconds, buffer-pool
// misses and page fetches after DropCaches. The patterns reach every
// access path of the row store: a clustered prefix, a prefix with a
// residual constant, a secondary index with one clustered row fetch per
// match, the full-scan fallback for a subject with many triples,
// whole-store scans and absent constants. The second block of each design
// runs after inserts have split leaves and broken the bulk-loaded leaf
// chain. Any change to which pages a scan fetches, or in which order,
// shows up here.
TEST(RowMatchCostTest, ColdMatchIsPinned) {
  BartonConfig config;
  config.target_triples = 40000;
  config.seed = 7;
  auto barton = GenerateBarton(config);
  rdf::Dataset& data = barton.dataset;
  // Inserts that split leaves: every triple of every 40th subject cloned
  // onto a fresh subject.
  std::vector<rdf::Triple> inserts;
  for (const rdf::Triple& t : data.triples()) {
    if (t.subject % 40 != 0) continue;
    const uint64_t clone =
        data.dict().Intern("<clone-" + std::to_string(t.subject) + ">");
    inserts.push_back({clone, t.property, t.object});
  }

  const core::QueryContext ctx = MakeBartonContext(data, 28);
  const core::Vocabulary& v = ctx.vocab();
  const rdf::Triple hub_triple = HubTriple(data);
  const uint64_t hub = hub_triple.subject;
  // An object of three or four triples, and one of its triples: few
  // enough matches that the secondary indexes win.
  std::map<uint64_t, uint64_t> per_object;
  for (const rdf::Triple& t : data.triples()) ++per_object[t.object];
  rdf::Triple few{};
  for (const rdf::Triple& t : data.triples()) {
    const uint64_t n = per_object[t.object];
    if (n >= 3 && n <= 4) {
      few = t;
      break;
    }
  }
  ASSERT_NE(few.object, 0u);
  const uint64_t absent = data.dict().size() + 5;
  const std::vector<rdf::TriplePattern> patterns = {
      {{}, v.type, v.text},
      {{}, v.type, {}},
      {{}, v.origin, v.dlc},
      {{}, v.language, v.french},
      {hub, {}, {}},
      {hub, hub_triple.property, {}},
      {hub, {}, hub_triple.object},
      {hub, hub_triple.property, hub_triple.object},
      {v.conferences, {}, {}},
      {{}, {}, v.text},
      {{}, {}, few.object},
      {{}, few.property, few.object},
      {{}, {}, {}},
      {{}, absent, {}},
      {absent, v.type, {}},
  };

  // The PSO triple store's paths for the patterns above.
  {
    core::RowTripleBackend pso(data, rowstore::TripleRelation::PsoConfig());
    using Kind = rowstore::TripleRelation::AccessPath::Kind;
    const auto path = [&](size_t i) {
      return pso.relation().ChoosePath(patterns[i]);
    };
    EXPECT_EQ(path(0).kind, Kind::kClusteredPrefix);
    EXPECT_EQ(path(0).prefix_len, 1);  // residual object filter
    EXPECT_EQ(path(4).kind, Kind::kFullScan);
    EXPECT_EQ(path(5).kind, Kind::kClusteredPrefix);
    EXPECT_EQ(path(5).prefix_len, 2);
    EXPECT_EQ(path(6).kind, Kind::kSecondaryPrefix);
    EXPECT_EQ(path(10).kind, Kind::kSecondaryPrefix);
    EXPECT_EQ(path(11).kind, Kind::kSecondaryPrefix);
  }

  const exec::ExecContext ectx(1);
  bench_support::Ledger got(
      config, {"backend", "state", "pattern", "rows", "hash", "cold_bytes",
               "seeks", "seconds", "misses", "fetches"});
  for (bool after_inserts : {false, true}) {
    core::RowTripleBackend row_spo(data,
                                   rowstore::TripleRelation::SpoConfig());
    core::RowTripleBackend row_pso(data,
                                   rowstore::TripleRelation::PsoConfig());
    core::RowVerticalBackend row_vert(data);
    const std::vector<core::Backend*> backends = {&row_spo, &row_pso,
                                                  &row_vert};
    if (after_inserts) {
      for (core::Backend* backend : backends) {
        for (const rdf::Triple& t : inserts) {
          ASSERT_TRUE(backend->Insert(t).ok()) << backend->name();
        }
      }
      uint64_t parts = 0;
      row_pso.relation().FullScan(
          exec::ExecContext(8), nullptr, nullptr,
          [&](uint64_t n) { parts = n; },
          [](uint64_t, const auto&) {});
      EXPECT_EQ(parts, 1u);  // the chain is broken: one serial part
    }
    for (core::Backend* backend : backends) {
      for (size_t i = 0; i < patterns.size(); ++i) {
        got.rows.push_back(ColdMatchRow(
            {backend->name(), after_inserts ? "after inserts" : "fresh",
             std::to_string(i)},
            backend, patterns[i], ectx));
      }
    }
  }
  ExpectPinned("row_match_cold", std::move(got));
}

// Backend::Match on the column designs, pinned per pattern at width 1
// like RowMatchCostTest (bench/baselines/column_match_cold.csv). Covers
// the vertical store and the triple store in PSO and SPO order under raw
// and auto codecs, plus the C-Store engine (always auto-compressed, the
// 28 loaded properties only). The patterns bind the subject, the object,
// both, the property alone, nothing (the whole store) and a subject alone
// (describe), plus absent constants. The two column backends repeat them
// with unmerged inserts and tombstoned deletes in the write store, then
// after a merge; the merge itself is pinned as the cold cost of the q1 run
// that triggers it. The pin fails when a Match returns other rows or rows
// in another order, or when it reads other pages or reads columns in an
// order that costs differently: loading the triple store's columns
// object-first fails it. It does not see a reordering that costs the same
// on the simulated disk: loading a vertical partition's object column
// before its subject column passes.
TEST(ColumnMatchCostTest, ColdMatchIsPinned) {
  BartonConfig config;
  config.target_triples = 40000;
  config.seed = 7;
  auto barton = GenerateBarton(config);
  rdf::Dataset& data = barton.dataset;
  const core::QueryContext ctx = MakeBartonContext(data, 28);
  const core::Vocabulary& v = ctx.vocab();
  const rdf::Triple hub_triple = HubTriple(data);
  const uint64_t hub = hub_triple.subject;
  // Writes: every triple of every 40th subject cloned onto a fresh
  // subject, and every triple of every 35th subject deleted (the hub's
  // triple and some <type> <Text> rows among them).
  std::vector<rdf::Triple> inserts;
  std::vector<rdf::Triple> deletes = {hub_triple};
  for (const rdf::Triple& t : data.triples()) {
    if (t.subject % 35 == 0 && t.subject != hub) deletes.push_back(t);
    if (t.subject % 40 != 0) continue;
    const uint64_t clone =
        data.dict().Intern("<col-clone-" + std::to_string(t.subject) + ">");
    inserts.push_back({clone, t.property, t.object});
  }
  const uint64_t absent = data.dict().size() + 5;
  const std::vector<rdf::TriplePattern> patterns = {
      {hub, v.type, {}},
      {hub, {}, {}},
      {{}, v.type, v.text},
      {{}, {}, v.text},
      {hub, hub_triple.property, hub_triple.object},
      {hub, {}, hub_triple.object},
      {{}, v.type, {}},
      {{}, v.language, {}},
      {{}, {}, {}},
      {{}, absent, {}},
      {absent, {}, {}},
  };

  const exec::ExecContext ectx(1);
  bench_support::Ledger got(
      config, {"backend", "codec", "state", "pattern", "rows", "hash",
               "cold_bytes", "seeks", "seconds", "misses", "fetches"});
  const auto match_all = [&](core::Backend* backend, const std::string& codec,
                             const std::string& state) {
    for (size_t i = 0; i < patterns.size(); ++i) {
      got.rows.push_back(ColdMatchRow(
          {backend->name(), codec, state, std::to_string(i)}, backend,
          patterns[i], ectx));
    }
  };

  core::CStoreBackend cstore(data, ctx.interesting_properties());
  match_all(&cstore, "auto", "fresh");
  for (colstore::ColumnCodec codec :
       {colstore::ColumnCodec::kRaw, colstore::ColumnCodec::kAuto}) {
    const std::string tag = colstore::ToString(codec);
    core::ColVerticalBackend col_vert(data, {}, 4096, codec);
    core::ColTripleBackend col_pso(data, rdf::TripleOrder::kPSO, {}, 4096,
                                   codec);
    core::ColTripleBackend col_spo(data, rdf::TripleOrder::kSPO, {}, 4096,
                                   codec);
    for (core::Backend* backend :
         std::vector<core::Backend*>{&col_vert, &col_pso, &col_spo}) {
      match_all(backend, tag, "fresh");
      for (const rdf::Triple& t : inserts) {
        ASSERT_TRUE(backend->Insert(t).ok()) << backend->name();
      }
      for (const rdf::Triple& t : deletes) {
        ASSERT_TRUE(backend->Delete(t).ok()) << backend->name();
      }
      match_all(backend, tag, "unmerged writes");
      got.rows.push_back(
          ColdRow({backend->name(), tag, "merge", "q1"}, backend,
                  [&] { return backend->Run(QueryId::kQ1, ctx, ectx).rows; }));
      match_all(backend, tag, "merged");
    }
  }
  ExpectPinned("column_match_cold", std::move(got));
}

// A column store split into (subject, object) partitions, as
// MatchReadsOnlyNeededColumns inspects it: every partition's two columns,
// and the node that holds a given triple.
struct PartitionedStore {
  struct Part {
    int node;
    uint64_t property;
    const colstore::Column* subj;
    const colstore::Column* obj;
  };
  std::string label;
  core::Backend* backend;
  std::vector<Part> parts;
  std::function<int(const rdf::Triple&)> node_of;
};

void AddVerticalParts(const colstore::VerticalTable& table, int node,
                      std::vector<PartitionedStore::Part>* parts) {
  for (uint64_t p : table.properties()) {
    parts->push_back(
        {node, p, &table.SubjectColumn(p), &table.ObjectColumn(p)});
  }
}

// Backend::Match reads a column only when a row of it is needed. On a
// partitioned store (column vertical raw and auto, C-Store, a 2-node
// sharded vertical store), the column the pattern binds is read in every
// partition Match enumerates, and the other column only in the partitions
// that hold a row for that constant; an absent subject reads no object
// column. On the triple store in PSO and SPO order, an absent constant
// reads only the column it binds. Each Match runs after DropCaches, at
// widths 1 and 8, and returns the reference's rows.
TEST(ColumnMatchCostTest, MatchReadsOnlyNeededColumns) {
  BartonConfig config;
  config.target_triples = 40000;
  config.seed = 7;
  const auto barton = GenerateBarton(config);
  const rdf::Dataset& data = barton.dataset;
  const core::QueryContext ctx = MakeBartonContext(data, 28);
  const uint64_t hub = HubTriple(data).subject;
  const uint64_t text = ctx.vocab().text;
  const uint64_t absent = data.dict().size() + 5;
  core::ReferenceBackend reference(data);

  core::ColVerticalBackend vert_raw(data, {}, 4096,
                                    colstore::ColumnCodec::kRaw);
  core::ColVerticalBackend vert_auto(data, {}, 4096,
                                     colstore::ColumnCodec::kAuto);
  core::CStoreBackend cstore(data, ctx.interesting_properties());
  shard::ShardOptions options;
  options.nodes = 2;
  shard::ShardedBackend sharded(data, options);
  core::ColTripleBackend pso(data, rdf::TripleOrder::kPSO);
  core::ColTripleBackend spo(data, rdf::TripleOrder::kSPO);

  const auto on_node0 = [](const rdf::Triple&) { return 0; };
  std::vector<PartitionedStore> stores = {
      {"vertical raw", &vert_raw, {}, on_node0},
      {"vertical auto", &vert_auto, {}, on_node0},
      {"C-Store", &cstore, {}, on_node0},
      {"sharded vertical", &sharded, {}, [&](const rdf::Triple& t) {
         return sharded.placement().NodeOf(t);
       }}};
  AddVerticalParts(vert_raw.table(), 0, &stores[0].parts);
  AddVerticalParts(vert_auto.table(), 0, &stores[1].parts);
  for (uint64_t p : cstore.engine().properties()) {
    stores[2].parts.push_back({0, p, &cstore.engine().SubjectColumn(p),
                               &cstore.engine().ObjectColumn(p)});
  }
  for (int node = 0; node < options.nodes; ++node) {
    AddVerticalParts(
        dynamic_cast<const core::ColVerticalBackend&>(
            sharded.node_backend(node))
            .table(),
        node, &stores[3].parts);
  }

  // Each pattern with the column that narrows a partition: subjects when
  // the pattern binds a subject, objects otherwise.
  const std::vector<std::pair<rdf::TriplePattern, bool>> narrowed = {
      {{hub, {}, {}}, true},
      {{absent, {}, {}}, true},
      {{{}, {}, text}, false},
  };
  for (int threads : {1, 8}) {
    const exec::ExecContext ectx(threads);
    for (const PartitionedStore& store : stores) {
      for (const auto& [pattern, subject_first] : narrowed) {
        const std::string what = store.label + " pattern (" +
                                 (subject_first ? "s" : "o") + ") width " +
                                 std::to_string(threads);
        // The partitions that hold a matching row, per the reference.
        std::set<std::pair<int, uint64_t>> holders;
        for (const rdf::Triple& t : reference.Match(pattern)) {
          holders.insert({store.node_of(t), t.property});
        }
        store.backend->DropCaches();
        const uint64_t before = store.backend->TotalBytesRead();
        (void)store.backend->Match(pattern, ectx);
        uint64_t want_bytes = 0;
        for (const PartitionedStore::Part& part : store.parts) {
          const bool holds = holders.count({part.node, part.property}) != 0;
          const colstore::Column* first = subject_first ? part.subj : part.obj;
          const colstore::Column* other = subject_first ? part.obj : part.subj;
          EXPECT_TRUE(first->loaded())
              << what << " node " << part.node << " p " << part.property;
          EXPECT_EQ(other->loaded(), holds)
              << what << " node " << part.node << " p " << part.property;
          want_bytes += first->disk_bytes() + (holds ? other->disk_bytes() : 0);
        }
        EXPECT_EQ(store.backend->TotalBytesRead() - before, want_bytes)
            << what;
      }
    }
    for (core::ColTripleBackend* store : {&pso, &spo}) {
      for (int c = 0; c < 3; ++c) {
        std::array<std::optional<uint64_t>, 3> bound;
        bound[static_cast<size_t>(c)] = absent;
        store->DropCaches();
        (void)store->Match({bound[0], bound[1], bound[2]}, ectx);
        for (int k = 0; k < 3; ++k) {
          EXPECT_EQ(store->table().column(k).loaded(), k == c)
              << store->name() << " absent component " << c << " column "
              << k << " width " << threads;
        }
      }
    }
  }

  // Rows: the reference's, restricted to the properties a store loaded.
  const std::vector<rdf::TriplePattern> patterns = {
      {hub, {}, {}},         {absent, {}, {}},   {{}, {}, text},
      {{}, absent, {}},      {{}, {}, absent},   {hub, {}, text},
      {hub, ctx.vocab().type, {}},
  };
  std::vector<std::pair<std::string, core::Backend*>> all;
  for (const PartitionedStore& store : stores) {
    all.emplace_back(store.label, store.backend);
  }
  all.emplace_back("triple PSO", &pso);
  all.emplace_back("triple SPO", &spo);
  for (const auto& [label, backend] : all) {
    const bool cstore_rows = backend == &cstore;
    for (size_t i = 0; i < patterns.size(); ++i) {
      std::vector<rdf::Triple> want = reference.Match(patterns[i]);
      if (cstore_rows) {
        std::erase_if(want, [&](const rdf::Triple& t) {
          return !cstore.engine().HasProperty(t.property);
        });
      }
      std::sort(want.begin(), want.end());
      for (int threads : {1, 8}) {
        backend->DropCaches();
        std::vector<rdf::Triple> got =
            backend->Match(patterns[i], exec::ExecContext(threads));
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << label << " pattern " << i << " width "
                             << threads;
      }
    }
  }
}

// The column engines' modeled cold cost, pinned the same way
// (bench/baselines/column_engine_cold.csv): bytes, seeks and virtual
// seconds after DropCaches for the vertical scheme and the triple store in
// PSO and SPO order, raw and auto-compressed, at one and eight threads. A
// refactor of the column query path that adds or drops a page read, or
// moves one to another lane, fails here.
TEST_F(ColumnEngineCostTest, ColdCostIsPinned) {
  BartonConfig config;
  config.target_triples = 40000;
  config.seed = 7;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);

  bench_support::Ledger got(config, {"backend", "codec", "query", "width",
                                     "cold_bytes", "seeks", "seconds"});
  for (colstore::ColumnCodec codec :
       {colstore::ColumnCodec::kRaw, colstore::ColumnCodec::kAuto}) {
    core::ColVerticalBackend col_vert(barton.dataset, {}, 4096, codec);
    core::ColTripleBackend col_pso(barton.dataset, rdf::TripleOrder::kPSO, {},
                                   4096, codec);
    core::ColTripleBackend col_spo(barton.dataset, rdf::TripleOrder::kSPO, {},
                                   4096, codec);
    for (core::Backend* backend :
         std::vector<core::Backend*>{&col_vert, &col_pso, &col_spo}) {
      AddColdRuns(got, backend, {backend->name(), colstore::ToString(codec)},
                  ctx);
    }
  }
  ExpectPinned("column_engine_cold", std::move(got));
}

}  // namespace
}  // namespace swan
