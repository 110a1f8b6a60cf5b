// Property test at the system level: all scheme × engine combinations must
// return identical rows for every benchmark query, on generated Barton-like
// datasets of several scales and seeds, both with restricted and full
// property lists, and cold as well as hot.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "bench_support/barton_generator.h"
#include "bench_support/designs.h"
#include "bench_support/harness.h"
#include "bench_support/ledger.h"
#include "colstore/column.h"
#include "colstore/triple_table.h"
#include "colstore/vertical_table.h"
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

// The single-node designs of one engine in bench_support::Designs().
bool RowDesign(const core::StoreOptions& options) {
  return options.engine == core::EngineKind::kRowStore;
}
bool ColumnDesign(const core::StoreOptions& options) {
  return options.engine == core::EngineKind::kColumnStore &&
         options.nodes == 1;
}

class EquivalenceTest : public ::testing::TestWithParam<Combo> {};

TEST_P(EquivalenceTest, AllBackendsAgreeOnAllQueries) {
  BartonConfig config;
  config.target_triples = GetParam().triples;
  config.seed = GetParam().seed;
  const auto barton = GenerateBarton(config);
  const rdf::Dataset& data = barton.dataset;
  const core::QueryContext ctx = MakeBartonContext(data, 28);

  // The naive reference oracle goes first so every design is compared
  // against it, not just against the others. C-Store loads the 28
  // properties the queries consider, as in the paper.
  core::ReferenceBackend reference(data);
  std::vector<core::Backend*> backends = {&reference};
  std::vector<std::unique_ptr<core::Backend>> designs;
  for (const bench_support::Design& design : bench_support::Designs()) {
    core::StoreOptions options = design.options;
    options.cstore_properties = ctx.interesting_properties();
    designs.push_back(core::OpenBackend(data, options));
    backends.push_back(designs.back().get());
  }
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

  for (const auto& backend : bench_support::OpenDesigns(barton.dataset)) {
    for (QueryId id : core::AllQueries()) {
      if (!backend->Supports(id)) continue;
      const core::QueryResult hot = backend->Run(id, ctx);
      backend->DropCaches();
      const core::QueryResult cold = backend->Run(id, ctx);
      EXPECT_TRUE(hot.SameRows(cold)) << backend->name() << " " << ToString(id);
    }
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
  // C-Store's property set is fixed at load, so it sits this sweep out.
  const auto backends =
      bench_support::OpenDesigns(barton.dataset, {.all_queries = true});

  uint64_t previous = 0;
  for (size_t k : {28, 56, 112, 222}) {
    const core::QueryContext ctx = MakeBartonContext(barton.dataset, k);
    const core::QueryResult first = backends.front()->Run(QueryId::kQ2, ctx);
    for (const auto& backend : backends) {
      EXPECT_TRUE(backend->Run(QueryId::kQ2, ctx).SameRows(first))
          << backend->name() << " k=" << k;
    }
    EXPECT_GE(first.row_count(), previous);
    previous = first.row_count();
  }
}

// The row engine's rows at widths 1, 2 and 8, for all three row designs.
// On a fresh load the triple stores' full scans split into leaf-range
// chunks with one hash partial each; after an insert batch has split
// leaves, the chain is no longer contiguous and they fall back to the
// serial leaf walk. The inserts clone every triple of every 40th subject
// onto a fresh subject, so each query's patterns see new rows.
class RowEngineWidthTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    BartonConfig config;
    config.target_triples = 40000;
    config.seed = 11;
    barton_ = GenerateBarton(config);
    rdf::Dataset& data = barton_.dataset;
    if (!GetParam()) return;
    for (const rdf::Triple& t : data.triples()) {
      if (t.subject % 40 != 0) continue;
      const uint64_t clone =
          data.dict().Intern("<clone-" + std::to_string(t.subject) + ">");
      inserts_.push_back({clone, t.property, t.object});
    }
  }
  void TearDown() override { exec::SetThreads(1); }

  // Applies the insert batch to every one of `backends`.
  void Insert(const std::vector<core::Backend*>& backends) const {
    for (const rdf::Triple& t : inserts_) {
      for (core::Backend* backend : backends) {
        ASSERT_TRUE(backend->Insert(t).ok()) << backend->name();
      }
    }
  }

  bench_support::BartonDataset barton_;
  std::vector<rdf::Triple> inserts_;
};

// Against the reference, as bags.
TEST_P(RowEngineWidthTest, MatchesReferenceAtEveryWidth) {
  const rdf::Dataset& data = barton_.dataset;
  const core::QueryContext ctx = MakeBartonContext(data, 28);
  const auto row_designs = bench_support::OpenDesignsWhere(data, RowDesign);
  core::ReferenceBackend reference(data);
  std::vector<core::Backend*> row_backends;
  for (const auto& backend : row_designs) row_backends.push_back(backend.get());
  Insert(row_backends);
  Insert({&reference});

  exec::SetThreads(8);
  for (int width : {1, 2, 8}) {
    const exec::ExecContext ectx(width);
    for (core::Backend* backend : row_backends) {
      const auto* triple = dynamic_cast<core::RowTripleBackend*>(backend);
      if (triple == nullptr) continue;
      uint64_t parts = 0;
      triple->relation().FullScan(
          ectx, nullptr, nullptr, [&](uint64_t n) { parts = n; },
          [](uint64_t, std::span<const rdf::Triple>) {});
      EXPECT_EQ(parts > 1, width > 1 && inserts_.empty())
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
}

// The one q1–q8 skeleton merges sorted phase outputs, so every row design
// returns the column triple store's rows in the same sequence, not just
// the same bag, at every width.
TEST_P(RowEngineWidthTest, RowsComeOutInTheColumnEnginesOrder) {
  const rdf::Dataset& data = barton_.dataset;
  const core::QueryContext ctx = MakeBartonContext(data, 28);
  const auto row_designs = bench_support::OpenDesignsWhere(data, RowDesign);
  const auto col_pso = bench_support::OpenDesign(data, "MonetDB triple PSO");
  std::vector<core::Backend*> row_backends;
  for (const auto& backend : row_designs) row_backends.push_back(backend.get());
  Insert(row_backends);
  Insert({col_pso.get()});

  exec::SetThreads(8);
  for (int width : {1, 2, 8}) {
    const exec::ExecContext ectx(width);
    for (QueryId id : core::AllQueries()) {
      const core::QueryResult want = col_pso->Run(id, ctx, ectx);
      for (core::Backend* backend : row_backends) {
        const core::QueryResult got = backend->Run(id, ctx, ectx);
        EXPECT_EQ(got.column_names, want.column_names)
            << backend->name() << " " << ToString(id) << " x" << width;
        EXPECT_EQ(got.rows, want.rows)
            << backend->name() << " " << ToString(id) << " x" << width;
      }
    }
  }
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
  bench_support::Ledger got(
      config, {"backend", "query", "width", "cold_bytes", "seeks", "seconds"});
  for (const auto& backend :
       bench_support::OpenDesignsWhere(barton.dataset, RowDesign)) {
    AddColdRuns(got, backend.get(), {backend->name()}, ctx);
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
    const auto backends = bench_support::OpenDesignsWhere(data, RowDesign);
    if (after_inserts) {
      for (const auto& backend : backends) {
        for (const rdf::Triple& t : inserts) {
          ASSERT_TRUE(backend->Insert(t).ok()) << backend->name();
        }
      }
      uint64_t parts = 0;
      const auto* row_pso = dynamic_cast<const core::RowTripleBackend*>(
          backends[1].get());
      ASSERT_EQ(row_pso->name(), "DBX triple PSO");
      row_pso->relation().FullScan(
          exec::ExecContext(8), nullptr, nullptr,
          [&](uint64_t n) { parts = n; },
          [](uint64_t, const auto&) {});
      EXPECT_EQ(parts, 1u);  // the chain is broken: one serial part
    }
    for (const auto& backend : backends) {
      for (size_t i = 0; i < patterns.size(); ++i) {
        got.rows.push_back(ColdMatchRow(
            {backend->name(), after_inserts ? "after inserts" : "fresh",
             std::to_string(i)},
            backend.get(), patterns[i], ectx));
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
    for (const auto& owned :
         bench_support::OpenDesignsWhere(data, ColumnDesign, codec)) {
      core::Backend* backend = owned.get();
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

// A cold run on the vertical store opens a partition's second column only
// where the selection on its first column kept a row. A query's plan is a
// list of steps on one property each: a step opens its first column (the
// subjects where it selects on them, else the objects) in every partition
// of its property, and the other column in the partitions that hold a row
// the step keeps. The expected columns come from the dataset. Each query
// runs cold on the raw and auto codecs and on each node of a 2-node
// sharded store, at widths 1 and 8, with the bytes read equal to the
// opened columns' disk bytes and the rows equal to the reference's.
class VerticalSecondColumnTest : public ::testing::Test {
 protected:
  struct Step {
    uint64_t property;
    bool subject_first;
    std::function<bool(const rdf::Triple&)> keep;
  };
  using Ids = std::set<uint64_t>;

  // The reference and the three stores over the graph as it stands.
  struct Stores {
    explicit Stores(const rdf::Dataset& data)
        : reference(data),
          vert_raw(data, {}, 4096, colstore::ColumnCodec::kRaw),
          vert_auto(data, {}, 4096, colstore::ColumnCodec::kAuto),
          sharded(data, TwoNodes()) {
      const auto on_node0 = [](const rdf::Triple&) { return 0; };
      list = {{"vertical raw", &vert_raw, {}, on_node0},
              {"vertical auto", &vert_auto, {}, on_node0},
              {"sharded vertical", &sharded, {},
               [this](const rdf::Triple& t) {
                 return sharded.placement().NodeOf(t);
               }}};
      AddVerticalParts(vert_raw.table(), 0, &list[0].parts);
      AddVerticalParts(vert_auto.table(), 0, &list[1].parts);
      for (int node = 0; node < 2; ++node) {
        AddVerticalParts(dynamic_cast<const core::ColVerticalBackend&>(
                             sharded.node_backend(node))
                             .table(),
                         node, &list[2].parts);
      }
    }
    core::ReferenceBackend reference;
    core::ColVerticalBackend vert_raw;
    core::ColVerticalBackend vert_auto;
    shard::ShardedBackend sharded;
    std::vector<PartitionedStore> list;
  };

  VerticalSecondColumnTest()
      : barton_(GenerateBarton(Config())),
        data_(barton_.dataset),
        ctx_(MakeBartonContext(data_, 28)),
        v_(ctx_.vocab()) {}

  static BartonConfig Config() {
    BartonConfig config;
    config.target_triples = 40000;
    config.seed = 7;
    return config;
  }
  static shard::ShardOptions TwoNodes() {
    shard::ShardOptions options;
    options.nodes = 2;
    return options;
  }

  // Removes the triples `drop` accepts from the graph the stores open
  // next.
  void Drop(const std::function<bool(const rdf::Triple&)>& drop) {
    std::vector<rdf::Triple> kept;
    for (const rdf::Triple& t : data_.triples()) {
      if (!drop(t)) kept.push_back(t);
    }
    stores_.reset();
    data_.ReplaceTriples(std::move(kept));
  }

  // The subjects of (?s, property, object); the objects of `property`'s
  // rows whose subject is in `subjects`.
  Ids SubjectsWith(uint64_t property, uint64_t object) const {
    Ids out;
    for (const rdf::Triple& t : data_.triples()) {
      if (t.property == property && t.object == object) out.insert(t.subject);
    }
    return out;
  }
  Ids ObjectsOf(uint64_t property, const Ids& subjects) const {
    Ids out;
    for (const rdf::Triple& t : data_.triples()) {
      if (t.property == property && subjects.count(t.subject) != 0) {
        out.insert(t.object);
      }
    }
    return out;
  }

  // The filter step (?s, property, object), selecting on the objects.
  static Step FilterStep(uint64_t property, uint64_t object) {
    return {property, false,
            [object](const rdf::Triple& t) { return t.object == object; }};
  }
  // A step selecting on the subjects of `property` by `subjects`; nullptr
  // keeps no row (a count that opens no second column).
  static Step SubjectStep(uint64_t property, const Ids* subjects) {
    return {property, true, [subjects](const rdf::Triple& t) {
              return subjects != nullptr && subjects->count(t.subject) != 0;
            }};
  }
  // SubjectStep on every property `id` lists (every property for a
  // starred query).
  std::vector<Step> ListedSteps(QueryId id, const Ids* subjects) const {
    const std::vector<uint64_t>* listed = core::PropertyFilter(id, ctx_);
    Ids props;
    if (listed != nullptr) {
      props.insert(listed->begin(), listed->end());
    } else {
      for (const rdf::Triple& t : data_.triples()) props.insert(t.property);
    }
    std::vector<Step> steps;
    for (uint64_t p : props) steps.push_back(SubjectStep(p, subjects));
    return steps;
  }

  // Runs `id` cold on every store and checks its rows, the columns
  // `steps` open and the bytes read.
  void ExpectColdRun(QueryId id, const std::vector<Step>& steps) {
    if (stores_ == nullptr) stores_ = std::make_unique<Stores>(data_);
    std::vector<std::vector<uint64_t>> want_rows =
        stores_->reference.Run(id, ctx_).rows;
    std::sort(want_rows.begin(), want_rows.end());
    std::map<uint64_t, std::vector<size_t>> steps_on;
    for (size_t i = 0; i < steps.size(); ++i) {
      steps_on[steps[i].property].push_back(i);
    }
    for (const PartitionedStore& store : stores_->list) {
      // Per step, the (node, property) partitions holding a kept row.
      std::vector<std::set<std::pair<int, uint64_t>>> kept(steps.size());
      for (const rdf::Triple& t : data_.triples()) {
        const auto on = steps_on.find(t.property);
        if (on == steps_on.end()) continue;
        for (size_t i : on->second) {
          if (steps[i].keep(t)) kept[i].insert({store.node_of(t), t.property});
        }
      }
      for (int threads : {1, 8}) {
        const std::string what = store.label + " " + ToString(id) +
                                 " width " + std::to_string(threads);
        store.backend->DropCaches();
        const uint64_t before = store.backend->TotalBytesRead();
        std::vector<std::vector<uint64_t>> got =
            store.backend->Run(id, ctx_, exec::ExecContext(threads)).rows;
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want_rows) << what;
        uint64_t want_bytes = 0;
        for (const PartitionedStore::Part& part : store.parts) {
          bool want_subj = false;
          bool want_obj = false;
          static const std::vector<size_t> kNoSteps;
          const auto on = steps_on.find(part.property);
          for (size_t i : on == steps_on.end() ? kNoSteps : on->second) {
            const bool hit = kept[i].count({part.node, part.property}) != 0;
            (steps[i].subject_first ? want_subj : want_obj) = true;
            if (hit) (steps[i].subject_first ? want_obj : want_subj) = true;
          }
          EXPECT_EQ(part.subj->loaded(), want_subj)
              << what << " node " << part.node << " p " << part.property
              << " subjects";
          EXPECT_EQ(part.obj->loaded(), want_obj)
              << what << " node " << part.node << " p " << part.property
              << " objects";
          want_bytes += (want_subj ? part.subj->disk_bytes() : 0) +
                        (want_obj ? part.obj->disk_bytes() : 0);
        }
        EXPECT_EQ(store.backend->TotalBytesRead() - before, want_bytes)
            << what;
      }
    }
  }

  bench_support::BartonDataset barton_;
  rdf::Dataset& data_;
  const core::QueryContext ctx_;
  const core::Vocabulary& v_;
  std::unique_ptr<Stores> stores_;
};

// q3/q4: the subject filters, then every listed partition's subjects
// selected by the filtered subjects (q4: those carrying (language, fre)
// too), whose objects the (property, object) groups read.
TEST_F(VerticalSecondColumnTest, ColdQ3Q4OpenObjectsOfSelectedPartitionsOnly) {
  const Ids text_typed = SubjectsWith(v_.type, v_.text);
  const Ids french = SubjectsWith(v_.language, v_.french);
  Ids text_french;
  std::set_intersection(text_typed.begin(), text_typed.end(), french.begin(),
                        french.end(),
                        std::inserter(text_french, text_french.end()));
  for (QueryId id :
       {QueryId::kQ3, QueryId::kQ3Star, QueryId::kQ4, QueryId::kQ4Star}) {
    const bool q4 = core::BaseOf(id) == QueryId::kQ4;
    std::vector<Step> steps =
        ListedSteps(id, q4 ? &text_french : &text_typed);
    steps.push_back(FilterStep(v_.type, v_.text));
    if (q4) steps.push_back(FilterStep(v_.language, v_.french));
    ExpectColdRun(id, steps);
  }
}

// q5/q7's pair steps select a property's subjects by the filter's
// subjects (q5's <type> step by the <records> objects those reach) and
// read the objects only where a subject was kept. q6's <records> probe
// selects on the objects by the Text-typed subjects and reads the
// subjects only where an object was kept, though q6's property count then
// reads them anyway: <records> is always listed. On the generated graph
// every step keeps rows; the graph is then trimmed so that q5's <records>
// step and q7's <encoding> step keep none, and those partitions' object
// columns (and q5's <type> objects, whose join keys are gone) stay unread.
TEST_F(VerticalSecondColumnTest, ColdQ5Q6Q7OpenSecondColumnsOfKeptRowsOnly) {
  const auto expect_q5_q7 = [&] {
    const Ids dlc = SubjectsWith(v_.origin, v_.dlc);
    const Ids join_keys = ObjectsOf(v_.records, dlc);
    ExpectColdRun(QueryId::kQ5, {FilterStep(v_.origin, v_.dlc),
                                 SubjectStep(v_.records, &dlc),
                                 SubjectStep(v_.type, &join_keys)});
    const Ids ends = SubjectsWith(v_.point, v_.end);
    ExpectColdRun(QueryId::kQ7, {FilterStep(v_.point, v_.end),
                                 SubjectStep(v_.encoding, &ends),
                                 SubjectStep(v_.type, &ends)});
  };
  expect_q5_q7();
  const Ids text_typed = SubjectsWith(v_.type, v_.text);
  for (QueryId id : {QueryId::kQ6, QueryId::kQ6Star}) {
    std::vector<Step> steps = ListedSteps(id, nullptr);
    steps.push_back(FilterStep(v_.type, v_.text));
    steps.push_back({v_.records, false, [&](const rdf::Triple& t) {
                       return text_typed.count(t.object) != 0;
                     }});
    ExpectColdRun(id, steps);
  }

  const Ids dlc = SubjectsWith(v_.origin, v_.dlc);
  const Ids ends = SubjectsWith(v_.point, v_.end);
  ASSERT_FALSE(ObjectsOf(v_.records, dlc).empty());
  ASSERT_FALSE(ObjectsOf(v_.encoding, ends).empty());
  Drop([&](const rdf::Triple& t) {
    return (t.property == v_.records && dlc.count(t.subject) != 0) ||
           (t.property == v_.encoding && ends.count(t.subject) != 0);
  });
  expect_q5_q7();
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
    for (const auto& backend :
         bench_support::OpenDesignsWhere(barton.dataset, ColumnDesign, codec)) {
      AddColdRuns(got, backend.get(),
                  {backend->name(), colstore::ToString(codec)}, ctx);
    }
  }
  ExpectPinned("column_engine_cold", std::move(got));
}

// A cold BaseContains (an insert of a present triple) on the triple PSO
// store loads the subject column, then the property column, then the
// objects. Its virtual seconds are pinned to the last bit, as
// column_match_cold.csv pins Match's. On the auto codec the two key
// columns differ in size, and loading the property column first reads the
// same bytes with the same seeks but sums to other bits (the test shows it
// by loading the columns in that order), so a compiler that evaluated
// PrimarySecondaryRange's two loads in the other order fails here. Raw key
// columns are the same size, so either order sums alike.
TEST(ColumnMatchCostTest, ColdBaseContainsSecondsArePinned) {
  BartonConfig config;
  config.target_triples = 40000;
  config.seed = 7;
  const auto barton = GenerateBarton(config);
  const rdf::Dataset& data = barton.dataset;
  const rdf::Triple present = HubTriple(data);
  const std::map<colstore::ColumnCodec, std::string> pinned = {
      {colstore::ColumnCodec::kRaw, "0x1.077ebb96331e7p-8"},
      {colstore::ColumnCodec::kAuto, "0x1.e6d302ce8f3f7p-10"},
  };
  for (const auto& [codec, want] : pinned) {
    core::ColTripleBackend pso(data, rdf::TripleOrder::kPSO, {}, 4096, codec);
    pso.DropCaches();
    pso.disk()->ResetStats();
    EXPECT_EQ(pso.Insert(present).code(), StatusCode::kAlreadyExists);
    const std::string seconds =
        bench_support::SecondsCell(pso.VirtualSeconds());
    EXPECT_EQ(seconds, want) << colstore::ToString(codec);
    const uint64_t bytes = pso.TotalBytesRead();
    const uint64_t seeks = pso.TotalSeeks();

    pso.DropCaches();
    pso.disk()->ResetStats();
    (void)pso.table().column(1).Encoded();  // property column first
    (void)pso.table().column(0).Encoded();
    (void)pso.table().column(2).Encoded();
    EXPECT_EQ(pso.TotalBytesRead(), bytes);
    EXPECT_EQ(pso.TotalSeeks(), seeks);
    if (codec == colstore::ColumnCodec::kAuto) {
      EXPECT_NE(bench_support::SecondsCell(pso.VirtualSeconds()), seconds);
    }
  }
}

// Sum of the decoded images of the loaded columns among `columns`, read
// off each image.
uint64_t LoadedImageBytes(const std::vector<const colstore::Column*>& columns) {
  uint64_t total = 0;
  for (const colstore::Column* column : columns) {
    if (column->loaded()) total += column->Encoded().memory_bytes();
  }
  return total;
}

void AddTripleColumns(const colstore::TripleTable& table,
                      std::vector<const colstore::Column*>* columns) {
  for (int k = 0; k < 3; ++k) columns->push_back(&table.column(k));
}

void AddVerticalColumns(const colstore::VerticalTable& table,
                        std::vector<const colstore::Column*>* columns) {
  for (uint64_t p : table.properties()) {
    columns->push_back(&table.SubjectColumn(p));
    columns->push_back(&table.ObjectColumn(p));
  }
}

// Column loads keep no buffer-pool frame. After a cold q3* on the vertical
// store (raw, auto, and a 2-node sharded store) and on the triple PSO
// store (raw, auto), and a cold q3 on C-Store, which has no star queries,
// no pool holds a frame, the store's resident column bytes are the sum of
// its loaded column images, and a quick audit is clean. A page fetched
// into a column store's pool is an audit finding.
TEST(ResidentMemoryTest, ColdColumnRunsKeepNoFrames) {
  BartonConfig config;
  config.target_triples = 40000;
  config.seed = 7;
  const auto barton = GenerateBarton(config);
  const rdf::Dataset& data = barton.dataset;
  const core::QueryContext ctx = MakeBartonContext(data, 28);

  core::ColVerticalBackend vert_raw(data, {}, 4096,
                                    colstore::ColumnCodec::kRaw);
  core::ColVerticalBackend vert_auto(data, {}, 4096,
                                     colstore::ColumnCodec::kAuto);
  core::ColTripleBackend pso_raw(data, rdf::TripleOrder::kPSO, {}, 4096,
                                 colstore::ColumnCodec::kRaw);
  core::ColTripleBackend pso_auto(data, rdf::TripleOrder::kPSO, {}, 4096,
                                  colstore::ColumnCodec::kAuto);
  core::CStoreBackend cstore(data, ctx.interesting_properties());
  shard::ShardOptions options;
  options.nodes = 2;
  shard::ShardedBackend sharded(data, options);

  struct Case {
    core::Backend* backend;
    QueryId query;
    std::vector<const colstore::Column*> columns;
  };
  std::vector<Case> cases = {{&vert_raw, QueryId::kQ3Star, {}},
                             {&vert_auto, QueryId::kQ3Star, {}},
                             {&pso_raw, QueryId::kQ3Star, {}},
                             {&pso_auto, QueryId::kQ3Star, {}},
                             {&cstore, QueryId::kQ3, {}},
                             {&sharded, QueryId::kQ3Star, {}}};
  AddVerticalColumns(vert_raw.table(), &cases[0].columns);
  AddVerticalColumns(vert_auto.table(), &cases[1].columns);
  AddTripleColumns(pso_raw.table(), &cases[2].columns);
  AddTripleColumns(pso_auto.table(), &cases[3].columns);
  for (uint64_t p : cstore.engine().properties()) {
    cases[4].columns.push_back(&cstore.engine().SubjectColumn(p));
    cases[4].columns.push_back(&cstore.engine().ObjectColumn(p));
  }
  for (int node = 0; node < options.nodes; ++node) {
    AddVerticalColumns(dynamic_cast<const core::ColVerticalBackend&>(
                           sharded.node_backend(node))
                           .table(),
                       &cases[5].columns);
  }

  for (const Case& c : cases) {
    const std::string what =
        c.backend->name() + " " + ToString(c.query);
    c.backend->DropCaches();
    (void)c.backend->Run(c.query, ctx, exec::ExecContext(1));
    const core::ResidentBytes resident = c.backend->Resident();
    EXPECT_EQ(resident.pool_frames, 0u) << what;
    EXPECT_EQ(resident.frame_table, 0u) << what;
    EXPECT_GT(resident.column_images, 0u) << what;
    EXPECT_EQ(resident.column_images, LoadedImageBytes(c.columns)) << what;
    EXPECT_EQ(resident.page_images, c.backend == &sharded
                                        ? sharded.disk_bytes()
                                        : c.backend->disk()->TotalStoredBytes())
        << what;
    EXPECT_TRUE(c.backend->Audit(audit::AuditLevel::kQuick).ok()) << what;
  }
  for (int node = 0; node < options.nodes; ++node) {
    EXPECT_EQ(sharded.node_backend(node).buffer_pool()->frame_count(), 0u);
  }

  // A frame in a column store's pool is a finding, at every audit level.
  { storage::PageGuard guard = vert_raw.pool()->Fetch({0, 0}); }
  const audit::AuditReport report =
      vert_raw.Audit(audit::AuditLevel::kQuick);
  ASSERT_EQ(report.findings().size(), 1u);
  EXPECT_EQ(report.findings()[0].cls, audit::FindingClass::kBufferPool);
}

// A column merge drops the files of the columns it replaces: after each
// of three insert + q1 rounds (q1 merges the write store), the disk's page
// images are exactly the bytes the store's live columns own, and the quick
// audit, which flags orphan files, is clean.
TEST(ResidentMemoryTest, MergesFreeTheFilesTheyReplace) {
  BartonConfig config;
  config.target_triples = 20000;
  config.seed = 42;
  auto barton = GenerateBarton(config);
  rdf::Dataset& data = barton.dataset;
  const core::QueryContext ctx = MakeBartonContext(data, 28);
  // Round r clones every triple of every subject s with s % 40 == r onto a
  // fresh subject.
  constexpr int kRounds = 3;
  std::vector<std::vector<rdf::Triple>> rounds(kRounds);
  for (const rdf::Triple& t : data.triples()) {
    const uint64_t r = t.subject % 40;
    if (r >= kRounds) continue;
    const uint64_t clone = data.dict().Intern(
        "<merge-clone-" + std::to_string(t.subject) + ">");
    rounds[r].push_back({clone, t.property, t.object});
  }
  for (colstore::ColumnCodec codec :
       {colstore::ColumnCodec::kRaw, colstore::ColumnCodec::kAuto}) {
    core::ColVerticalBackend col_vert(data, {}, 4096, codec);
    core::ColTripleBackend col_pso(data, rdf::TripleOrder::kPSO, {}, 4096,
                                   codec);
    for (core::Backend* backend :
         std::vector<core::Backend*>{&col_vert, &col_pso}) {
      for (int r = 0; r < kRounds; ++r) {
        const std::string what = backend->name() + " " +
                                 colstore::ToString(codec) + " round " +
                                 std::to_string(r);
        ASSERT_FALSE(rounds[r].empty()) << what;
        for (const rdf::Triple& t : rounds[r]) {
          ASSERT_TRUE(backend->Insert(t).ok()) << what;
        }
        (void)backend->Run(QueryId::kQ1, ctx, exec::ExecContext(1));
        EXPECT_EQ(backend->Resident().page_images, backend->disk_bytes())
            << what;
        EXPECT_EQ(backend->disk()->TotalStoredBytes(), backend->disk_bytes())
            << what;
        EXPECT_TRUE(backend->Audit(audit::AuditLevel::kQuick).ok()) << what;
      }
    }
  }
}

// A file no live structure owns is an orphan: the quick audit reports a
// disk that stores one, on a column store, a row store and one node of a
// sharded store (each node audits its own disk).
TEST(ResidentMemoryTest, QuickAuditFindsOrphanFiles) {
  BartonConfig config;
  config.target_triples = 20000;
  config.seed = 42;
  const auto barton = GenerateBarton(config);
  const rdf::Dataset& data = barton.dataset;
  core::ColTripleBackend col_pso(data, rdf::TripleOrder::kPSO, {}, 4096,
                                 colstore::ColumnCodec::kAuto);
  core::RowTripleBackend row_pso(data, rowstore::TripleRelation::PsoConfig());
  shard::ShardOptions options;
  options.nodes = 2;
  shard::ShardedBackend sharded(data, options);
  const std::vector<uint8_t> page(storage::kPageSize, 0x5a);
  for (core::Backend* backend :
       std::vector<core::Backend*>{&col_pso, &row_pso, &sharded}) {
    EXPECT_TRUE(backend->Audit(audit::AuditLevel::kQuick).ok())
        << backend->name();
    storage::SimulatedDisk* disk = backend->disk();
    disk->AppendPage(disk->CreateFile(), page.data());
    const audit::AuditReport report = backend->Audit(audit::AuditLevel::kQuick);
    ASSERT_EQ(report.findings().size(), 1u) << backend->name();
    EXPECT_EQ(report.findings()[0].cls, audit::FindingClass::kStructure)
        << backend->name();
  }
}

// Where each store's memory sits, pinned by structure
// (bench/baselines/store_memory.csv): the page images, pool frames, frame
// table and loaded column images of the six column ledger backends, the
// three row designs and C-Store, right after they open and after
// DropCaches and one pass over their queries at width 1. The sizes come
// from the structures, not the allocator, so every cell is exact.
TEST(ResidentMemoryTest, BreakdownIsPinned) {
  BartonConfig config;
  config.target_triples = 40000;
  config.seed = 7;
  const auto barton = GenerateBarton(config);
  const rdf::Dataset& data = barton.dataset;
  const core::QueryContext ctx = MakeBartonContext(data, 28);

  bench_support::Ledger got(
      config, {"backend", "codec", "state", "page_images", "pool_frames",
               "frame_table", "column_images"});
  const auto add = [&](core::Backend* backend, const std::string& codec) {
    const auto row = [&](const std::string& state) {
      const core::ResidentBytes r = backend->Resident();
      got.rows.push_back({backend->name(), codec, state,
                          std::to_string(r.page_images),
                          std::to_string(r.pool_frames),
                          std::to_string(r.frame_table),
                          std::to_string(r.column_images)});
    };
    row("open");
    backend->DropCaches();
    for (QueryId id : core::AllQueries()) {
      if (backend->Supports(id)) {
        (void)backend->Run(id, ctx, exec::ExecContext(1));
      }
    }
    row("after queries");
  };
  for (colstore::ColumnCodec codec :
       {colstore::ColumnCodec::kRaw, colstore::ColumnCodec::kAuto}) {
    const std::string tag = colstore::ToString(codec);
    core::ColVerticalBackend col_vert(data, {}, 4096, codec);
    core::ColTripleBackend col_pso(data, rdf::TripleOrder::kPSO, {}, 4096,
                                   codec);
    core::ColTripleBackend col_spo(data, rdf::TripleOrder::kSPO, {}, 4096,
                                   codec);
    add(&col_vert, tag);
    add(&col_pso, tag);
    add(&col_spo, tag);
  }
  {
    core::RowTripleBackend row_spo(data, rowstore::TripleRelation::SpoConfig());
    core::RowTripleBackend row_pso(data, rowstore::TripleRelation::PsoConfig());
    core::RowVerticalBackend row_vert(data);
    core::CStoreBackend cstore(data, ctx.interesting_properties());
    add(&row_spo, "-");
    add(&row_pso, "-");
    add(&row_vert, "-");
    add(&cstore, "auto");
  }
  ExpectPinned("store_memory", std::move(got));
}

}  // namespace
}  // namespace swan
