// Property test at the system level: all scheme × engine combinations must
// return identical rows for every benchmark query, on generated Barton-like
// datasets of several scales and seeds, both with restricted and full
// property lists, and cold as well as hot.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "bench_support/barton_generator.h"
#include "bench_support/harness.h"
#include "core/col_backends.h"
#include "core/cstore_backend.h"
#include "core/property_table_backend.h"
#include "core/reference_backend.h"
#include "core/row_backends.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"

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
  core::PropertyTableBackend property_table(data, 20);
  core::ReferenceBackend reference(data);

  // The naive reference oracle goes first so every optimized backend is
  // compared against it, not just against each other.
  std::vector<core::Backend*> backends = {&reference, &col_spo, &col_pso,
                                          &col_vert, &row_spo, &row_pso,
                                          &row_vert, &property_table, &cstore};
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

// The row engine's rows at widths 1, 2 and 8, for all four row designs,
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
  core::PropertyTableBackend property_table(data, 20);
  core::ReferenceBackend reference(data);
  const std::vector<core::Backend*> row_backends = {&row_spo, &row_pso,
                                                    &row_vert, &property_table};
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
          ectx, [&](uint64_t n) { parts = n; },
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

// The row engines' modeled cold cost, pinned per query: simulated-disk
// bytes, seeks and virtual seconds after DropCaches, for every row design
// at one and eight threads, recorded from the hand-wired per-design query
// code that core::RowBackend replaced. 40k triples give the triple store
// enough leaves to split its full scans into chunks. Any change to which
// pages a plan reads, in which order, or on which lane shows up here.
// Seconds are hex literals, so the serial comparison is bit-exact.
TEST(RowEngineCostTest, ColdCostIsPinned) {
  struct Cost {
    uint64_t bytes;
    uint64_t seeks;
    double seconds;
  };
  // 12 queries (AllQueries order) per (design, threads) block.
  const std::vector<Cost> golden = {
      // DBX triple SPO, 1 thread
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      // DBX triple SPO, 8 threads
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 6, 0x1.1cb5bb9069e87p-9},
      // DBX triple PSO, 1 thread
      {237568, 2, 0x1.a5d42478d2648p-10},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      {974848, 5, 0x1.47a78a8b456e9p-8},
      {974848, 5, 0x1.47a78a8b456e9p-8},
      {360448, 4, 0x1.7f48bafd18ca4p-9},
      {974848, 5, 0x1.47a78a8b456e9p-8},
      {974848, 5, 0x1.47a78a8b456e9p-8},
      {294912, 4, 0x1.69423591d34ep-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      // DBX triple PSO, 8 threads
      {237568, 2, 0x1.a5d42478d2648p-10},
      {974848, 6, 0x1.670bbdda746bcp-9},
      {974848, 6, 0x1.670bbdda746bcp-9},
      {974848, 6, 0x1.670bbdda746bcp-9},
      {974848, 6, 0x1.670bbdda746bcp-9},
      {974848, 8, 0x1.ea1e2c7201bbcp-9},
      {974848, 8, 0x1.ea1e2c7201bbcp-9},
      {360448, 4, 0x1.7f48bafd18ca4p-9},
      {974848, 8, 0x1.ea1e2c7201bb8p-9},
      {974848, 8, 0x1.ea1e2c7201bb8p-9},
      {294912, 4, 0x1.69423591d34ep-9},
      {974848, 2, 0x1.cab36f3336e5cp-9},
      // DBX vert. SO, 1 thread
      {163840, 2, 0x1.74457847760cfp-10},
      {925696, 49, 0x1.b84bf6418773fp-6},
      {1646592, 137, 0x1.29de937da40dp-4},
      {925696, 49, 0x1.b84bf6418773fp-6},
      {1646592, 137, 0x1.29de937da40dp-4},
      {925696, 49, 0x1.b84bf6418773fp-6},
      {1646592, 137, 0x1.29de937da40dp-4},
      {262144, 6, 0x1.e1516173bddfcp-9},
      {925696, 49, 0x1.b84bf6418773fp-6},
      {1646592, 137, 0x1.29de937da40dp-4},
      {212992, 6, 0x1.d0cc7d6349c2bp-9},
      {1646592, 158, 0x1.54e09fc75e6c3p-4},
      // DBX vert. SO, 8 threads
      {163840, 2, 0x1.74457847760cfp-10},
      {925696, 49, 0x1.5f5a2eb7e002p-8},
      {1646592, 137, 0x1.6b78ad493231ap-7},
      {925696, 49, 0x1.5f5a2eb7e002p-8},
      {1646592, 137, 0x1.6b78ad493231ap-7},
      {925696, 49, 0x1.a7c56fb52c60bp-8},
      {1646592, 137, 0x1.8fae4dc7d861p-7},
      {262144, 6, 0x1.e1516173bddfcp-9},
      {925696, 49, 0x1.abe6a8b94967fp-8},
      {1646592, 137, 0x1.91beea49e6e4ap-7},
      {212992, 6, 0x1.d0cc7d6349c2bp-9},
      {1646592, 158, 0x1.72e854e88fa1p-7},
      // DBX prop. table, 1 thread
      {434176, 3, 0x1.5686d9ca004e5p-9},
      {958464, 3, 0x1.035d829216173p-8},
      {958464, 3, 0x1.035d829216173p-8},
      {958464, 3, 0x1.035d829216173p-8},
      {958464, 3, 0x1.035d829216173p-8},
      {958464, 6, 0x1.65ab5583c0132p-8},
      {958464, 6, 0x1.65ab5583c0132p-8},
      {491520, 5, 0x1.ecdefd1f6a6a5p-9},
      {958464, 6, 0x1.65ab5583c0131p-8},
      {958464, 6, 0x1.65ab5583c0131p-8},
      {491520, 5, 0x1.ecdefd1f6a69fp-9},
      {958464, 12, 0x1.15237db38a054p-7},
      // DBX prop. table, 8 threads
      {434176, 3, 0x1.5686d9ca004e5p-9},
      {958464, 3, 0x1.035d829216173p-8},
      {958464, 3, 0x1.035d829216173p-8},
      {958464, 3, 0x1.035d829216173p-8},
      {958464, 3, 0x1.035d829216173p-8},
      {958464, 6, 0x1.65ab5583c0132p-8},
      {958464, 6, 0x1.65ab5583c0132p-8},
      {491520, 5, 0x1.ecdefd1f6a6a5p-9},
      {958464, 6, 0x1.65ab5583c0131p-8},
      {958464, 6, 0x1.65ab5583c0131p-8},
      {491520, 5, 0x1.ecdefd1f6a69fp-9},
      {958464, 12, 0x1.15237db38a054p-7},
  };
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
  core::PropertyTableBackend property_table(barton.dataset, 4);

  exec::SetThreads(8);
  size_t cell = 0;
  for (core::Backend* backend : std::vector<core::Backend*>{
           &row_spo, &row_pso, &row_vert, &property_table}) {
    for (int threads : {1, 8}) {
      const exec::ExecContext ectx(threads);
      for (QueryId id : core::AllQueries()) {
        ASSERT_LT(cell, golden.size());
        const Cost& want = golden[cell++];
        backend->DropCaches();
        backend->disk()->ResetStats();
        (void)backend->Run(id, ctx, ectx);
        EXPECT_EQ(backend->TotalBytesRead(), want.bytes)
            << backend->name() << " " << ToString(id) << " x" << threads;
        EXPECT_EQ(backend->TotalSeeks(), want.seeks)
            << backend->name() << " " << ToString(id) << " x" << threads;
        if (threads == 1) {
          EXPECT_EQ(backend->VirtualSeconds(), want.seconds)
              << backend->name() << " " << ToString(id);
        } else {
          // Lane clocks add the same per-read costs in an order that
          // depends on scheduling, so they agree only up to rounding.
          EXPECT_NEAR(backend->VirtualSeconds(), want.seconds,
                      want.seconds * 1e-12)
              << backend->name() << " " << ToString(id) << " x" << threads;
        }
      }
    }
  }
  exec::SetThreads(1);
  EXPECT_EQ(cell, golden.size());
}

// Backend::Match on the row designs, pinned per pattern at width 1: the
// rows (count and an order-sensitive hash), cold bytes, seeks, virtual
// seconds, buffer-pool misses and page fetches after DropCaches. The
// patterns reach every access path of the row store: a clustered prefix,
// a prefix with a residual constant, a secondary index with one clustered
// row fetch per match, the full-scan fallback for a subject with many
// triples, whole-store scans and absent constants. The second block of
// each design runs after inserts have split leaves and broken the
// bulk-loaded leaf chain. Any change to which pages a scan fetches, or in
// which order, shows up here.
TEST(RowMatchCostTest, ColdMatchIsPinned) {
  struct Cost {
    uint64_t rows;
    uint64_t hash;
    uint64_t bytes;
    uint64_t seeks;
    double seconds;
    uint64_t misses;
    uint64_t fetches;
  };
  // 15 patterns (in `patterns` order) per (design, load state) block.
  const std::vector<Cost> golden = {
      // DBX triple SPO
      {1326, 0x98b05cc4329551ae, 974848, 2, 0x1.cab36f3336e5cp-9, 119, 120},
      {9251, 0x9a34f4fd07db7320, 974848, 2, 0x1.cab36f3336e5cp-9, 119, 120},
      {465, 0xdc80efc4043016ae, 974848, 2, 0x1.cab36f3336e5cp-9, 119, 120},
      {477, 0xf7cbf0a7d47d380d, 974848, 2, 0x1.cab36f3336e5cp-9, 119, 120},
      {19, 0xb72873e62ff5f344, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {1, 0xbfbd881222286b0d, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {1, 0xbfbd881222286b0d, 32768, 4, 0x1.11281fe4bd5ddp-9, 4, 5},
      {1, 0xbfbd881222286b0d, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {12, 0xe2862a07489af289, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {1326, 0x98b05cc4329551ae, 974848, 2, 0x1.cab36f3336e5cp-9, 119, 120},
      {3, 0xe1fa882bf85213a5, 49152, 6, 0x1.99bc2fd71c0cbp-9, 6, 9},
      {3, 0xe1fa882bf85213a5, 49152, 6, 0x1.99bc2fd71c0cbp-9, 6, 9},
      {40000, 0x15ef9ce20f2834ec, 974848, 2, 0x1.cab36f3336e5cp-9, 119, 120},
      {0, 0xcbf29ce484222325, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {0, 0xcbf29ce484222325, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      // DBX triple PSO
      {1326, 0x98b05cc4329551ae, 237568, 2, 0x1.a5d42478d2648p-10, 29, 30},
      {9251, 0x9a34f4fd07db7320, 237568, 2, 0x1.a5d42478d2648p-10, 29, 30},
      {465, 0xdc80efc4043016ae, 49152, 2, 0x1.272ea55002da1p-10, 6, 7},
      {477, 0xf7cbf0a7d47d380d, 49152, 2, 0x1.272ea55002da1p-10, 6, 7},
      {19, 0xb72873e62ff5f344, 974848, 2, 0x1.cab36f3336e5cp-9, 119, 120},
      {1, 0xbfbd881222286b0d, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {1, 0xbfbd881222286b0d, 32768, 4, 0x1.11281fe4bd5ddp-9, 4, 5},
      {1, 0xbfbd881222286b0d, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {12, 0xe2862a07489af289, 974848, 2, 0x1.cab36f3336e5cp-9, 119, 120},
      {1326, 0x98b05cc4329551ae, 974848, 2, 0x1.cab36f3336e5cp-9, 119, 120},
      {3, 0xe1fa882bf85213a5, 49152, 6, 0x1.99bc2fd71c0cbp-9, 6, 9},
      {3, 0xe1fa882bf85213a5, 49152, 6, 0x1.99bc2fd71c0cbp-9, 6, 9},
      {40000, 0xb5fa5779db6cb448, 974848, 2, 0x1.cab36f3336e5cp-9, 119, 120},
      {0, 0xcbf29ce484222325, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {0, 0xcbf29ce484222325, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      // DBX vert. SO
      {1326, 0x98b05cc4329551ae, 163840, 2, 0x1.74457847760cfp-10, 20, 21},
      {9251, 0x9a34f4fd07db7320, 163840, 2, 0x1.74457847760cfp-10, 20, 21},
      {465, 0xdc80efc4043016ae, 32768, 2, 0x1.1c2b629a601bfp-10, 4, 5},
      {477, 0xf7cbf0a7d47d380d, 40960, 2, 0x1.21ad03f5317bp-10, 5, 6},
      {19, 0xb72873e62ff5f344, 1122304, 137, 0x1.245cf222d2adfp-4, 137, 253},
      {1, 0xbfbd881222286b0d, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {1, 0xbfbd881222286b0d, 1122304, 137, 0x1.245cf222d2adfp-4, 137, 253},
      {1, 0xbfbd881222286b0d, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {12, 0xe2862a07489af289, 1122304, 137, 0x1.245cf222d2adfp-4, 137, 253},
      {1326, 0x98b05cc4329551ae, 1646592, 137, 0x1.29de937da40dp-4, 201, 317},
      {3, 0xe1fa882bf85213a5, 1646592, 137, 0x1.29de937da40dp-4, 201, 317},
      {3, 0xe1fa882bf85213a5, 65536, 2, 0x1.3231e805a5983p-10, 8, 9},
      {40000, 0xb5fa5779db6cb448, 1646592, 137, 0x1.29de937da40dp-4, 201, 317},
      {0, 0xcbf29ce484222325, 0, 0, 0x0p+0, 0, 0},
      {0, 0xcbf29ce484222325, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      // DBX prop. table
      {1326, 0x4d1ec90e5ed66cbe, 434176, 3, 0x1.5686d9ca004e5p-9, 53, 54},
      {9251, 0xffe915cf043ab9f6, 434176, 3, 0x1.5686d9ca004e5p-9, 53, 54},
      {465, 0xdc80efc4043016ae, 49152, 2, 0x1.272ea55002da1p-10, 6, 7},
      {477, 0xf7cbf0a7d47d380d, 57344, 2, 0x1.2cb046aad4392p-10, 7, 8},
      {19, 0x1c827a77726200a6, 647168, 7, 0x1.5220744ade601p-8, 79, 90},
      {1, 0xbfbd881222286b0d, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {1, 0xbfbd881222286b0d, 73728, 9, 0x1.334d23e155099p-8, 9, 20},
      {1, 0xbfbd881222286b0d, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {12, 0xe2862a07489af289, 655360, 8, 0x1.74457847760bdp-8, 80, 89},
      {1326, 0x4d1ec90e5ed66cbe, 958464, 3, 0x1.035d829216173p-8, 117, 118},
      {3, 0xe1fa882bf85213a5, 368640, 3, 0x1.4080545ebad25p-9, 45, 46},
      {3, 0xe1fa882bf85213a5, 368640, 3, 0x1.4080545ebad25p-9, 45, 46},
      {40000, 0xa468eeffdbd5ca6, 958464, 3, 0x1.035d829216173p-8, 117, 118},
      {0, 0xcbf29ce484222325, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {0, 0xcbf29ce484222325, 73728, 6, 0x1.a1fea1df561b3p-9, 9, 16},
      // DBX triple SPO, after inserts
      {1365, 0xdab6610a1db8ab7d, 1024000, 6, 0x1.70ae983962d16p-8, 125, 126},
      {9505, 0x176aa8c94cfc229, 1024000, 6, 0x1.70ae983962d16p-8, 125, 126},
      {482, 0x3b3ce82418d9a1a9, 1024000, 6, 0x1.70ae983962d16p-8, 125, 126},
      {489, 0xe56898a26652f01b, 1024000, 6, 0x1.70ae983962d16p-8, 125, 126},
      {19, 0xb72873e62ff5f344, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {1, 0xbfbd881222286b0d, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {1, 0xbfbd881222286b0d, 32768, 4, 0x1.11281fe4bd5ddp-9, 4, 5},
      {1, 0xbfbd881222286b0d, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {12, 0xe2862a07489af289, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {1365, 0xdab6610a1db8ab7d, 1024000, 6, 0x1.70ae983962d16p-8, 125, 126},
      {4, 0xc20c723950033709, 57344, 7, 0x1.de0637d04b642p-9, 7, 11},
      {4, 0xc20c723950033709, 57344, 7, 0x1.de0637d04b642p-9, 7, 11},
      {41097, 0x19d1249af76ce21d, 1024000, 6, 0x1.70ae983962d16p-8, 125, 126},
      {0, 0xcbf29ce484222325, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {0, 0xcbf29ce484222325, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      // DBX triple PSO, after inserts
      {1365, 0xdab6610a1db8ab7d, 245760, 3, 0x1.17341a359889bp-9, 30, 31},
      {9505, 0x176aa8c94cfc229, 245760, 3, 0x1.17341a359889bp-9, 30, 31},
      {482, 0x3b3ce82418d9a1a9, 49152, 3, 0x1.aa4113e79029fp-10, 6, 7},
      {489, 0xe56898a26652f01b, 65536, 5, 0x1.5db499e626c3cp-9, 8, 9},
      {19, 0xb72873e62ff5f344, 1236992, 63, 0x1.1c07fb1eea2dap-5, 151, 152},
      {1, 0xbfbd881222286b0d, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {1, 0xbfbd881222286b0d, 32768, 4, 0x1.11281fe4bd5ddp-9, 4, 5},
      {1, 0xbfbd881222286b0d, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {12, 0xe2862a07489af289, 1236992, 63, 0x1.1c07fb1eea2dap-5, 151, 152},
      {1365, 0xdab6610a1db8ab7d, 1236992, 63, 0x1.1c07fb1eea2dap-5, 151, 152},
      {4, 0xc20c723950033709, 57344, 7, 0x1.de0637d04b642p-9, 7, 11},
      {4, 0xc20c723950033709, 57344, 7, 0x1.de0637d04b642p-9, 7, 11},
      {41097, 0x8d8f29949f57e6fd, 1236992, 63, 0x1.1c07fb1eea2dap-5, 151, 152},
      {0, 0xcbf29ce484222325, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {0, 0xcbf29ce484222325, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      // DBX vert. SO, after inserts
      {1365, 0xdab6610a1db8ab7d, 163840, 2, 0x1.74457847760cfp-10, 20, 21},
      {9505, 0x176aa8c94cfc229, 163840, 2, 0x1.74457847760cfp-10, 20, 21},
      {482, 0x3b3ce82418d9a1a9, 32768, 2, 0x1.1c2b629a601bfp-10, 4, 5},
      {489, 0xe56898a26652f01b, 40960, 2, 0x1.21ad03f5317bp-10, 5, 6},
      {19, 0xb72873e62ff5f344, 1122304, 137, 0x1.245cf222d2adfp-4, 137, 253},
      {1, 0xbfbd881222286b0d, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {1, 0xbfbd881222286b0d, 1122304, 137, 0x1.245cf222d2adfp-4, 137, 253},
      {1, 0xbfbd881222286b0d, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {12, 0xe2862a07489af289, 1122304, 137, 0x1.245cf222d2adfp-4, 137, 253},
      {1365, 0xdab6610a1db8ab7d, 1646592, 137, 0x1.29de937da40dp-4, 201, 317},
      {4, 0xc20c723950033709, 1646592, 137, 0x1.29de937da40dp-4, 201, 317},
      {4, 0xc20c723950033709, 65536, 2, 0x1.3231e805a5983p-10, 8, 9},
      {41097, 0x8d8f29949f57e6fd, 1646592, 137, 0x1.29de937da40dp-4, 201, 317},
      {0, 0xcbf29ce484222325, 0, 0, 0x0p+0, 0, 0},
      {0, 0xcbf29ce484222325, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      // DBX prop. table, after inserts
      {1365, 0x14447e0d617a382d, 450560, 5, 0x1.df1ae9bc5efd3p-9, 55, 56},
      {9505, 0xd36eb100c3f084f, 450560, 5, 0x1.df1ae9bc5efd3p-9, 55, 56},
      {482, 0x3b3ce82418d9a1a9, 49152, 3, 0x1.aa4113e79029fp-10, 6, 7},
      {489, 0xe56898a26652f01b, 65536, 4, 0x1.1c2b629a601bfp-9, 8, 9},
      {19, 0x1c827a77726200a6, 901120, 67, 0x1.255c32357f95dp-5, 110, 121},
      {1, 0xbfbd881222286b0d, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {1, 0xbfbd881222286b0d, 73728, 9, 0x1.334d23e155099p-8, 9, 20},
      {1, 0xbfbd881222286b0d, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {12, 0xe2862a07489af289, 909312, 68, 0x1.29a0d2b5128b4p-5, 111, 120},
      {1365, 0x14447e0d617a382d, 1212416, 63, 0x1.1b83d3fe668ccp-5, 148, 149},
      {4, 0xc20c723950033709, 385024, 5, 0x1.c914645119813p-9, 47, 48},
      {4, 0xc20c723950033709, 385024, 5, 0x1.c914645119813p-9, 47, 48},
      {41097, 0xac9a78ead4ec521, 1212416, 63, 0x1.1b83d3fe668ccp-5, 148, 149},
      {0, 0xcbf29ce484222325, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 3},
      {0, 0xcbf29ce484222325, 73728, 6, 0x1.a1fea1df561b3p-9, 9, 16},
  };
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

  // The subject with the most triples, and one of its triples.
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
  const auto pattern = [](std::optional<uint64_t> s, std::optional<uint64_t> p,
                          std::optional<uint64_t> o) {
    rdf::TriplePattern tp;
    tp.subject = s;
    tp.property = p;
    tp.object = o;
    return tp;
  };
  const std::vector<rdf::TriplePattern> patterns = {
      pattern(std::nullopt, v.type, v.text),
      pattern(std::nullopt, v.type, std::nullopt),
      pattern(std::nullopt, v.origin, v.dlc),
      pattern(std::nullopt, v.language, v.french),
      pattern(hub, std::nullopt, std::nullopt),
      pattern(hub, hub_triple.property, std::nullopt),
      pattern(hub, std::nullopt, hub_triple.object),
      pattern(hub, hub_triple.property, hub_triple.object),
      pattern(v.conferences, std::nullopt, std::nullopt),
      pattern(std::nullopt, std::nullopt, v.text),
      pattern(std::nullopt, std::nullopt, few.object),
      pattern(std::nullopt, few.property, few.object),
      pattern(std::nullopt, std::nullopt, std::nullopt),
      pattern(std::nullopt, absent, std::nullopt),
      pattern(absent, v.type, std::nullopt),
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
  size_t cell = 0;
  for (bool after_inserts : {false, true}) {
    core::RowTripleBackend row_spo(data,
                                   rowstore::TripleRelation::SpoConfig());
    core::RowTripleBackend row_pso(data,
                                   rowstore::TripleRelation::PsoConfig());
    core::RowVerticalBackend row_vert(data);
    core::PropertyTableBackend property_table(data, 4);
    const std::vector<core::Backend*> backends = {&row_spo, &row_pso,
                                                  &row_vert, &property_table};
    if (after_inserts) {
      for (core::Backend* backend : backends) {
        for (const rdf::Triple& t : inserts) {
          ASSERT_TRUE(backend->Insert(t).ok()) << backend->name();
        }
      }
      uint64_t parts = 0;
      row_pso.relation().FullScan(
          exec::ExecContext(8), [&](uint64_t n) { parts = n; },
          [](uint64_t, const auto&) {});
      EXPECT_EQ(parts, 1u);  // the chain is broken: one serial part
    }
    for (core::Backend* backend : backends) {
      const storage::BufferPool* pool = backend->buffer_pool();
      for (size_t i = 0; i < patterns.size(); ++i) {
        backend->DropCaches();
        backend->disk()->ResetStats();
        const uint64_t hits = pool->hits();
        const uint64_t misses = pool->misses();
        const std::vector<rdf::Triple> rows =
            backend->Match(patterns[i], ectx);
        uint64_t hash = 14695981039346656037ull;
        for (const rdf::Triple& t : rows) {
          for (uint64_t id : {t.subject, t.property, t.object}) {
            hash = (hash ^ id) * 1099511628211ull;
          }
        }
        const Cost got{rows.size(),
                       hash,
                       backend->TotalBytesRead(),
                       backend->TotalSeeks(),
                       backend->VirtualSeconds(),
                       pool->misses() - misses,
                       pool->hits() - hits + pool->misses() - misses};
        ASSERT_LT(cell, golden.size());
        const Cost& want = golden[cell++];
        const std::string where = backend->name() + " pattern " +
                                  std::to_string(i) +
                                  (after_inserts ? " after inserts" : "");
        EXPECT_EQ(got.rows, want.rows) << where;
        EXPECT_EQ(got.hash, want.hash) << where;
        EXPECT_EQ(got.bytes, want.bytes) << where;
        EXPECT_EQ(got.seeks, want.seeks) << where;
        EXPECT_EQ(got.seconds, want.seconds) << where;
        EXPECT_EQ(got.misses, want.misses) << where;
        EXPECT_EQ(got.fetches, want.fetches) << where;
      }
    }
  }
  EXPECT_EQ(cell, golden.size());
}

// Backend::Match on the column designs, pinned per pattern at width 1
// like RowMatchCostTest: rows (count and order hash), cold bytes, seeks,
// virtual seconds, pool misses and page fetches after DropCaches. Covers
// the vertical store and the triple store in PSO and SPO order under raw
// and auto codecs, plus the C-Store engine (always auto-compressed, the
// 28 loaded properties only). The patterns bind the subject, the object,
// both, the property alone, nothing (the whole store) and a subject alone
// (describe), plus absent constants. The two column backends repeat them
// with unmerged inserts and tombstoned deletes in the write store, then
// after a merge; the merge itself is pinned as the cold cost of the q1 run
// that triggers it. Any change to which columns a Match reads, in which
// order, or to the rows it returns shows up here.
TEST(ColumnMatchCostTest, ColdMatchIsPinned) {
  struct Cost {
    uint64_t rows;
    uint64_t hash;
    uint64_t bytes;
    uint64_t seeks;
    double seconds;
    uint64_t misses;
    uint64_t fetches;
  };
  // 11 patterns (in `patterns` order) per block; one cell per merge.
  const std::vector<Cost> golden = {
      // C-Store vert. SO
      {6, 0x984200f61ca7b8af, 24576, 2, 0x1.0a46163337a7p-8, 3, 3},
      {19, 0xb72873e62ff5f344, 475136, 56, 0x1.cfbdfd4cbc561p-4, 58, 58},
      {1326, 0x98b05cc4329551ae, 24576, 2, 0x1.0a46163337a7p-8, 3, 3},
      {1326, 0x98b05cc4329551ae, 475136, 56, 0x1.cfbdfd4cbc561p-4, 58, 58},
      {1, 0xbfbd881222286b0d, 16384, 2, 0x1.08e5addc834f4p-8, 2, 2},
      {1, 0xbfbd881222286b0d, 475136, 56, 0x1.cfbdfd4cbc561p-4, 58, 58},
      {9251, 0x9a34f4fd07db7320, 24576, 2, 0x1.0a46163337a7p-8, 3, 3},
      {1588, 0x1133b53afdb63f2, 16384, 2, 0x1.08e5addc834f4p-8, 2, 2},
      {39150, 0x537d38984b88f279, 475136, 56, 0x1.cfbdfd4cbc561p-4, 58, 58},
      {0, 0xcbf29ce484222325, 0, 0, 0x0p+0, 0, 0},
      {0, 0xcbf29ce484222325, 475136, 56, 0x1.cfbdfd4cbc561p-4, 58, 58},
      // MonetDB vert. SO, raw
      {6, 0x984200f61ca7b8af, 163840, 2, 0x1.74457847760cbp-10, 20, 20},
      {19, 0xb72873e62ff5f344, 2310144, 232, 0x1.f365ffdd8acd7p-4, 282, 282},
      {1326, 0x98b05cc4329551ae, 163840, 2, 0x1.74457847760cbp-10, 20, 20},
      {1326, 0x98b05cc4329551ae, 2310144, 232, 0x1.f365ffdd8acd7p-4, 282, 282},
      {1, 0xbfbd881222286b0d, 32768, 2, 0x1.1c2b629a601bfp-10, 4, 4},
      {1, 0xbfbd881222286b0d, 2310144, 232, 0x1.f365ffdd8acd7p-4, 282, 282},
      {9251, 0x9a34f4fd07db7320, 163840, 2, 0x1.74457847760cbp-10, 20, 20},
      {1588, 0x1133b53afdb63f2, 32768, 2, 0x1.1c2b629a601bfp-10, 4, 4},
      {40000, 0xb5fa5779db6cb448, 2310144, 232, 0x1.f365ffdd8acd7p-4, 282, 282},
      {0, 0xcbf29ce484222325, 0, 0, 0x0p+0, 0, 0},
      {0, 0xcbf29ce484222325, 2310144, 232, 0x1.f365ffdd8acd7p-4, 282, 282},
      // MonetDB vert. SO, raw, unmerged writes
      {6, 0x984200f61ca7b8af, 163840, 2, 0x1.74457847760cbp-10, 20, 20},
      {18, 0xe19ff8f61279042e, 2310144, 232, 0x1.f365ffdd8acd7p-4, 282, 282},
      {1326, 0x74dafec59c605cc2, 163840, 2, 0x1.74457847760cbp-10, 20, 20},
      {1326, 0x74dafec59c605cc2, 2310144, 232, 0x1.f365ffdd8acd7p-4, 282, 282},
      {0, 0xcbf29ce484222325, 32768, 2, 0x1.1c2b629a601bfp-10, 4, 4},
      {0, 0xcbf29ce484222325, 2310144, 232, 0x1.f365ffdd8acd7p-4, 282, 282},
      {9239, 0xda6bb38d49de0c7a, 163840, 2, 0x1.74457847760cbp-10, 20, 20},
      {1580, 0x7de4ad7409241234, 32768, 2, 0x1.1c2b629a601bfp-10, 4, 4},
      {39886, 0x3b567e10d16f6de0, 2310144, 232, 0x1.f365ffdd8acd7p-4, 282, 282},
      {0, 0xcbf29ce484222325, 0, 0, 0x0p+0, 0, 0},
      {0, 0xcbf29ce484222325, 2310144, 232, 0x1.f365ffdd8acd7p-4, 282, 282},
      // MonetDB vert. SO, raw, merge + q1
      {30, 0xb985cde0c3da5529, 1327104, 103, 0x1.c1c394d392ca4p-5, 162, 162},
      // MonetDB vert. SO, raw, merged
      {6, 0x984200f61ca7b8af, 163840, 2, 0x1.74457847760cbp-10, 20, 20},
      {18, 0xe19ff8f61279042e, 2310144, 232, 0x1.f365ffdd8acd7p-4, 282, 282},
      {1326, 0x8bcd7aaf31b11960, 163840, 2, 0x1.74457847760cbp-10, 20, 20},
      {1326, 0x8bcd7aaf31b11960, 2310144, 232, 0x1.f365ffdd8acd7p-4, 282, 282},
      {0, 0xcbf29ce484222325, 32768, 2, 0x1.1c2b629a601bfp-10, 4, 4},
      {0, 0xcbf29ce484222325, 2310144, 232, 0x1.f365ffdd8acd7p-4, 282, 282},
      {9239, 0x3200eb331f40f9be, 163840, 2, 0x1.74457847760cbp-10, 20, 20},
      {1580, 0x764c61c64a63bbde, 32768, 2, 0x1.1c2b629a601bfp-10, 4, 4},
      {39886, 0xc7e7c58d4ffc0b44, 2310144, 232, 0x1.f365ffdd8acd7p-4, 282, 282},
      {0, 0xcbf29ce484222325, 0, 0, 0x0p+0, 0, 0},
      {0, 0xcbf29ce484222325, 2310144, 232, 0x1.f365ffdd8acd7p-4, 282, 282},
      // MonetDB triple PSO, raw
      {6, 0x984200f61ca7b8af, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {19, 0xb72873e62ff5f344, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {1326, 0x98b05cc4329551ae, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {1326, 0x98b05cc4329551ae, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {1, 0xbfbd881222286b0d, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {1, 0xbfbd881222286b0d, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {9251, 0x9a34f4fd07db7320, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {1588, 0x1133b53afdb63f2, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {40000, 0xb5fa5779db6cb448, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {0, 0xcbf29ce484222325, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {0, 0xcbf29ce484222325, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      // MonetDB triple PSO, raw, unmerged writes
      {6, 0x984200f61ca7b8af, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {18, 0xe19ff8f61279042e, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {1326, 0x53233a6c95efbffa, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {1326, 0x53233a6c95efbffa, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {0, 0xcbf29ce484222325, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {0, 0xcbf29ce484222325, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {9239, 0x36dfc433609442d6, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {1580, 0x6a01df361a2c5598, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {39886, 0x94bd0e4a1cbb322c, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {0, 0xcbf29ce484222325, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {0, 0xcbf29ce484222325, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      // MonetDB triple PSO, raw, merge + q1
      {30, 0xb985cde0c3da5529, 1622016, 5, 0x1.b467bd4cec82fp-8, 198, 198},
      // MonetDB triple PSO, raw, merged
      {6, 0x984200f61ca7b8af, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {18, 0xe19ff8f61279042e, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {1326, 0x8bcd7aaf31b11960, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {1326, 0x8bcd7aaf31b11960, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {0, 0xcbf29ce484222325, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {0, 0xcbf29ce484222325, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {9239, 0x3200eb331f40f9be, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {1580, 0x764c61c64a63bbde, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {39886, 0xc7e7c58d4ffc0b44, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {0, 0xcbf29ce484222325, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {0, 0xcbf29ce484222325, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      // MonetDB triple SPO, raw
      {6, 0x984200f61ca7b8af, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {19, 0xb72873e62ff5f344, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {1326, 0x98b05cc4329551ae, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {1326, 0x98b05cc4329551ae, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {1, 0xbfbd881222286b0d, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {1, 0xbfbd881222286b0d, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {9251, 0x9a34f4fd07db7320, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {1588, 0x1133b53afdb63f2, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {40000, 0x15ef9ce20f2834ec, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {0, 0xcbf29ce484222325, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {0, 0xcbf29ce484222325, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      // MonetDB triple SPO, raw, unmerged writes
      {6, 0x984200f61ca7b8af, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {18, 0xe19ff8f61279042e, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {1326, 0x53233a6c95efbffa, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {1326, 0x53233a6c95efbffa, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {0, 0xcbf29ce484222325, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {0, 0xcbf29ce484222325, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {9239, 0x36dfc433609442d6, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {1580, 0x6a01df361a2c5598, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {39886, 0xdab798f59f970cc6, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {0, 0xcbf29ce484222325, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      {0, 0xcbf29ce484222325, 983040, 3, 0x1.077ebb96331e7p-8, 120, 120},
      // MonetDB triple SPO, raw, merge + q1
      {30, 0xb985cde0c3da5529, 1622016, 5, 0x1.b467bd4cec82fp-8, 198, 198},
      // MonetDB triple SPO, raw, merged
      {6, 0x984200f61ca7b8af, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {18, 0xe19ff8f61279042e, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {1326, 0x8bcd7aaf31b11960, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {1326, 0x8bcd7aaf31b11960, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {0, 0xcbf29ce484222325, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {0, 0xcbf29ce484222325, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {9239, 0x3200eb331f40f9be, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {1580, 0x764c61c64a63bbde, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {39886, 0x80f64c71db480e9a, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {0, 0xcbf29ce484222325, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      {0, 0xcbf29ce484222325, 958464, 3, 0x1.035d829216173p-8, 117, 117},
      // MonetDB vert. SO, auto
      {6, 0x984200f61ca7b8af, 24576, 2, 0x1.16a9c13f8ebcep-10, 3, 3},
      {19, 0xb72873e62ff5f344, 1916928, 232, 0x1.ef44c6d96dc62p-4, 234, 234},
      {1326, 0x98b05cc4329551ae, 24576, 2, 0x1.16a9c13f8ebcep-10, 3, 3},
      {1326, 0x98b05cc4329551ae, 1916928, 232, 0x1.ef44c6d96dc62p-4, 234, 234},
      {1, 0xbfbd881222286b0d, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 2},
      {1, 0xbfbd881222286b0d, 1916928, 232, 0x1.ef44c6d96dc62p-4, 234, 234},
      {9251, 0x9a34f4fd07db7320, 24576, 2, 0x1.16a9c13f8ebcep-10, 3, 3},
      {1588, 0x1133b53afdb63f2, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 2},
      {40000, 0xb5fa5779db6cb448, 1916928, 232, 0x1.ef44c6d96dc62p-4, 234, 234},
      {0, 0xcbf29ce484222325, 0, 0, 0x0p+0, 0, 0},
      {0, 0xcbf29ce484222325, 1916928, 232, 0x1.ef44c6d96dc62p-4, 234, 234},
      // MonetDB vert. SO, auto, unmerged writes
      {6, 0x984200f61ca7b8af, 24576, 2, 0x1.16a9c13f8ebcep-10, 3, 3},
      {18, 0xe19ff8f61279042e, 1916928, 232, 0x1.ef44c6d96dc62p-4, 234, 234},
      {1326, 0x74dafec59c605cc2, 24576, 2, 0x1.16a9c13f8ebcep-10, 3, 3},
      {1326, 0x74dafec59c605cc2, 1916928, 232, 0x1.ef44c6d96dc62p-4, 234, 234},
      {0, 0xcbf29ce484222325, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 2},
      {0, 0xcbf29ce484222325, 1916928, 232, 0x1.ef44c6d96dc62p-4, 234, 234},
      {9239, 0xda6bb38d49de0c7a, 24576, 2, 0x1.16a9c13f8ebcep-10, 3, 3},
      {1580, 0x7de4ad7409241234, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 2},
      {39886, 0x3b567e10d16f6de0, 1916928, 232, 0x1.ef44c6d96dc62p-4, 234, 234},
      {0, 0xcbf29ce484222325, 0, 0, 0x0p+0, 0, 0},
      {0, 0xcbf29ce484222325, 1916928, 232, 0x1.ef44c6d96dc62p-4, 234, 234},
      // MonetDB vert. SO, auto, merge + q1
      {30, 0xb985cde0c3da5529, 860160, 103, 0x1.b7f4ad69cdd7ep-5, 105, 105},
      // MonetDB vert. SO, auto, merged
      {6, 0x984200f61ca7b8af, 24576, 2, 0x1.16a9c13f8ebcep-10, 3, 3},
      {18, 0xe19ff8f61279042e, 1916928, 232, 0x1.ef44c6d96dc62p-4, 234, 234},
      {1326, 0x8bcd7aaf31b11960, 24576, 2, 0x1.16a9c13f8ebcep-10, 3, 3},
      {1326, 0x8bcd7aaf31b11960, 1916928, 232, 0x1.ef44c6d96dc62p-4, 234, 234},
      {0, 0xcbf29ce484222325, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 2},
      {0, 0xcbf29ce484222325, 1916928, 232, 0x1.ef44c6d96dc62p-4, 234, 234},
      {9239, 0x3200eb331f40f9be, 24576, 2, 0x1.16a9c13f8ebcep-10, 3, 3},
      {1580, 0x764c61c64a63bbde, 16384, 2, 0x1.11281fe4bd5ddp-10, 2, 2},
      {39886, 0xc7e7c58d4ffc0b44, 1916928, 232, 0x1.ef44c6d96dc62p-4, 234, 234},
      {0, 0xcbf29ce484222325, 0, 0, 0x0p+0, 0, 0},
      {0, 0xcbf29ce484222325, 1916928, 232, 0x1.ef44c6d96dc62p-4, 234, 234},
      // MonetDB triple PSO, auto
      {6, 0x984200f61ca7b8af, 139264, 3, 0x1.e6d302ce8f3f7p-10, 17, 17},
      {19, 0xb72873e62ff5f344, 139264, 3, 0x1.e6d302ce8f3f7p-10, 17, 17},
      {1326, 0x98b05cc4329551ae, 139264, 3, 0x1.e6d302ce8f3f9p-10, 17, 17},
      {1326, 0x98b05cc4329551ae, 139264, 3, 0x1.e6d302ce8f3f6p-10, 17, 17},
      {1, 0xbfbd881222286b0d, 139264, 3, 0x1.e6d302ce8f3f7p-10, 17, 17},
      {1, 0xbfbd881222286b0d, 139264, 3, 0x1.e6d302ce8f3f8p-10, 17, 17},
      {9251, 0x9a34f4fd07db7320, 139264, 3, 0x1.e6d302ce8f3f9p-10, 17, 17},
      {1588, 0x1133b53afdb63f2, 139264, 3, 0x1.e6d302ce8f3f9p-10, 17, 17},
      {40000, 0xb5fa5779db6cb448, 139264, 3, 0x1.e6d302ce8f3f7p-10, 17, 17},
      {0, 0xcbf29ce484222325, 139264, 3, 0x1.e6d302ce8f3f9p-10, 17, 17},
      {0, 0xcbf29ce484222325, 139264, 3, 0x1.e6d302ce8f3f7p-10, 17, 17},
      // MonetDB triple PSO, auto, unmerged writes
      {6, 0x984200f61ca7b8af, 139264, 3, 0x1.e6d302ce8f3f7p-10, 17, 17},
      {18, 0xe19ff8f61279042e, 139264, 3, 0x1.e6d302ce8f3f7p-10, 17, 17},
      {1326, 0x53233a6c95efbffa, 139264, 3, 0x1.e6d302ce8f3f9p-10, 17, 17},
      {1326, 0x53233a6c95efbffa, 139264, 3, 0x1.e6d302ce8f3f6p-10, 17, 17},
      {0, 0xcbf29ce484222325, 139264, 3, 0x1.e6d302ce8f3f7p-10, 17, 17},
      {0, 0xcbf29ce484222325, 139264, 3, 0x1.e6d302ce8f3f8p-10, 17, 17},
      {9239, 0x36dfc433609442d6, 139264, 3, 0x1.e6d302ce8f3f9p-10, 17, 17},
      {1580, 0x6a01df361a2c5598, 139264, 3, 0x1.e6d302ce8f3f9p-10, 17, 17},
      {39886, 0x94bd0e4a1cbb322c, 139264, 3, 0x1.e6d302ce8f3f7p-10, 17, 17},
      {0, 0xcbf29ce484222325, 139264, 3, 0x1.e6d302ce8f3f9p-10, 17, 17},
      {0, 0xcbf29ce484222325, 139264, 3, 0x1.e6d302ce8f3f7p-10, 17, 17},
      // MonetDB triple PSO, auto, merge + q1
      {30, 0xb985cde0c3da5529, 229376, 5, 0x1.94c4e772547a2p-9, 28, 28},
      // MonetDB triple PSO, auto, merged
      {6, 0x984200f61ca7b8af, 139264, 3, 0x1.e6d302ce8f3f7p-10, 17, 17},
      {18, 0xe19ff8f61279042e, 139264, 3, 0x1.e6d302ce8f3f7p-10, 17, 17},
      {1326, 0x8bcd7aaf31b11960, 139264, 3, 0x1.e6d302ce8f3f9p-10, 17, 17},
      {1326, 0x8bcd7aaf31b11960, 139264, 3, 0x1.e6d302ce8f3f6p-10, 17, 17},
      {0, 0xcbf29ce484222325, 139264, 3, 0x1.e6d302ce8f3f7p-10, 17, 17},
      {0, 0xcbf29ce484222325, 139264, 3, 0x1.e6d302ce8f3f8p-10, 17, 17},
      {9239, 0x3200eb331f40f9be, 139264, 3, 0x1.e6d302ce8f3f9p-10, 17, 17},
      {1580, 0x764c61c64a63bbde, 139264, 3, 0x1.e6d302ce8f3f9p-10, 17, 17},
      {39886, 0xc7e7c58d4ffc0b44, 139264, 3, 0x1.e6d302ce8f3f7p-10, 17, 17},
      {0, 0xcbf29ce484222325, 139264, 3, 0x1.e6d302ce8f3f9p-10, 17, 17},
      {0, 0xcbf29ce484222325, 139264, 3, 0x1.e6d302ce8f3f7p-10, 17, 17},
      // MonetDB triple SPO, auto
      {6, 0x984200f61ca7b8af, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {19, 0xb72873e62ff5f344, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {1326, 0x98b05cc4329551ae, 163840, 3, 0x1.f757e6df035cap-10, 20, 20},
      {1326, 0x98b05cc4329551ae, 163840, 3, 0x1.f757e6df035c8p-10, 20, 20},
      {1, 0xbfbd881222286b0d, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {1, 0xbfbd881222286b0d, 163840, 3, 0x1.f757e6df035cap-10, 20, 20},
      {9251, 0x9a34f4fd07db7320, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {1588, 0x1133b53afdb63f2, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {40000, 0x15ef9ce20f2834ec, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {0, 0xcbf29ce484222325, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {0, 0xcbf29ce484222325, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      // MonetDB triple SPO, auto, unmerged writes
      {6, 0x984200f61ca7b8af, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {18, 0xe19ff8f61279042e, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {1326, 0x53233a6c95efbffa, 163840, 3, 0x1.f757e6df035cap-10, 20, 20},
      {1326, 0x53233a6c95efbffa, 163840, 3, 0x1.f757e6df035c8p-10, 20, 20},
      {0, 0xcbf29ce484222325, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {0, 0xcbf29ce484222325, 163840, 3, 0x1.f757e6df035cap-10, 20, 20},
      {9239, 0x36dfc433609442d6, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {1580, 0x6a01df361a2c5598, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {39886, 0xdab798f59f970cc6, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {0, 0xcbf29ce484222325, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {0, 0xcbf29ce484222325, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      // MonetDB triple SPO, auto, merge + q1
      {30, 0xb985cde0c3da5529, 286720, 5, 0x1.a80a9c303146cp-9, 35, 35},
      // MonetDB triple SPO, auto, merged
      {6, 0x984200f61ca7b8af, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {18, 0xe19ff8f61279042e, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {1326, 0x8bcd7aaf31b11960, 163840, 3, 0x1.f757e6df035cap-10, 20, 20},
      {1326, 0x8bcd7aaf31b11960, 163840, 3, 0x1.f757e6df035c8p-10, 20, 20},
      {0, 0xcbf29ce484222325, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {0, 0xcbf29ce484222325, 163840, 3, 0x1.f757e6df035cap-10, 20, 20},
      {9239, 0x3200eb331f40f9be, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {1580, 0x764c61c64a63bbde, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {39886, 0x80f64c71db480e9a, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {0, 0xcbf29ce484222325, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
      {0, 0xcbf29ce484222325, 163840, 3, 0x1.f757e6df035cbp-10, 20, 20},
  };
  BartonConfig config;
  config.target_triples = 40000;
  config.seed = 7;
  auto barton = GenerateBarton(config);
  rdf::Dataset& data = barton.dataset;
  const core::QueryContext ctx = MakeBartonContext(data, 28);
  const core::Vocabulary& v = ctx.vocab();

  // The subject with the most triples, and one of its triples.
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
  const auto pattern = [](std::optional<uint64_t> s, std::optional<uint64_t> p,
                          std::optional<uint64_t> o) {
    rdf::TriplePattern tp;
    tp.subject = s;
    tp.property = p;
    tp.object = o;
    return tp;
  };
  const std::vector<rdf::TriplePattern> patterns = {
      pattern(hub, v.type, std::nullopt),
      pattern(hub, std::nullopt, std::nullopt),
      pattern(std::nullopt, v.type, v.text),
      pattern(std::nullopt, std::nullopt, v.text),
      pattern(hub, hub_triple.property, hub_triple.object),
      pattern(hub, std::nullopt, hub_triple.object),
      pattern(std::nullopt, v.type, std::nullopt),
      pattern(std::nullopt, v.language, std::nullopt),
      pattern(std::nullopt, std::nullopt, std::nullopt),
      pattern(std::nullopt, absent, std::nullopt),
      pattern(absent, std::nullopt, std::nullopt),
  };

  const exec::ExecContext ectx(1);
  size_t cell = 0;
  const auto pin = [&](core::Backend* backend, const std::string& where,
                       const auto& op) {
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
    const Cost got{rows.size(),
                   hash,
                   backend->TotalBytesRead(),
                   backend->TotalSeeks(),
                   backend->VirtualSeconds(),
                   pool->misses() - misses,
                   pool->hits() - hits + pool->misses() - misses};
    ASSERT_LT(cell, golden.size()) << where;
    const Cost& want = golden[cell++];
    EXPECT_EQ(got.rows, want.rows) << where;
    EXPECT_EQ(got.hash, want.hash) << where;
    EXPECT_EQ(got.bytes, want.bytes) << where;
    EXPECT_EQ(got.seeks, want.seeks) << where;
    EXPECT_EQ(got.seconds, want.seconds) << where;
    EXPECT_EQ(got.misses, want.misses) << where;
    EXPECT_EQ(got.fetches, want.fetches) << where;
  };
  const auto match_all = [&](core::Backend* backend, const std::string& when) {
    for (size_t i = 0; i < patterns.size(); ++i) {
      pin(backend, backend->name() + " pattern " + std::to_string(i) + when,
          [&] {
            std::vector<std::vector<uint64_t>> rows;
            for (const rdf::Triple& t : backend->Match(patterns[i], ectx)) {
              rows.push_back({t.subject, t.property, t.object});
            }
            return rows;
          });
    }
  };

  core::CStoreBackend cstore(data, ctx.interesting_properties());
  match_all(&cstore, "");
  for (colstore::ColumnCodec codec :
       {colstore::ColumnCodec::kRaw, colstore::ColumnCodec::kAuto}) {
    const std::string tag = ", " + colstore::ToString(codec);
    core::ColVerticalBackend col_vert(data, {}, 4096, codec);
    core::ColTripleBackend col_pso(data, rdf::TripleOrder::kPSO, {}, 4096,
                                   codec);
    core::ColTripleBackend col_spo(data, rdf::TripleOrder::kSPO, {}, 4096,
                                   codec);
    for (core::Backend* backend :
         std::vector<core::Backend*>{&col_vert, &col_pso, &col_spo}) {
      match_all(backend, tag);
      for (const rdf::Triple& t : inserts) {
        ASSERT_TRUE(backend->Insert(t).ok()) << backend->name();
      }
      for (const rdf::Triple& t : deletes) {
        ASSERT_TRUE(backend->Delete(t).ok()) << backend->name();
      }
      match_all(backend, tag + ", unmerged writes");
      pin(backend, backend->name() + tag + " merge", [&] {
        return backend->Run(QueryId::kQ1, ctx, ectx).rows;
      });
      match_all(backend, tag + ", merged");
    }
  }
  EXPECT_EQ(cell, golden.size());
}

// The column engines' modeled cold cost, pinned the same way: bytes, seeks
// and virtual seconds after DropCaches for the vertical scheme and the
// triple store in PSO and SPO order, raw and auto-compressed, at one and
// eight threads. A refactor of the column query path that adds or drops a
// page read, or moves one to another lane, fails here.
TEST(ColumnEngineCostTest, ColdCostIsPinned) {
  struct Cost {
    uint64_t bytes;
    uint64_t seeks;
    double seconds;
  };
  // 12 queries (AllQueries order) per (design, codec, threads) block.
  const std::vector<Cost> golden = {
      // MonetDB vert. SO, raw, 1 thread
      {81920, 1, 0x1.74457847760c6p-11},
      {516096, 29, 0x1.033fd3c848871p-6},
      {1236992, 117, 0x1.f93715bea8a2fp-5},
      {868352, 56, 0x1.ef3b500c19ad6p-6},
      {2310144, 232, 0x1.f365ffdd8acd7p-4},
      {868352, 56, 0x1.ef3b500c19ad6p-6},
      {2310144, 232, 0x1.f365ffdd8acd7p-4},
      {262144, 6, 0x1.e1516173bddfep-9},
      {548864, 30, 0x1.0cd1630875b3dp-6},
      {1269760, 118, 0x1.fdffdd5ebf395p-5},
      {196608, 6, 0x1.cb4adc087863bp-9},
      {2310144, 232, 0x1.f365ffdd8acddp-4},
      // MonetDB vert. SO, raw, 8 threads
      {81920, 1, 0x1.74457847760c6p-11},
      {516096, 29, 0x1.dbcfc018ec814p-9},
      {1236992, 117, 0x1.32bf85f37d50ep-7},
      {868352, 56, 0x1.7ebe62070efe2p-8},
      {2310144, 232, 0x1.1b7b2e6f05f02p-6},
      {868352, 56, 0x1.c5c93aada7051p-8},
      {2310144, 232, 0x1.2d3de498abf1ep-6},
      {262144, 6, 0x1.e1516173bddfep-9},
      {548864, 30, 0x1.3a745a0ddfa6ap-8},
      {1269760, 118, 0x1.5905c2f43203ep-7},
      {196608, 6, 0x1.cb4adc087863bp-9},
      {2310144, 232, 0x1.06f7a797f73edp-6},
      // MonetDB triple PSO, raw, 1 thread
      {655360, 2, 0x1.5f53a4c84428fp-9},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {655360, 2, 0x1.5f53a4c84428fp-9},
      // MonetDB triple PSO, raw, 8 threads
      {655360, 2, 0x1.5f53a4c84428fp-9},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {655360, 2, 0x1.5f53a4c84428fp-9},
      // MonetDB triple SPO, raw, 1 thread
      {655360, 2, 0x1.5f53a4c84428fp-9},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {655360, 2, 0x1.5f53a4c84428fp-9},
      // MonetDB triple SPO, raw, 8 threads
      {655360, 2, 0x1.5f53a4c84428fp-9},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {983040, 3, 0x1.077ebb96331e7p-8},
      {655360, 2, 0x1.5f53a4c84428fp-9},
      // MonetDB vert. SO, auto, 1 thread
      {8192, 1, 0x1.11281fe4bd5ddp-11},
      {245760, 29, 0x1.efc8edf9f1662p-7},
      {966656, 117, 0x1.f389675900b9p-5},
      {475136, 56, 0x1.deb66bfba5905p-6},
      {1916928, 232, 0x1.ef44c6d96dc62p-4},
      {475136, 56, 0x1.deb66bfba5905p-6},
      {1916928, 232, 0x1.ef44c6d96dc62p-4},
      {57344, 6, 0x1.9c7d008484bc3p-9},
      {253952, 30, 0x1.006db7fc1e9ep-6},
      {974848, 118, 0x1.f7ce07d893ae7p-5},
      {57344, 6, 0x1.9c7d008484bc3p-9},
      {1916928, 232, 0x1.ef44c6d96dc63p-4},
      // MonetDB vert. SO, auto, 8 threads
      {8192, 1, 0x1.11281fe4bd5ddp-11},
      {245760, 29, 0x1.9c7d008484bc4p-9},
      {966656, 117, 0x1.22ead60e635fap-7},
      {475136, 56, 0x1.5832f88b5564cp-8},
      {1916928, 232, 0x1.11d854101789dp-6},
      {475136, 56, 0x1.9c7d008484bc4p-8},
      {1916928, 232, 0x1.22ead60e635fbp-6},
      {57344, 6, 0x1.9c7d008484bc3p-9},
      {253952, 30, 0x1.1288883b71b59p-8},
      {974848, 118, 0x1.450fda0afb0b5p-7},
      {57344, 6, 0x1.9c7d008484bc3p-9},
      {1916928, 232, 0x1.006db7fc1e9ep-6},
      // MonetDB triple PSO, auto, 1 thread
      {90112, 2, 0x1.42b6cc1619b56p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {131072, 2, 0x1.5e3ef2dc30909p-10},
      // MonetDB triple PSO, auto, 8 threads
      {90112, 2, 0x1.42b6cc1619b56p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {139264, 3, 0x1.e6d302ce8f3f9p-10},
      {131072, 2, 0x1.5e3ef2dc30909p-10},
      // MonetDB triple SPO, auto, 1 thread
      {122880, 2, 0x1.58bd51815f318p-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {122880, 2, 0x1.58bd51815f318p-10},
      // MonetDB triple SPO, auto, 8 threads
      {122880, 2, 0x1.58bd51815f318p-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {163840, 3, 0x1.f757e6df035cap-10},
      {122880, 2, 0x1.58bd51815f318p-10},
  };
  BartonConfig config;
  config.target_triples = 40000;
  config.seed = 7;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);

  exec::SetThreads(8);
  size_t cell = 0;
  for (colstore::ColumnCodec codec :
       {colstore::ColumnCodec::kRaw, colstore::ColumnCodec::kAuto}) {
    core::ColVerticalBackend col_vert(barton.dataset, {}, 4096, codec);
    core::ColTripleBackend col_pso(barton.dataset, rdf::TripleOrder::kPSO, {},
                                   4096, codec);
    core::ColTripleBackend col_spo(barton.dataset, rdf::TripleOrder::kSPO, {},
                                   4096, codec);
    for (core::Backend* backend :
         std::vector<core::Backend*>{&col_vert, &col_pso, &col_spo}) {
      for (int threads : {1, 8}) {
        const exec::ExecContext ectx(threads);
        for (QueryId id : core::AllQueries()) {
          ASSERT_LT(cell, golden.size());
          const Cost& want = golden[cell++];
          backend->DropCaches();
          backend->disk()->ResetStats();
          (void)backend->Run(id, ctx, ectx);
          EXPECT_EQ(backend->TotalBytesRead(), want.bytes)
              << backend->name() << " " << ToString(id) << " x" << threads;
          EXPECT_EQ(backend->TotalSeeks(), want.seeks)
              << backend->name() << " " << ToString(id) << " x" << threads;
          if (threads == 1) {
            EXPECT_EQ(backend->VirtualSeconds(), want.seconds)
                << backend->name() << " " << ToString(id);
          } else {
            EXPECT_NEAR(backend->VirtualSeconds(), want.seconds,
                        want.seconds * 1e-12)
                << backend->name() << " " << ToString(id) << " x" << threads;
          }
        }
      }
    }
  }
  exec::SetThreads(1);
  EXPECT_EQ(cell, golden.size());
}

}  // namespace
}  // namespace swan
