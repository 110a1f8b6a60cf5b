// Property test at the system level: all scheme × engine combinations must
// return identical rows for every benchmark query, on generated Barton-like
// datasets of several scales and seeds, both with restricted and full
// property lists, and cold as well as hot.

#include <gtest/gtest.h>

#include <memory>
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
