#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/bgp.h"
#include "core/col_backends.h"
#include "core/reference_backend.h"
#include "core/row_backends.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"
#include "plan/optimizer.h"
#include "plan/stats.h"
#include "rdf/dataset.h"

namespace swan::core {
namespace {

// Parallel BGP execution must be invisible: the binding-extension batches
// concatenate in batch order, so the rows come out in exactly the serial
// sequence at every thread count, on every backend.
class BgpParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A social graph big enough that the intermediate binding tables
    // exceed the per-batch grain and actually fan out: 64 people in a
    // knows-ring (each knows the next two), with one of three ages.
    constexpr int kPeople = 64;
    auto person = [](int i) { return "<p" + std::to_string(i) + ">"; };
    const char* ages[] = {"\"25\"", "\"30\"", "\"35\""};
    for (int i = 0; i < kPeople; ++i) {
      data_.Add(person(i), "<knows>", person((i + 1) % kPeople));
      data_.Add(person(i), "<knows>", person((i + 2) % kPeople));
      data_.Add(person(i), "<age>", ages[i % 3]);
    }
    stats_ = plan::StoreStats::Collect(data_);
    exec::SetThreads(8);
  }

  // The repo-wide default width is 1; restore it for the other suites.
  void TearDown() override { exec::SetThreads(1); }

  uint64_t Id(const std::string& term) const {
    return data_.dict().Find(term).value();
  }

  plan::PlannerOptions Options(
      const Backend& backend,
      plan::PlanMode mode = plan::PlanMode::kCostBased) const {
    return {mode, &stats_, backend.PlannerHints()};
  }

  // The two-hop query: ?x knows ?y . ?y knows ?z . ?z age ?a — three
  // extension steps, the later ones over hundreds of binding rows.
  std::vector<BgpPattern> TwoHopQuery() const {
    return {{Term::Var("x"), Term::Const(Id("<knows>")), Term::Var("y")},
            {Term::Var("y"), Term::Const(Id("<knows>")), Term::Var("z")},
            {Term::Var("z"), Term::Const(Id("<age>")), Term::Var("a")}};
  }

  // Exact-equality check (vars and row order, not just the sorted set):
  // order preservation is part of the contract, whether a step runs as a
  // scan-join (as the cost-based plan chooses here) or probes every
  // binding row in batches (the as-written plan).
  void ExpectIdenticalAcrossWidths(const Backend& backend) {
    const auto query = TwoHopQuery();
    for (plan::PlanMode mode :
         {plan::PlanMode::kCostBased, plan::PlanMode::kAsWritten}) {
      SCOPED_TRACE(backend.name() + " " + plan::ToString(mode));
      const exec::ExecContext serial(1);
      auto reference =
          ExecuteBgp(backend, query, serial, Options(backend, mode));
      ASSERT_TRUE(reference.ok());
      EXPECT_EQ(reference.value().rows.size(), 4u * 64u);
      for (int width : {2, 8}) {
        const exec::ExecContext ectx(width);
        auto result = ExecuteBgp(backend, query, ectx, Options(backend, mode));
        ASSERT_TRUE(result.ok()) << "width " << width;
        EXPECT_EQ(result.value().vars, reference.value().vars)
            << "width " << width;
        EXPECT_EQ(result.value().rows, reference.value().rows)
            << "width " << width;
      }
    }
  }

  rdf::Dataset data_;
  plan::StoreStats stats_;
};

TEST_F(BgpParallelTest, PlanOrderBreaksTiesByJoinedVariables) {
  // Both candidate second patterns have one constant; the one sharing ?a
  // with the seed (two matches per bound ?a) must beat the disconnected
  // one (all 128 <knows> triples per row).
  const std::vector<BgpPattern> patterns = {
      {Term::Var("c"), Term::Const(Id("<knows>")), Term::Var("d")},
      {Term::Var("a"), Term::Const(Id("<age>")), Term::Const(Id("\"25\""))},
      {Term::Var("a"), Term::Const(Id("<knows>")), Term::Var("b")}};
  ColVerticalBackend backend(data_);
  const plan::PhysicalPlan physical =
      plan::Optimize(plan::BuildBgpLogical(patterns), Options(backend));
  std::vector<size_t> order;
  for (const auto& step : physical.branches.at(0).steps) {
    order.push_back(step.source_index);
  }
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 0u);
}

TEST_F(BgpParallelTest, RowTripleBackendIdenticalAcrossWidths) {
  RowTripleBackend backend(data_, rowstore::TripleRelation::PsoConfig());
  ExpectIdenticalAcrossWidths(backend);
}

TEST_F(BgpParallelTest, RowVerticalBackendIdenticalAcrossWidths) {
  RowVerticalBackend backend(data_);
  ExpectIdenticalAcrossWidths(backend);
}

TEST_F(BgpParallelTest, ColTripleBackendIdenticalAcrossWidths) {
  ColTripleBackend backend(data_, rdf::TripleOrder::kPSO);
  ExpectIdenticalAcrossWidths(backend);
}

TEST_F(BgpParallelTest, ColVerticalBackendIdenticalAcrossWidths) {
  ColVerticalBackend backend(data_);
  ExpectIdenticalAcrossWidths(backend);
}

TEST_F(BgpParallelTest, ReferenceBackendIdenticalAcrossWidths) {
  ReferenceBackend backend(data_);
  ExpectIdenticalAcrossWidths(backend);
}

// Batches split probing steps, so this runs the as-written plan, which
// probes every step (the cost-based one scan-joins here).
TEST_F(BgpParallelTest, ParallelContextRecordsBatchesAndMatchCalls) {
  ColVerticalBackend backend(data_);
  const auto query = TwoHopQuery();
  const plan::PlannerOptions options =
      Options(backend, plan::PlanMode::kAsWritten);

  const exec::ExecContext serial(1);
  auto serial_result = ExecuteBgp(backend, query, serial, options);
  ASSERT_TRUE(serial_result.ok());
  EXPECT_EQ(serial.counters().bgp_batches.load(), 0u);

  const exec::ExecContext parallel(8);
  auto parallel_result = ExecuteBgp(backend, query, parallel, options);
  ASSERT_TRUE(parallel_result.ok());
  EXPECT_GT(parallel.counters().bgp_batches.load(), 0u);
  // The same logical work: one Match per binding row per step, regardless
  // of how the rows were batched.
  EXPECT_EQ(parallel.counters().match_calls.load(),
            serial.counters().match_calls.load());
}

TEST_F(BgpParallelTest, WidthBeyondGlobalBudgetStillCorrect) {
  // A context wider than the global thread budget is clamped, never wrong.
  exec::SetThreads(2);
  ColVerticalBackend backend(data_);
  const auto query = TwoHopQuery();
  auto a = ExecuteBgp(backend, query, exec::ExecContext(1), Options(backend));
  auto b = ExecuteBgp(backend, query, exec::ExecContext(16), Options(backend));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().rows, b.value().rows);
}

}  // namespace
}  // namespace swan::core
