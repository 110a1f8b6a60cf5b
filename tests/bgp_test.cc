#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/bgp.h"
#include "core/col_backends.h"
#include "core/reference_backend.h"
#include "core/row_backends.h"
#include "core/store.h"
#include "plan/optimizer.h"
#include "plan/stats.h"
#include "rdf/dataset.h"

namespace swan::core {
namespace {

class BgpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    //  alice knows bob, bob knows carol, carol knows alice
    //  alice age "30", bob age "30", carol age "25"
    data_.Add("<alice>", "<knows>", "<bob>");
    data_.Add("<bob>", "<knows>", "<carol>");
    data_.Add("<carol>", "<knows>", "<alice>");
    data_.Add("<alice>", "<age>", "\"30\"");
    data_.Add("<bob>", "<age>", "\"30\"");
    data_.Add("<carol>", "<age>", "\"25\"");
  }

  uint64_t Id(const std::string& term) const {
    return data_.dict().Find(term).value();
  }

  // Cost-based over the statistics of data_ as it is now.
  Result<BgpResult> Run(const Backend& backend,
                        const std::vector<BgpPattern>& patterns) const {
    const plan::StoreStats stats = plan::StoreStats::Collect(data_);
    return ExecuteBgp(backend, patterns, exec::ExecContext(),
                      plan::PlannerOptions{plan::PlanMode::kCostBased, &stats,
                                           backend.PlannerHints()});
  }

  // The planner's cost-based join order, read off the physical plan: each
  // step's source_index names the input pattern it executes.
  std::vector<size_t> PlanOrder(const std::vector<BgpPattern>& patterns) const {
    const plan::StoreStats stats = plan::StoreStats::Collect(data_);
    const plan::PhysicalPlan physical =
        plan::Optimize(plan::BuildBgpLogical(patterns),
                       plan::PlannerOptions{plan::PlanMode::kCostBased, &stats,
                                            ColVerticalBackend(data_)
                                                .PlannerHints()});
    std::vector<size_t> order;
    for (const auto& step : physical.branches.at(0).steps) {
      order.push_back(step.source_index);
    }
    return order;
  }

  rdf::Dataset data_;
};

TEST_F(BgpTest, SinglePatternAllVariables) {
  ColVerticalBackend backend(data_);
  auto result = Run(
      backend, {{Term::Var("s"), Term::Var("p"), Term::Var("o")}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 6u);
  EXPECT_EQ(result.value().vars, (std::vector<std::string>{"s", "p", "o"}));
}

TEST_F(BgpTest, JoinPatternA_SharedSubject) {
  // ?x knows ?y . ?x age "30"  -> alice, bob
  ColVerticalBackend backend(data_);
  auto result = Run(
      backend,
      {{Term::Var("x"), Term::Const(Id("<knows>")), Term::Var("y")},
       {Term::Var("x"), Term::Const(Id("<age>")), Term::Const(Id("\"30\""))}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 2u);
}

TEST_F(BgpTest, JoinPatternC_PathOfLengthTwo) {
  // ?x knows ?y . ?y knows ?z  (object-subject chain)
  ColVerticalBackend backend(data_);
  auto result = Run(
      backend, {{Term::Var("x"), Term::Const(Id("<knows>")), Term::Var("y")},
                {Term::Var("y"), Term::Const(Id("<knows>")), Term::Var("z")}});
  ASSERT_TRUE(result.ok());
  // The knows-cycle of length 3 gives 3 two-step paths.
  EXPECT_EQ(result.value().rows.size(), 3u);
}

TEST_F(BgpTest, JoinPatternB_SharedObject) {
  // ?x age ?a . ?y age ?a  -> all (x, y) with equal age: 4 with "30"
  // (alice/alice, alice/bob, bob/alice, bob/bob) + 1 with "25".
  ColVerticalBackend backend(data_);
  auto result = Run(
      backend, {{Term::Var("x"), Term::Const(Id("<age>")), Term::Var("a")},
                {Term::Var("y"), Term::Const(Id("<age>")), Term::Var("a")}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 5u);
}

TEST_F(BgpTest, RepeatedVariableWithinPattern) {
  // ?x knows ?x -> nobody knows themselves here.
  ColVerticalBackend backend(data_);
  auto result = Run(
      backend, {{Term::Var("x"), Term::Const(Id("<knows>")), Term::Var("x")}});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().rows.empty());

  data_.Add("<narcissus>", "<knows>", "<narcissus>");
  ColVerticalBackend backend2(data_);
  auto result2 = Run(
      backend2, {{Term::Var("x"), Term::Const(Id("<knows>")), Term::Var("x")}});
  ASSERT_TRUE(result2.ok());
  EXPECT_EQ(result2.value().rows.size(), 1u);
}

TEST_F(BgpTest, EmptyBgpIsInvalid) {
  ColVerticalBackend backend(data_);
  auto result = Run(backend, {});
  EXPECT_FALSE(result.ok());
}

TEST_F(BgpTest, UnnamedVariableIsInvalid) {
  ColVerticalBackend backend(data_);
  auto result =
      Run(backend, {{Term::Var(""), Term::Var("p"), Term::Var("o")}});
  EXPECT_FALSE(result.ok());
}

TEST_F(BgpTest, NoMatchesYieldsEmptyRows) {
  ColVerticalBackend backend(data_);
  auto result = Run(
      backend, {{Term::Var("x"), Term::Const(Id("<age>")), Term::Var("a")},
                {Term::Var("x"), Term::Const(Id("<knows>")),
                 Term::Const(Id("\"25\""))}});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().rows.empty());
}

TEST_F(BgpTest, AllBackendsGiveSameBindingCount) {
  const std::vector<BgpPattern> query = {
      {Term::Var("x"), Term::Const(Id("<knows>")), Term::Var("y")},
      {Term::Var("y"), Term::Const(Id("<age>")), Term::Var("a")}};

  ColTripleBackend spo(data_, rdf::TripleOrder::kSPO);
  ColTripleBackend pso(data_, rdf::TripleOrder::kPSO);
  ColVerticalBackend vert(data_);
  RowTripleBackend row_spo(data_, rowstore::TripleRelation::SpoConfig());
  RowVerticalBackend row_vert(data_);

  std::vector<size_t> counts;
  for (Backend* backend : std::initializer_list<Backend*>{
           &spo, &pso, &vert, &row_spo, &row_vert}) {
    auto result = Run(*backend, query);
    ASSERT_TRUE(result.ok());
    auto rows = result.value().rows;
    std::sort(rows.begin(), rows.end());
    counts.push_back(rows.size());
  }
  for (size_t c : counts) EXPECT_EQ(c, counts[0]);
  EXPECT_EQ(counts[0], 3u);
}

TEST_F(BgpTest, PlanOrderPutsMostBoundPatternFirst) {
  // (?x age "30") is estimated at 1.5 matches, (?x knows ?y) at 3.
  const std::vector<BgpPattern> patterns = {
      {Term::Var("x"), Term::Const(Id("<knows>")), Term::Var("y")},
      {Term::Var("x"), Term::Const(Id("<age>")), Term::Const(Id("\"30\""))}};
  const auto order = PlanOrder(patterns);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 0u);
}

TEST_F(BgpTest, PlanOrderPrefersConnectedPatterns) {
  // After the seed pattern about ?a, the ?a-connected pattern (one match
  // per bound ?a) should come before the disconnected ?c one (three).
  const std::vector<BgpPattern> patterns = {
      {Term::Var("c"), Term::Const(Id("<knows>")), Term::Var("d")},
      {Term::Var("a"), Term::Const(Id("<age>")), Term::Const(Id("\"30\""))},
      {Term::Var("a"), Term::Const(Id("<knows>")), Term::Var("b")}};
  const auto order = PlanOrder(patterns);
  EXPECT_EQ(order[0], 1u);  // most selective
  EXPECT_EQ(order[1], 2u);  // joins on ?a
  EXPECT_EQ(order[2], 0u);  // cartesian-ish pattern last
}

TEST_F(BgpTest, ReorderingDoesNotChangeResults) {
  // Same query written in two textual orders: identical binding sets.
  ColVerticalBackend backend(data_);
  const BgpPattern knows = {Term::Var("x"), Term::Const(Id("<knows>")),
                            Term::Var("y")};
  const BgpPattern age = {Term::Var("y"), Term::Const(Id("<age>")),
                          Term::Var("v")};
  auto forward = Run(backend, {knows, age});
  auto reversed = Run(backend, {age, knows});
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(reversed.ok());
  auto canonical = [](const BgpResult& r) {
    // Rows keyed by variable name so column order is irrelevant.
    std::vector<std::vector<std::pair<std::string, uint64_t>>> rows;
    for (const auto& row : r.rows) {
      std::vector<std::pair<std::string, uint64_t>> named;
      for (size_t c = 0; c < r.vars.size(); ++c) {
        named.emplace_back(r.vars[c], row[c]);
      }
      std::sort(named.begin(), named.end());
      rows.push_back(std::move(named));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(canonical(forward.value()), canonical(reversed.value()));
  EXPECT_EQ(forward.value().rows.size(), 3u);
}

TEST_F(BgpTest, FacadeExecutesBgp) {
  StoreOptions options;
  options.scheme = StorageScheme::kVerticalPartitioned;
  options.engine = EngineKind::kColumnStore;
  auto store = RdfStore::Open(data_, options);
  auto result = store->ExecuteBgp(
      {{Term::Var("x"), Term::Const(Id("<knows>")), Term::Var("y")}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 3u);
  EXPECT_GT(store->disk_bytes(), 0u);
  EXPECT_EQ(store->name(), "MonetDB vert. SO");
}

TEST_F(BgpTest, MatchCoversAllEightPatterns) {
  // Every backend must answer all 8 simple triple patterns of Figure 2.
  ColTripleBackend pso(data_, rdf::TripleOrder::kPSO);
  RowTripleBackend row(data_, rowstore::TripleRelation::PsoConfig());
  ColVerticalBackend vert(data_);

  const uint64_t s = Id("<alice>");
  const uint64_t p = Id("<knows>");
  const uint64_t o = Id("<bob>");
  for (int mask = 0; mask < 8; ++mask) {
    rdf::TriplePattern pattern;
    if (mask & 1) pattern.subject = s;
    if (mask & 2) pattern.property = p;
    if (mask & 4) pattern.object = o;
    auto a = pso.Match(pattern);
    auto b = row.Match(pattern);
    auto c = vert.Match(pattern);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::sort(c.begin(), c.end());
    EXPECT_EQ(a, b) << pattern.ToString();
    EXPECT_EQ(a, c) << pattern.ToString();
    EXPECT_FALSE(a.empty()) << pattern.ToString();
  }
}

// --- Run-time probe-or-scan join -----------------------------------------

// A graph where one pass over an extent beats probing per binding row:
// 40 people typed <Person>, each knowing the next two, the even ones
// owning a named pet, plus one mutual pair, one self-loop and one named
// non-pet.
class ScanJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    constexpr int kPeople = 40;
    auto person = [](int i) { return "<p" + std::to_string(i) + ">"; };
    for (int i = 0; i < kPeople; ++i) {
      data_.Add(person(i), "<type>", "<Person>");
      data_.Add(person(i), "<knows>", person((i + 1) % kPeople));
      data_.Add(person(i), "<knows>", person((i + 2) % kPeople));
      if (i % 2 == 0) {
        const std::string pet = "<d" + std::to_string(i) + ">";
        data_.Add(person(i), "<pet>", pet);
        data_.Add(pet, "<name>", "\"dog " + std::to_string(i) + "\"");
      }
    }
    data_.Add(person(1), "<knows>", person(0));  // mutual with p0 -> p1
    data_.Add(person(0), "<knows>", person(0));  // the only self-loop
    data_.Add(person(1), "<name>", "\"Bob\"");
    stats_ = plan::StoreStats::Collect(data_);
  }

  Term C(const std::string& term) const {
    return Term::Const(data_.dict().Find(term).value());
  }

  struct Run {
    std::vector<std::vector<uint64_t>> rows;  // sorted
    uint64_t match_calls = 0;
    uint64_t scan_joins = 0;
  };

  // Cost-based on `backend` when `cost`, else the as-written plan, which
  // never annotates an extent and so only probes.
  Run Execute(const Backend& backend, const plan::LogicalPlan& logical,
              int width, bool cost) const {
    plan::PlannerOptions options{plan::PlanMode::kCostBased, &stats_,
                                 backend.PlannerHints()};
    if (!cost) options.mode = plan::PlanMode::kAsWritten;
    const exec::ExecContext ectx(width);
    auto result = ExecutePlan(backend, plan::Optimize(logical, options), ectx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    Run run;
    if (result.ok()) run.rows = std::move(result.value().rows);
    std::sort(run.rows.begin(), run.rows.end());
    run.match_calls = ectx.counters().Snap().match_calls;
    run.scan_joins = ectx.counters().Snap().star_gathers;
    return run;
  }

  // Runs `logical` cost-based on a column and a row engine at widths 1
  // and 8 against the probing plan on the reference backend, expecting
  // `scan_joins` scan-join steps and `match_calls` Match calls.
  void ExpectScanJoin(const plan::LogicalPlan& logical, uint64_t scan_joins,
                      uint64_t match_calls, size_t rows) const {
    ReferenceBackend reference(data_);
    const Run expected = Execute(reference, logical, 1, /*cost=*/false);
    EXPECT_EQ(expected.scan_joins, 0u);
    EXPECT_EQ(expected.rows.size(), rows);
    ColVerticalBackend col(data_);
    RowTripleBackend row(data_, rowstore::TripleRelation::PsoConfig());
    for (const Backend* backend : {static_cast<const Backend*>(&col),
                                   static_cast<const Backend*>(&row)}) {
      for (int width : {1, 8}) {
        SCOPED_TRACE(backend->name() + " width " + std::to_string(width));
        const Run got = Execute(*backend, logical, width, /*cost=*/true);
        EXPECT_EQ(got.rows, expected.rows);
        EXPECT_EQ(got.scan_joins, scan_joins);
        EXPECT_EQ(got.match_calls, match_calls);
      }
    }
  }

  rdf::Dataset data_;
  plan::StoreStats stats_;
};

// ?x <type> <Person> OPTIONAL { ?x <pet> ?d } OPTIONAL { ?d <name> ?n }:
// the second optional's subject is kUnbound in the 20 rows without a pet.
// Its scan-join must probe those rows one by one — a padded variable is
// free again, so each matches every <name> triple — exactly as the
// probing plan does.
TEST_F(ScanJoinTest, UnboundSubjectInsideOptionalFallsBackToProbe) {
  plan::LogicalPlan logical;
  logical.root = plan::MakeLeftJoin(
      plan::MakeLeftJoin(
          plan::MakeScan({Term::Var("x"), C("<type>"), C("<Person>")}),
          plan::MakeScan({Term::Var("x"), C("<pet>"), Term::Var("d")})),
      plan::MakeScan({Term::Var("d"), C("<name>"), Term::Var("n")}));
  // type + one scan-join per optional + one probe per petless row; each
  // petless row binds ?d to every one of the 21 named subjects.
  ExpectScanJoin(logical, /*scan_joins=*/2, /*match_calls=*/3 + 20,
                 /*rows=*/20 + 20 * 21);
}

// ?x <knows> ?y . ?y <knows> ?x: the scan-join reads <knows> once and must
// check the already-bound ?x against every extent row of ?y.
TEST_F(ScanJoinTest, AlreadyBoundObjectVariableIsChecked) {
  const plan::LogicalPlan logical = plan::BuildBgpLogical(
      {{Term::Var("x"), C("<knows>"), Term::Var("y")},
       {Term::Var("y"), C("<knows>"), Term::Var("x")}});
  // (p0, p0), (p0, p1), (p1, p0).
  ExpectScanJoin(logical, /*scan_joins=*/1, /*match_calls=*/2, /*rows=*/3);
}

// ?x <type> <Person> . (?x <knows> ?x): subject and object are one
// variable, so only a self-loop survives the join.
TEST_F(ScanJoinTest, RepeatedVariableWithinScanJoinedPattern) {
  const plan::LogicalPlan logical = plan::BuildBgpLogical(
      {{Term::Var("x"), C("<type>"), C("<Person>")},
       {Term::Var("x"), C("<knows>"), Term::Var("x")}});
  ExpectScanJoin(logical, /*scan_joins=*/1, /*match_calls=*/2, /*rows=*/1);
}

}  // namespace
}  // namespace swan::core
