#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_support/designs.h"
#include "core/bgp.h"
#include "core/reference_backend.h"
#include "plan/physical.h"
#include "plan/stats.h"
#include "rdf/dataset.h"
#include "sparql/sparql.h"

namespace swan::sparql {
namespace {

class SparqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_.Add("<http://ex.org/alice>", "<http://ex.org/knows>",
              "<http://ex.org/bob>");
    data_.Add("<http://ex.org/bob>", "<http://ex.org/knows>",
              "<http://ex.org/carol>");
    data_.Add("<http://ex.org/alice>", "<http://ex.org/age>", "\"30\"");
    data_.Add("<http://ex.org/bob>", "<http://ex.org/age>", "\"30\"");
    data_.Add("<http://ex.org/carol>", "<http://ex.org/age>", "\"25\"");
    backend_ = bench_support::OpenDesign(data_, "MonetDB vert. SO");
  }

  // Cost-based over the statistics of data_ as it is now.
  Result<QueryOutput> Run(const core::Backend& backend,
                          const std::string& query) const {
    const plan::StoreStats stats = plan::StoreStats::Collect(data_);
    return Execute(backend, data_, query, exec::ExecContext(), &stats);
  }
  Result<QueryOutput> Run(const std::string& query) const {
    return Run(*backend_, query);
  }

  rdf::Dataset data_;
  std::unique_ptr<core::Backend> backend_;
};

TEST_F(SparqlTest, ParsesMinimalQuery) {
  auto parsed = Parse("SELECT ?s WHERE { ?s <p> ?o }");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().projection, (std::vector<std::string>{"s"}));
  ASSERT_EQ(parsed.value().branches.size(), 1u);
  const auto& patterns = parsed.value().branches[0].required.patterns;
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].property.text, "<p>");
}

TEST_F(SparqlTest, ParsesStarDistinctAndLimit) {
  auto parsed =
      Parse("SELECT DISTINCT * WHERE { ?s ?p ?o . } LIMIT 5");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value().distinct);
  EXPECT_TRUE(parsed.value().projection.empty());
  EXPECT_EQ(parsed.value().limit, 5u);
}

TEST_F(SparqlTest, KeywordsAreCaseInsensitive) {
  auto parsed = Parse("select ?s where { ?s ?p ?o } limit 1");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
}

TEST_F(SparqlTest, ExpandsPrefixedNames) {
  auto parsed = Parse(
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?x WHERE { ?x ex:knows ?y }");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().branches[0].required.patterns[0].property.text,
            "<http://ex.org/knows>");
}

TEST_F(SparqlTest, RejectsUndeclaredPrefix) {
  auto parsed = Parse("SELECT ?x WHERE { ?x foaf:knows ?y }");
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("foaf"), std::string::npos);
}

TEST_F(SparqlTest, RejectsUnsupportedConstructs) {
  // FILTER/OPTIONAL/UNION are supported, but every group still needs at
  // least one required triple pattern, nesting is rejected, and UNION
  // branches must be braced.
  EXPECT_FALSE(Parse("SELECT ?x WHERE { FILTER(?x > 3) }").ok());
  EXPECT_FALSE(Parse("SELECT ?x WHERE { OPTIONAL { ?x <p> ?y } }").ok());
  EXPECT_FALSE(
      Parse("SELECT ?x WHERE { ?x <p> ?y . "
            "OPTIONAL { ?x <q> ?z . OPTIONAL { ?z <r> ?w } } }")
          .ok());
  EXPECT_FALSE(
      Parse("SELECT ?x WHERE { ?x <p> ?y UNION ?x <q> ?y }").ok());
}

TEST_F(SparqlTest, ParsesFilterOptionalUnionOffset) {
  auto parsed = Parse(
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?x WHERE {\n"
      "  { ?x ex:knows ?y . FILTER(?y != ex:carol)\n"
      "    OPTIONAL { ?y ex:age ?a . FILTER(?a >= 30) } }\n"
      "  UNION { ?x ex:age ?v . FILTER(?v IN (\"25\", \"30\")) }\n"
      "} OFFSET 1 LIMIT 10");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().branches.size(), 2u);
  EXPECT_EQ(parsed.value().branches[0].required.filters.size(), 1u);
  ASSERT_EQ(parsed.value().branches[0].optionals.size(), 1u);
  EXPECT_EQ(parsed.value().branches[0].optionals[0].filters.size(), 1u);
  EXPECT_EQ(parsed.value().branches[1].required.filters[0].op, "IN");
  EXPECT_EQ(parsed.value().offset, 1u);
  EXPECT_EQ(parsed.value().limit, 10u);
}

TEST_F(SparqlTest, FilterComparesNumericLiterals) {
  // Ages are literals like "30"; numeric comparison reads their lexical
  // form as a number.
  auto result = Run(
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?who WHERE { ?who ex:age ?a . FILTER(?a < 30) }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(TermText(data_, result.value().rows[0][0]),
            "<http://ex.org/carol>");
}

TEST_F(SparqlTest, FilterNotEqualsAndIn) {
  auto ne = Run(
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?x WHERE { ?x ex:knows ?y . FILTER(?y != ex:bob) }");
  ASSERT_TRUE(ne.ok()) << ne.status().ToString();
  ASSERT_EQ(ne.value().rows.size(), 1u);
  EXPECT_EQ(TermText(data_, ne.value().rows[0][0]), "<http://ex.org/bob>");
  auto in = Run(
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?x WHERE { ?x ex:age ?v . FILTER(?v IN (\"25\")) }");
  ASSERT_TRUE(in.ok()) << in.status().ToString();
  ASSERT_EQ(in.value().rows.size(), 1u);
  EXPECT_EQ(TermText(data_, in.value().rows[0][0]), "<http://ex.org/carol>");
}

TEST_F(SparqlTest, FilterAgainstUnknownTermIsNotAnError) {
  // ex:nobody is not in the dictionary: equal to nothing, unequal to
  // every bound value.
  auto eq = Run(
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?x WHERE { ?x ex:knows ?y . FILTER(?y = ex:nobody) }");
  ASSERT_TRUE(eq.ok()) << eq.status().ToString();
  EXPECT_TRUE(eq.value().rows.empty());
  auto ne = Run(
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?x WHERE { ?x ex:knows ?y . FILTER(?y != ex:nobody) }");
  ASSERT_TRUE(ne.ok()) << ne.status().ToString();
  EXPECT_EQ(ne.value().rows.size(), 2u);
}

TEST_F(SparqlTest, OptionalPadsNonMatchesWithEmptyBinding) {
  data_.Add("<http://ex.org/dave>", "<http://ex.org/knows>",
            "<http://ex.org/alice>");  // dave has no age
  backend_ = bench_support::OpenDesign(data_, "MonetDB vert. SO");
  auto result = Run(
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?x ?a WHERE { ?x ex:knows ?y . "
      "OPTIONAL { ?x ex:age ?a } }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 3u);  // alice, bob, dave
  size_t padded = 0;
  for (const auto& row : result.value().rows) {
    if (row[1] == plan::kUnbound) {
      ++padded;
      EXPECT_EQ(TermText(data_, row[1]), "");
      EXPECT_EQ(TermText(data_, row[0]), "<http://ex.org/dave>");
    }
  }
  EXPECT_EQ(padded, 1u);
}

// A branch FILTER over a variable only an OPTIONAL binds runs after the
// optional: it keeps the rows whose optional binding passes and drops the
// padded ones, instead of emptying the branch.
TEST_F(SparqlTest, FilterOnOptionalVariableRunsAfterTheOptional) {
  data_.Add("<http://ex.org/dave>", "<http://ex.org/knows>",
            "<http://ex.org/alice>");  // dave has no age
  backend_ = bench_support::OpenDesign(data_, "MonetDB vert. SO");
  auto result = Run(
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?x WHERE { ?x ex:knows ?y . "
      "OPTIONAL { ?x ex:age ?a } FILTER(?a = \"30\") }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<std::string> names;
  for (const auto& row : result.value().rows) {
    names.push_back(TermText(data_, row[0]));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"<http://ex.org/alice>",
                                             "<http://ex.org/bob>"}));
}

TEST_F(SparqlTest, TermTextDecodesIdsAndUnboundIsEmpty) {
  const uint64_t bob = data_.dict().Find("<http://ex.org/bob>").value();
  EXPECT_EQ(TermText(data_, bob), "<http://ex.org/bob>");
  EXPECT_EQ(TermText(data_, plan::kUnbound), "");
}

TEST_F(SparqlTest, UnionConcatenatesBranches) {
  auto result = Run(
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?x WHERE { { ?x ex:age \"25\" } UNION "
      "{ ?x ex:knows ex:carol } }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 2u);
  std::vector<std::string> names;
  for (const auto& row : result.value().rows) {
    names.push_back(TermText(data_, row[0]));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"<http://ex.org/bob>",
                                             "<http://ex.org/carol>"}));
}

TEST_F(SparqlTest, OffsetSkipsRows) {
  auto all = Run("SELECT * WHERE { ?s ?p ?o }");
  ASSERT_TRUE(all.ok());
  auto sliced = Run("SELECT * WHERE { ?s ?p ?o } OFFSET 2 LIMIT 2");
  ASSERT_TRUE(sliced.ok());
  ASSERT_EQ(sliced.value().rows.size(), 2u);
  EXPECT_EQ(sliced.value().rows[0], all.value().rows[2]);
  auto past_end = Run("SELECT * WHERE { ?s ?p ?o } OFFSET 100");
  ASSERT_TRUE(past_end.ok());
  EXPECT_TRUE(past_end.value().rows.empty());
}

TEST_F(SparqlTest, ResultVarsFollowTextualOrder) {
  // Regression: the result header must list variables in order of first
  // textual appearance, not the planner's chosen join order.
  auto result = Run(
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT * WHERE { ?a ex:knows ?b . ?b ex:age ?v }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().vars, (std::vector<std::string>{"a", "b", "v"}));
}

TEST_F(SparqlTest, CanonicalTextUppercasesKeywordsOnly) {
  // Regression: lower/mixed-case keywords used to miss the serve-layer
  // result cache because canonicalization kept their casing.
  EXPECT_EQ(CanonicalQueryText("select distinct ?s where { ?s <p> ?o }"),
            CanonicalQueryText("SELECT DISTINCT ?s WHERE { ?s <p> ?o }"));
  EXPECT_EQ(CanonicalQueryText("select ?s where { ?s <p> ?o } limit 2"),
            "SELECT ?s WHERE { ?s <p> ?o } LIMIT 2");
  // IRIs, literals, prefixed names and variables stay verbatim even when
  // they spell a keyword.
  EXPECT_EQ(CanonicalQueryText("SELECT ?s WHERE { ?s <select> \"where\" }"),
            "SELECT ?s WHERE { ?s <select> \"where\" }");
  EXPECT_EQ(
      CanonicalQueryText("PREFIX where: <http://x/> SELECT ?limit WHERE "
                         "{ ?limit where:union ?o }"),
      "PREFIX where: <http://x/> SELECT ?limit WHERE "
      "{ ?limit where:union ?o }");
}

TEST_F(SparqlTest, CanonicalTextFollowsTheLexer) {
  // A prefixed name and a language tag are single tokens, copied verbatim
  // even when they spell a keyword.
  EXPECT_EQ(
      CanonicalQueryText("PREFIX : <x:> SELECT ?s WHERE { ?s :select ?o }"),
      "PREFIX : <x:> SELECT ?s WHERE { ?s :select ?o }");
  EXPECT_NE(CanonicalQueryText("SELECT ?s WHERE { ?s <p> \"chat\"@in }"),
            CanonicalQueryText("SELECT ?s WHERE { ?s <p> \"chat\"@IN }"));
  // Adjacent tokens stay adjacent; a comment separates like whitespace.
  EXPECT_EQ(CanonicalQueryText("select ?s where{?s <p> ?o}#c\nlimit 1"),
            "SELECT ?s WHERE{?s <p> ?o} LIMIT 1");
  // Text the lexer rejects comes back trimmed.
  EXPECT_EQ(CanonicalQueryText("  SELECT ?s WHERE { ?s <p> \"open }  "),
            "SELECT ?s WHERE { ?s <p> \"open }");
}

TEST_F(SparqlTest, ErrorsCarryPositions) {
  auto parsed = Parse("SELECT ?x\nWHERE ?x <p> ?y }");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("2:"), std::string::npos);
}

TEST_F(SparqlTest, RejectsLiteralSubject) {
  EXPECT_FALSE(Parse("SELECT ?x WHERE { \"lit\" <p> ?x }").ok());
}

TEST_F(SparqlTest, RejectsProjectionOfUnboundVariable) {
  auto result = Run("SELECT ?nope WHERE { ?s ?p ?o }");
  EXPECT_FALSE(result.ok());
  // Lowering rejects it too, so EXPLAIN fails where Execute fails.
  auto parsed = Parse("SELECT ?nope WHERE { ?s ?p ?o }");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(BuildLogicalPlan(parsed.value(), data_).ok());
}

TEST_F(SparqlTest, ExecutesSingleTriplePattern) {
  auto result = Run(
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?who WHERE { ?who ex:age \"30\" }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 2u);
  std::vector<std::string> names;
  for (const auto& row : result.value().rows) {
    names.push_back(TermText(data_, row[0]));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"<http://ex.org/alice>",
                                             "<http://ex.org/bob>"}));
}

TEST_F(SparqlTest, ExecutesJoin) {
  auto result = Run(
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?a ?c WHERE { ?a ex:knows ?b . ?b ex:knows ?c . }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(TermText(data_, result.value().rows[0][0]),
            "<http://ex.org/alice>");
  EXPECT_EQ(TermText(data_, result.value().rows[0][1]),
            "<http://ex.org/carol>");
}

TEST_F(SparqlTest, DistinctDeduplicates) {
  // Without DISTINCT: one row per (x, y) age pairing with equal ages.
  auto plain = Run(
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?v WHERE { ?x ex:age ?v . ?y ex:age ?v . }");
  ASSERT_TRUE(plain.ok());
  auto distinct = Run(
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT DISTINCT ?v WHERE { ?x ex:age ?v . ?y ex:age ?v . }");
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(plain.value().rows.size(), 5u);     // 2x2 for "30", 1 for "25"
  EXPECT_EQ(distinct.value().rows.size(), 2u);  // "30", "25"
}

TEST_F(SparqlTest, LimitTruncates) {
  auto result = Run("SELECT * WHERE { ?s ?p ?o } LIMIT 2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 2u);
}

TEST_F(SparqlTest, UnknownConstantYieldsEmptyResult) {
  auto result = Run("SELECT ?s WHERE { ?s <http://ex.org/unseen> ?o }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().rows.empty());
  EXPECT_EQ(result.value().vars, (std::vector<std::string>{"s"}));
}

TEST_F(SparqlTest, SelectStarUsesFirstAppearanceOrder) {
  auto result = Run(
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT * WHERE { ?a ex:knows ?b }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().vars, (std::vector<std::string>{"a", "b"}));
}

TEST_F(SparqlTest, CommentsAreIgnored)  {
  auto result = Run(
      "# find friends\nSELECT ?a WHERE { ?a <http://ex.org/knows> ?b # inline\n }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().rows.size(), 2u);
}

TEST_F(SparqlTest, SameAnswersOnEveryBackend) {
  core::ReferenceBackend reference(data_);
  const char* query =
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT DISTINCT ?x ?v WHERE { ?x ex:knows ?y . ?x ex:age ?v }";
  auto a = Run(query);
  auto b = Run(reference, query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto key = [](QueryOutput out) {
    std::sort(out.rows.begin(), out.rows.end());
    return out.rows;
  };
  EXPECT_EQ(key(a.value()), key(b.value()));
}

// The scan leaves of a lowered plan, in textual order.
void CollectScans(const plan::LogicalNode& node,
                  std::vector<const plan::LogicalNode*>* scans) {
  if (node.op == plan::LogicalOp::kScan) scans->push_back(&node);
  for (const auto& child : node.children) CollectScans(*child, scans);
}

TEST_F(SparqlTest, BuildLogicalPlanResolvesConstantsAgainstDictionary) {
  auto parsed = Parse(
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?x WHERE { ?x ex:knows ex:bob }");
  ASSERT_TRUE(parsed.ok());
  auto logical = BuildLogicalPlan(parsed.value(), data_);
  ASSERT_TRUE(logical.ok()) << logical.status().ToString();
  std::vector<const plan::LogicalNode*> scans;
  CollectScans(*logical.value().root, &scans);
  ASSERT_EQ(scans.size(), 1u);
  EXPECT_FALSE(scans[0]->unsatisfiable);
  const plan::BgpPattern& pattern = scans[0]->pattern;
  EXPECT_TRUE(pattern.subject.is_var);
  EXPECT_FALSE(pattern.property.is_var);
  EXPECT_EQ(pattern.property.id,
            data_.dict().Find("<http://ex.org/knows>").value());
  EXPECT_EQ(pattern.object.id,
            data_.dict().Find("<http://ex.org/bob>").value());
}

TEST_F(SparqlTest, BuildLogicalPlanMarksUnknownConstantsUnsatisfiable) {
  auto parsed = Parse("SELECT ?x WHERE { ?x <http://nowhere/p> ?y }");
  ASSERT_TRUE(parsed.ok());
  auto logical = BuildLogicalPlan(parsed.value(), data_);
  ASSERT_TRUE(logical.ok()) << logical.status().ToString();
  std::vector<const plan::LogicalNode*> scans;
  CollectScans(*logical.value().root, &scans);
  ASSERT_EQ(scans.size(), 1u);
  EXPECT_TRUE(scans[0]->unsatisfiable);
}

TEST_F(SparqlTest, LanguageTaggedLiteralRoundTrips) {
  data_.Add("<http://ex.org/alice>", "<http://ex.org/motto>",
            "\"carpe diem\"@la");
  core::ReferenceBackend reference(data_);
  auto result =
      Run(reference,
          "SELECT ?s WHERE { ?s <http://ex.org/motto> \"carpe diem\"@la }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().rows.size(), 1u);
}

// --- Scan filters --------------------------------------------------------

// `=`/`IN` filters the planner pushes into a step's scan must answer as
// the same filters applied to the binding table after the step: every
// case runs its pushed plan and the same plan with each pushed filter put
// back as a residual FILTER, on every engine, and checks the answer it
// must give.
class ScanFilterSemanticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const auto& [s, lang] :
         std::vector<std::pair<std::string, std::string>>{
             {"<s1>", "<fre>"}, {"<s2>", "<eng>"},
             {"<s3>", "<ger>"}, {"<s4>", "<fre>"}}) {
      data_.Add(s, "<language>", lang);
    }
    data_.Add("<s1>", "<type>", "<Text>");
    data_.Add("<s2>", "<type>", "<Text>");
    data_.Add("<s5>", "<type>", "<Text>");
    data_.Add("<s3>", "<type>", "<Image>");
    data_.Add("<s1>", "<age>", "\"30\"");
    data_.Add("<s2>", "<age>", "\"30.0\"");
    data_.Add("<s3>", "<age>", "\"25\"");
    data_.Add("<s4>", "<age>", "<eng>");
    stats_ = plan::StoreStats::Collect(data_);
    backends_ = bench_support::OpenDesigns(data_);
    backends_.insert(backends_.begin(),
                     std::make_unique<core::ReferenceBackend>(data_));
  }

  uint64_t Id(const std::string& term) const {
    return data_.dict().Find(term).value();
  }

  plan::PhysicalPlan PlanOf(const core::Backend& backend,
                            const std::string& query) const {
    auto parsed = Parse(query);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto logical = BuildLogicalPlan(parsed.value(), data_);
    EXPECT_TRUE(logical.ok()) << logical.status().ToString();
    return core::PlanQuery(backend, logical.value(),
                           plan::PlannerOptions{plan::PlanMode::kCostBased,
                                                &stats_,
                                                backend.PlannerHints()},
                           exec::ExecContext(1));
  }

  // Every pushed filter back on its step as `?var IN (ids)`.
  static void Unpush(plan::PhysPipeline* pipeline) {
    for (plan::PhysStep& step : pipeline->steps) {
      const plan::Term* terms[3] = {&step.pattern.subject,
                                    &step.pattern.property,
                                    &step.pattern.object};
      std::vector<std::string> done;
      for (int c = 0; c < 3; ++c) {
        const rdf::ScanFilter& f = step.scan_filter.at(c);
        if (f.all() || std::count(done.begin(), done.end(), terms[c]->var)) {
          continue;
        }
        plan::FilterExpr residual;
        residual.var = terms[c]->var;
        residual.op = plan::FilterOp::kIn;
        for (uint64_t id : f.ids()) {
          plan::FilterOperand v;
          v.id = id;
          residual.values.push_back(v);
        }
        step.filters.push_back(residual);
        done.push_back(terms[c]->var);
      }
      step.scan_filter = rdf::PatternFilter{};
    }
    for (plan::PhysPipeline& optional : pipeline->optionals) {
      Unpush(&optional);
    }
  }

  static std::vector<std::vector<uint64_t>> Rows(
      const core::Backend& backend, const plan::PhysicalPlan& physical) {
    auto result = core::ExecutePlan(backend, physical, exec::ExecContext(1));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::vector<uint64_t>> rows = result.value().rows;
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  // Runs `query` pushed and unpushed on every backend; both must equal
  // `want` (sorted binding rows over the plan's variables). `check_plan`
  // inspects the pushed plan.
  void Expect(const std::string& query,
              std::vector<std::vector<uint64_t>> want,
              const std::function<void(const plan::PhysicalPlan&)>&
                  check_plan) {
    SCOPED_TRACE(query);
    std::sort(want.begin(), want.end());
    for (const auto& backend : backends_) {
      SCOPED_TRACE(backend->name());
      const plan::PhysicalPlan pushed = PlanOf(*backend, query);
      check_plan(pushed);
      plan::PhysicalPlan unpushed = pushed;
      for (plan::PhysPipeline& branch : unpushed.branches) Unpush(&branch);
      EXPECT_EQ(Rows(*backend, pushed), want);
      EXPECT_EQ(Rows(*backend, unpushed), want);
    }
  }

  static const plan::PhysStep& OnlyStep(const plan::PhysicalPlan& p) {
    EXPECT_EQ(p.branches.size(), 1u);
    EXPECT_EQ(p.branches[0].steps.size(), 1u);
    return p.branches[0].steps[0];
  }

  rdf::Dataset data_;
  plan::StoreStats stats_;
  std::vector<std::unique_ptr<core::Backend>> backends_;
};

TEST_F(ScanFilterSemanticsTest, NumericOperandStaysResidual) {
  // 30 compares by value: "30" and "30.0" both pass, so the list cannot
  // become dictionary ids.
  Expect("SELECT ?s ?v WHERE { ?s <age> ?v FILTER(?v IN (30, <eng>)) }",
         {{Id("<s1>"), Id("\"30\"")},
          {Id("<s2>"), Id("\"30.0\"")},
          {Id("<s4>"), Id("<eng>")}},
         [](const plan::PhysicalPlan& p) {
           const plan::PhysStep& step = OnlyStep(p);
           EXPECT_TRUE(step.scan_filter.all());
           EXPECT_EQ(step.filters.size(), 1u);
         });
}

TEST_F(ScanFilterSemanticsTest, AbsentTermDropsOutOfTheList) {
  Expect("SELECT ?s ?o WHERE { ?s <language> ?o "
         "FILTER(?o IN (<fre>, <nowhere>)) }",
         {{Id("<s1>"), Id("<fre>")}, {Id("<s4>"), Id("<fre>")}},
         [&](const plan::PhysicalPlan& p) {
           const plan::PhysStep& step = OnlyStep(p);
           EXPECT_TRUE(step.filters.empty());
           EXPECT_EQ(step.scan_filter.object.ids(),
                     std::vector<uint64_t>{Id("<fre>")});
         });
  // Only absent terms: the list is empty and matches nothing.
  Expect("SELECT ?s ?o WHERE { ?s <language> ?o FILTER(?o = <nowhere>) }", {},
         [](const plan::PhysicalPlan& p) {
           const plan::PhysStep& step = OnlyStep(p);
           EXPECT_FALSE(step.scan_filter.object.all());
           EXPECT_TRUE(step.scan_filter.object.ids().empty());
         });
}

TEST_F(ScanFilterSemanticsTest, VariableOperandStaysResidual) {
  std::vector<std::vector<uint64_t>> want;
  for (const char* a : {"<s1>", "<s4>"}) {
    for (const char* b : {"<s1>", "<s4>"}) {
      want.push_back({Id(a), Id("<fre>"), Id(b), Id("<fre>")});
    }
  }
  want.push_back({Id("<s2>"), Id("<eng>"), Id("<s2>"), Id("<eng>")});
  want.push_back({Id("<s3>"), Id("<ger>"), Id("<s3>"), Id("<ger>")});
  Expect("SELECT * WHERE { ?s <language> ?o . ?t <language> ?q "
         "FILTER(?o IN (?q)) }",
         want, [](const plan::PhysicalPlan& p) {
           for (const plan::PhysStep& step : p.branches.at(0).steps) {
             EXPECT_TRUE(step.scan_filter.all());
           }
         });
}

TEST_F(ScanFilterSemanticsTest, RepeatedValueIsListedOnce) {
  Expect("SELECT ?s ?o WHERE { ?s <language> ?o "
         "FILTER(?o IN (<fre>, <eng>, <fre>)) }",
         {{Id("<s1>"), Id("<fre>")},
          {Id("<s2>"), Id("<eng>")},
          {Id("<s4>"), Id("<fre>")}},
         [&](const plan::PhysicalPlan& p) {
           std::vector<uint64_t> ids = {Id("<fre>"), Id("<eng>")};
           std::sort(ids.begin(), ids.end());
           EXPECT_EQ(OnlyStep(p).scan_filter.object.ids(), ids);
         });
}

TEST_F(ScanFilterSemanticsTest, InsideOptionalFailingRowsArePadded) {
  Expect("SELECT ?s ?o WHERE { ?s <type> <Text> "
         "OPTIONAL { ?s <language> ?o FILTER(?o IN (<fre>)) } }",
         {{Id("<s1>"), Id("<fre>")},
          {Id("<s2>"), plan::kUnbound},
          {Id("<s5>"), plan::kUnbound}},
         [&](const plan::PhysicalPlan& p) {
           const auto& optionals = p.branches.at(0).optionals;
           ASSERT_EQ(optionals.size(), 1u);
           ASSERT_EQ(optionals[0].steps.size(), 1u);
           EXPECT_EQ(optionals[0].steps[0].scan_filter.object.ids(),
                     std::vector<uint64_t>{Id("<fre>")});
         });
}

TEST_F(ScanFilterSemanticsTest, PropertyWithoutPartitionMatchesNothing) {
  // <fre> is a term of the store but no property: no partition to open.
  Expect("SELECT ?s ?p ?o WHERE { ?s ?p ?o "
         "FILTER(?p IN (<fre>, <type>)) }",
         {{Id("<s1>"), Id("<type>"), Id("<Text>")},
          {Id("<s2>"), Id("<type>"), Id("<Text>")},
          {Id("<s5>"), Id("<type>"), Id("<Text>")},
          {Id("<s3>"), Id("<type>"), Id("<Image>")}},
         [&](const plan::PhysicalPlan& p) {
           EXPECT_EQ(OnlyStep(p).scan_filter.property.ids().size(), 2u);
         });
}

TEST_F(ScanFilterSemanticsTest, EqualityIsPushed) {
  Expect("SELECT ?s ?o WHERE { ?s <language> ?o FILTER(?o = <fre>) }",
         {{Id("<s1>"), Id("<fre>")}, {Id("<s4>"), Id("<fre>")}},
         [&](const plan::PhysicalPlan& p) {
           const plan::PhysStep& step = OnlyStep(p);
           EXPECT_TRUE(step.filters.empty());
           EXPECT_EQ(step.scan_filter.object.ids(),
                     std::vector<uint64_t>{Id("<fre>")});
         });
}

TEST_F(ScanFilterSemanticsTest, ExplainShowsThePushedFilterOnItsStep) {
  const plan::PhysicalPlan p = PlanOf(
      *backends_[1],
      "SELECT ?s ?o WHERE { ?s <type> <Text> . ?s <language> ?o "
      "FILTER(?o IN (<eng>, <fre>)) }");
  const std::string text = plan::ExplainText(p, [&](uint64_t id) {
    return std::string(data_.dict().Lookup(id));
  });
  const std::string want = Id("<fre>") < Id("<eng>")
                               ? "scan ?o IN (<fre>, <eng>)"
                               : "scan ?o IN (<eng>, <fre>)";
  const size_t step = text.find("extend (?s <language> ?o)");
  ASSERT_NE(step, std::string::npos) << text;
  const size_t next_line = text.find('\n', step) + 1;
  EXPECT_EQ(text.compare(next_line, want.size() + 4, "    " + want), 0)
      << text;
  EXPECT_EQ(text.find("FILTER("), std::string::npos) << text;
}

// A pushed `=` or IN list counts in the planner's estimates: the step
// estimates the sum of its listed ids' matches, as if each were the
// constant, and so do the extent a scan-join weighs and the steps after
// it. EXPLAIN prints the same estimates for `?o = <fre>` as for <fre>.
TEST_F(ScanFilterSemanticsTest, ExplainEstimatesCountThePushedList) {
  const auto explain = [&](const plan::PhysicalPlan& p) {
    return plan::ExplainText(p, [&](uint64_t id) {
      return std::string(data_.dict().Lookup(id));
    });
  };
  const auto estimates = [&](const std::string& query) {
    const std::string text = explain(PlanOf(*backends_[1], query));
    const size_t at = text.find("(est ");
    EXPECT_NE(at, std::string::npos) << text;
    return text.substr(at, text.find('\n', at) - at);
  };
  EXPECT_EQ(
      estimates("SELECT ?s ?o WHERE { ?s <language> ?o FILTER(?o = <fre>) }"),
      estimates("SELECT ?s WHERE { ?s <language> <fre> }"));

  // <language> holds 4 rows over 3 objects: 4/3 estimated rows per id.
  const double per_id =
      stats_.EstimateMatches(std::nullopt, Id("<language>"), Id("<fre>"));
  EXPECT_DOUBLE_EQ(per_id, 4.0 / 3.0);
  const plan::PhysicalPlan in =
      PlanOf(*backends_[1],
             "SELECT ?s ?o WHERE { ?s <language> ?o "
             "FILTER(?o IN (<eng>, <fre>)) }");
  const plan::PhysStep& step = OnlyStep(in);
  EXPECT_DOUBLE_EQ(step.est_matches, 2 * per_id);
  EXPECT_DOUBLE_EQ(step.est_out, 2 * per_id);
  EXPECT_DOUBLE_EQ(step.extent, 2 * per_id);
  EXPECT_NE(explain(in).find("(est 2.7 rows, 2.7 matches/probe, extent 2.7)"),
            std::string::npos)
      << explain(in);

  // The join after the filtered step starts from its filtered estimate.
  const auto est_rows = [&](const std::string& query) {
    return PlanOf(*backends_[1], query).branches.at(0).est_rows;
  };
  const double filtered = est_rows(
      "SELECT ?s ?o ?t WHERE { ?s <language> ?o . ?s <type> ?t "
      "FILTER(?o = <fre>) }");
  EXPECT_DOUBLE_EQ(
      filtered,
      est_rows("SELECT ?s ?t WHERE { ?s <language> <fre> . ?s <type> ?t }"));
  EXPECT_LT(filtered, est_rows("SELECT ?s ?o ?t WHERE { ?s <language> ?o . "
                               "?s <type> ?t }"));
}

}  // namespace
}  // namespace swan::sparql
