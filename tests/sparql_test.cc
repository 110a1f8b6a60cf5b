#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/col_backends.h"
#include "core/reference_backend.h"
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
    backend_ = std::make_unique<core::ColVerticalBackend>(data_);
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
  std::unique_ptr<core::ColVerticalBackend> backend_;
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
  backend_ = std::make_unique<core::ColVerticalBackend>(data_);
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

}  // namespace
}  // namespace swan::sparql
