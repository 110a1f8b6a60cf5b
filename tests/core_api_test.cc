// Coverage for the core API surface: query metadata, vocabulary
// resolution, context semantics, and the RdfStore facade across all
// scheme x engine combinations.

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "bench_support/barton_generator.h"
#include "bench_support/designs.h"
#include "bench_support/harness.h"
#include "core/cstore_backend.h"
#include "core/query.h"
#include "core/store.h"

namespace swan::core {
namespace {

TEST(QueryMetadataTest, AllQueriesInTableOrder) {
  const auto& all = AllQueries();
  ASSERT_EQ(all.size(), 12u);
  EXPECT_EQ(ToString(all.front()), "q1");
  EXPECT_EQ(ToString(all[2]), "q2*");
  EXPECT_EQ(ToString(all.back()), "q8");
}

TEST(QueryMetadataTest, InitialQueriesAreTheSeven) {
  const auto& initial = InitialQueries();
  ASSERT_EQ(initial.size(), 7u);
  for (QueryId id : initial) {
    EXPECT_FALSE(IsStar(id));
    EXPECT_NE(id, QueryId::kQ8);
  }
}

TEST(QueryMetadataTest, StarMapping) {
  EXPECT_TRUE(IsStar(QueryId::kQ2Star));
  EXPECT_FALSE(IsStar(QueryId::kQ2));
  EXPECT_EQ(BaseOf(QueryId::kQ6Star), QueryId::kQ6);
  EXPECT_EQ(BaseOf(QueryId::kQ5), QueryId::kQ5);
}

TEST(QueryMetadataTest, PropertyFilterApplicability) {
  // Per the appendix SQL: only q2/q3/q4/q6 join the "properties" table.
  EXPECT_TRUE(UsesPropertyFilter(QueryId::kQ2));
  EXPECT_TRUE(UsesPropertyFilter(QueryId::kQ4Star));
  EXPECT_FALSE(UsesPropertyFilter(QueryId::kQ1));
  EXPECT_FALSE(UsesPropertyFilter(QueryId::kQ5));
  EXPECT_FALSE(UsesPropertyFilter(QueryId::kQ7));
  EXPECT_FALSE(UsesPropertyFilter(QueryId::kQ8));
}

TEST(QueryMetadataTest, CoverageMatchesTable2) {
  // Spot checks against Table 2 of the paper.
  EXPECT_EQ(CoverageOf(QueryId::kQ1).triple_patterns, (std::vector<int>{7}));
  EXPECT_EQ(CoverageOf(QueryId::kQ1).join_patterns, "-");
  EXPECT_EQ(CoverageOf(QueryId::kQ5).join_patterns, "A, C");
  EXPECT_EQ(CoverageOf(QueryId::kQ8).join_patterns, "B");
  EXPECT_EQ(CoverageOf(QueryId::kQ8).triple_patterns,
            (std::vector<int>{6, 8}));
}

TEST(VocabularyTest, ResolveFailsWithoutTerms) {
  rdf::Dataset empty;
  auto result = Vocabulary::Resolve(empty);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(VocabularyTest, CustomNamesResolve) {
  rdf::Dataset data;
  data.Add("<s>", "<rdf:type>", "<my-text>");
  // Other terms still default; only override what differs.
  VocabularyNames names;
  names.type = "<rdf:type>";
  names.text = "<my-text>";
  auto result = Vocabulary::Resolve(data, names);
  EXPECT_FALSE(result.ok());  // the other defaults are absent
  for (const char* term :
       {"<language>", "<language/iso639-2b/fre>", "<origin>",
        "<info:marcorg/DLC>", "<records>", "<Point>", "\"end\"",
        "<Encoding>", "<conferences>"}) {
    data.Add("<dummy>", "<p>", term);
  }
  // Property terms appear as objects here, but resolution only needs the
  // dictionary entry.
  auto result2 = Vocabulary::Resolve(data, names);
  ASSERT_TRUE(result2.ok()) << result2.status().ToString();
  EXPECT_EQ(result2.value().type, data.dict().Find("<rdf:type>"));
}

TEST(QueryContextTest, DeduplicatesAndSortsInterestingList) {
  Vocabulary vocab;
  QueryContext ctx(vocab, {5, 3, 5, 9, 3}, 100, 10);
  EXPECT_EQ(ctx.interesting_properties(), (std::vector<uint64_t>{3, 5, 9}));
  EXPECT_TRUE(ctx.IsInteresting(5));
  EXPECT_FALSE(ctx.IsInteresting(4));
  EXPECT_FALSE(ctx.FilterCoversAll());
}

TEST(QueryContextTest, FilterCoversAllWhenListCoversEveryProperty) {
  Vocabulary vocab;
  QueryContext ctx(vocab, {1, 2, 3}, 100, 3);
  EXPECT_TRUE(ctx.FilterCoversAll());
}

TEST(QueryResultTest, SameRowsIsBagEquality) {
  QueryResult a, b;
  a.rows = {{1, 2}, {3, 4}, {1, 2}};
  b.rows = {{3, 4}, {1, 2}, {1, 2}};
  EXPECT_TRUE(a.SameRows(b));
  b.rows.pop_back();
  EXPECT_FALSE(a.SameRows(b));
  b.rows.push_back({1, 3});
  EXPECT_FALSE(a.SameRows(b));
}

TEST(QueryResultTest, NormalizeSortsRows) {
  QueryResult r;
  r.rows = {{9}, {1}, {5}};
  r.Normalize();
  EXPECT_EQ(r.rows, (std::vector<std::vector<uint64_t>>{{1}, {5}, {9}}));
}

class StoreComboTest
    : public ::testing::TestWithParam<std::pair<StorageScheme, EngineKind>> {};

TEST_P(StoreComboTest, OpensAndAnswersMatch) {
  bench_support::BartonConfig config;
  config.target_triples = 3000;
  const auto barton = bench_support::GenerateBarton(config);

  StoreOptions options;
  options.scheme = GetParam().first;
  options.engine = GetParam().second;
  auto store = RdfStore::Open(barton.dataset, options);
  EXPECT_FALSE(store->name().empty());
  EXPECT_GT(store->disk_bytes(), 0u);

  rdf::TriplePattern pattern;
  pattern.property = *barton.dataset.dict().Find("<type>");
  EXPECT_FALSE(store->Match(pattern).empty());
  store->DropCaches();
  EXPECT_FALSE(store->Match(pattern).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Combos, StoreComboTest,
    ::testing::Values(
        std::pair{StorageScheme::kTripleStore, EngineKind::kRowStore},
        std::pair{StorageScheme::kTripleStore, EngineKind::kColumnStore},
        std::pair{StorageScheme::kVerticalPartitioned, EngineKind::kRowStore},
        std::pair{StorageScheme::kVerticalPartitioned,
                  EngineKind::kColumnStore},
        std::pair{StorageScheme::kVerticalPartitioned, EngineKind::kCStore}),
    [](const auto& info) {
      std::string name = ToString(info.param.first) + "_" +
                         ToString(info.param.second);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(StoreOptionsTest, SchemeAndEngineNames) {
  EXPECT_EQ(ToString(StorageScheme::kTripleStore), "triple-store");
  EXPECT_EQ(ToString(StorageScheme::kVerticalPartitioned),
            "vertically-partitioned");
  EXPECT_EQ(ToString(EngineKind::kRowStore), "row-store");
  EXPECT_EQ(ToString(EngineKind::kColumnStore), "column-store");
  EXPECT_EQ(ToString(EngineKind::kCStore), "c-store");
}

TEST(StoreOptionsTest, CompressedColumnStoreIsSmallerOnDisk) {
  bench_support::BartonConfig config;
  config.target_triples = 20000;
  const auto barton = bench_support::GenerateBarton(config);

  StoreOptions raw;
  raw.scheme = StorageScheme::kTripleStore;
  raw.engine = EngineKind::kColumnStore;
  StoreOptions packed = raw;
  packed.codec = colstore::ColumnCodec::kAuto;

  auto raw_store = RdfStore::Open(barton.dataset, raw);
  auto packed_store = RdfStore::Open(barton.dataset, packed);
  EXPECT_LT(packed_store->disk_bytes(), raw_store->disk_bytes());
}

// RdfStore::Open builds C-Store on the disk a default-built CStoreBackend
// uses, which forces C-Store's small scattered reads: every cold query it
// runs reads the same bytes with the same seeks and I/O time either way.
TEST(StoreOptionsTest, CStoreOpensOnItsRecommendedDisk) {
  bench_support::BartonConfig config;
  config.target_triples = 20000;
  const auto barton = bench_support::GenerateBarton(config);
  const QueryContext ctx = bench_support::MakeBartonContext(barton.dataset, 28);

  StoreOptions options;
  options.engine = EngineKind::kCStore;
  options.pool_pages = 4096;
  auto store = RdfStore::Open(barton.dataset, options);
  CStoreBackend direct(barton.dataset, barton.dataset.DistinctProperties());

  uint64_t seeks = 0;
  for (QueryId id : InitialQueries()) {
    SCOPED_TRACE(ToString(id));
    const auto via_store =
        bench_support::MeasureCold(&store->backend(), id, ctx, 1);
    const auto via_backend = bench_support::MeasureCold(&direct, id, ctx, 1);
    EXPECT_EQ(via_store.bytes_read, via_backend.bytes_read);
    EXPECT_EQ(via_store.seeks, via_backend.seeks);
    EXPECT_EQ(via_store.io_seconds, via_backend.io_seconds);
    seeks += via_store.seeks;
  }
  EXPECT_GT(seeks, 0u);
}

// Every design of the list opens, reports its fixed label as name(), and
// behaves as its capabilities say: Insert and Delete are Unimplemented
// exactly where they are denied, and Supports() holds for every query
// where all 12 are granted.
TEST(DesignListTest, EveryDesignOpensUnderItsLabelWithItsCapabilities) {
  bench_support::BartonConfig config;
  config.target_triples = 3000;
  auto barton = bench_support::GenerateBarton(config);
  const rdf::Triple existing = barton.dataset.triples().front();
  const rdf::Triple fresh{existing.subject, existing.property,
                          barton.dataset.dict().Intern("\"design-list\"")};

  ASSERT_EQ(bench_support::Designs().size(), 11u);
  for (const bench_support::Design& design : bench_support::Designs()) {
    SCOPED_TRACE(design.label);
    const std::unique_ptr<Backend> backend =
        OpenBackend(barton.dataset, design.options);
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->name(), design.label);
    EXPECT_GT(backend->disk_bytes(), 0u);

    const bench_support::Capabilities caps =
        bench_support::CapabilitiesOf(design.options);
    if (caps.all_queries) {
      for (QueryId id : AllQueries()) EXPECT_TRUE(backend->Supports(id));
    } else {
      EXPECT_FALSE(backend->Supports(QueryId::kQ8));
    }
    EXPECT_EQ(backend->Insert(fresh).code() == StatusCode::kUnimplemented,
              !caps.inserts);
    EXPECT_EQ(backend->Delete(existing).code() == StatusCode::kUnimplemented,
              !caps.deletes);
  }
}

}  // namespace
}  // namespace swan::core
