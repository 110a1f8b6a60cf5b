// The property-table extension: SortedTable storage, the design-wizard
// split into wide table + overflow, and full query equivalence against the
// reference oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bench_support/barton_generator.h"
#include "bench_support/harness.h"
#include "core/property_table_backend.h"
#include "core/reference_backend.h"
#include "core/store.h"
#include "rowstore/sorted_table.h"

namespace swan {
namespace {

// --- SortedTable -----------------------------------------------------------

struct TableFixture {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool{&disk, 1 << 12};  // swan-lint: allow(node-disk)
};

// Rows [first, row_count) as the page walk yields them.
std::vector<std::vector<uint64_t>> Rows(const rowstore::SortedTable& table,
                                        uint64_t first) {
  std::vector<std::vector<uint64_t>> out;
  const uint32_t width = table.row_width();
  table.Walk(first, [&](const uint64_t* rows, uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      out.emplace_back(rows + i * width, rows + (i + 1) * width);
    }
    return true;
  });
  return out;
}

TEST(SortedTableTest, RoundTripsRows) {
  TableFixture f;
  rowstore::SortedTable table(&f.pool, &f.disk, 3);
  std::vector<uint64_t> flat;
  for (uint64_t i = 0; i < 5000; ++i) {
    flat.insert(flat.end(), {i * 2, i + 100, i + 200});
  }
  table.BulkLoad(flat, 5000);
  EXPECT_EQ(table.row_count(), 5000u);

  uint64_t count = 0;
  for (const auto& row : Rows(table, 0)) {
    ASSERT_EQ(row[0], count * 2);
    ASSERT_EQ(row[1], count + 100);
    ++count;
  }
  EXPECT_EQ(count, 5000u);
}

TEST(SortedTableTest, FindRowBinarySearches) {
  TableFixture f;
  rowstore::SortedTable table(&f.pool, &f.disk, 2);
  std::vector<uint64_t> flat;
  for (uint64_t i = 0; i < 1000; ++i) flat.insert(flat.end(), {i * 3, i});
  table.BulkLoad(flat, 1000);

  EXPECT_EQ(table.FindRow(0), 0u);
  EXPECT_EQ(table.FindRow(999 * 3), 999u);
  EXPECT_EQ(table.FindRow(300), 100u);
  EXPECT_FALSE(table.FindRow(301).has_value());
  EXPECT_FALSE(table.FindRow(1000 * 3).has_value());
}

TEST(SortedTableTest, EmptyTable) {
  TableFixture f;
  rowstore::SortedTable table(&f.pool, &f.disk, 4);
  table.BulkLoad({}, 0);
  EXPECT_TRUE(Rows(table, 0).empty());
  EXPECT_FALSE(table.FindRow(7).has_value());
}

TEST(SortedTableTest, WideRowsSpanPagesCorrectly) {
  TableFixture f;
  // 100-column rows: 10 rows per page.
  rowstore::SortedTable table(&f.pool, &f.disk, 100);
  std::vector<uint64_t> flat;
  for (uint64_t i = 0; i < 95; ++i) {
    for (uint64_t c = 0; c < 100; ++c) flat.push_back(i * 1000 + c);
  }
  table.BulkLoad(flat, 95);
  const auto rows = Rows(table, 94);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0][99], 94 * 1000 + 99u);
  EXPECT_EQ(rows.size(), 1u);
}

// --- PropertyTableBackend --------------------------------------------------

class PropertyTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bench_support::BartonConfig config;
    config.target_triples = 20000;
    barton_ = bench_support::GenerateBarton(config);
  }

  bench_support::BartonDataset barton_;
};

TEST_F(PropertyTableTest, WizardPicksMostFrequentProperties) {
  core::PropertyTableBackend backend(barton_.dataset, /*width=*/10);
  EXPECT_EQ(backend.wide_properties().size(), 10u);
  const auto type_id = barton_.dataset.dict().Find("<type>");
  EXPECT_EQ(backend.wide_properties()[0], *type_id);
  // The long tail must have gone to the overflow table.
  EXPECT_GT(backend.overflow_triples(), 0u);
}

TEST_F(PropertyTableTest, MatchAgreesWithReferenceOnAllPatternShapes) {
  core::PropertyTableBackend backend(barton_.dataset, 10);
  core::ReferenceBackend reference(barton_.dataset);
  const auto& dict = barton_.dataset.dict();
  const rdf::Triple probe = barton_.dataset.triples()[17];

  for (int mask = 0; mask < 8; ++mask) {
    rdf::TriplePattern pattern;
    if (mask & 1) pattern.subject = probe.subject;
    if (mask & 2) pattern.property = probe.property;
    if (mask & 4) pattern.object = probe.object;
    auto a = backend.Match(pattern);
    auto b = reference.Match(pattern);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << pattern.ToString();
  }
  // Also with a rare (overflow-only) property bound.
  const auto freqs = barton_.dataset.PropertyFrequencies();
  rdf::TriplePattern rare;
  rare.property = freqs.back().first;
  auto a = backend.Match(rare);
  auto b = reference.Match(rare);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  (void)dict;
}

class PropertyTableWidthTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PropertyTableWidthTest, AllQueriesMatchReferenceAtEveryWidth) {
  bench_support::BartonConfig config;
  config.target_triples = 15000;
  auto barton = bench_support::GenerateBarton(config);
  const auto ctx = bench_support::MakeBartonContext(barton.dataset, 28);

  core::PropertyTableBackend backend(barton.dataset, GetParam());
  core::ReferenceBackend reference(barton.dataset);
  bench_support::VerifyBackendsAgree({&reference, &backend},
                                     core::AllQueries(), ctx);
}

INSTANTIATE_TEST_SUITE_P(Widths, PropertyTableWidthTest,
                         ::testing::Values(1, 5, 20, 50),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "w" + std::to_string(info.param);
                         });

TEST_F(PropertyTableTest, FacadeOpensPropertyTableScheme) {
  core::StoreOptions options;
  options.scheme = core::StorageScheme::kPropertyTable;
  options.engine = core::EngineKind::kRowStore;
  options.property_table_width = 12;
  auto store = core::RdfStore::Open(barton_.dataset, options);
  EXPECT_EQ(store->name(), "DBX prop. table");
  EXPECT_GT(store->disk_bytes(), 0u);

  rdf::TriplePattern pattern;
  pattern.property = *barton_.dataset.dict().Find("<type>");
  EXPECT_FALSE(store->Match(pattern).empty());
}

TEST_F(PropertyTableTest, InsertsGoToOverflow) {
  core::PropertyTableBackend backend(barton_.dataset, 10);
  const uint64_t before = backend.overflow_triples();
  const uint64_t s = barton_.dataset.dict().Intern("<pt-subject>");
  const uint64_t type = *barton_.dataset.dict().Find("<type>");
  const uint64_t text = *barton_.dataset.dict().Find("<Text>");
  // Even a wide-table property lands in the overflow: the flattened rows
  // are immutable without re-running the wizard.
  ASSERT_TRUE(backend.Insert({s, type, text}).ok());
  EXPECT_EQ(backend.overflow_triples(), before + 1);
  rdf::TriplePattern pattern;
  pattern.subject = s;
  ASSERT_EQ(backend.Match(pattern).size(), 1u);
  // Duplicates are rejected against both wide table and overflow.
  EXPECT_EQ(backend.Insert({s, type, text}).code(),
            StatusCode::kAlreadyExists);
  const rdf::Triple existing = barton_.dataset.triples().front();
  EXPECT_EQ(backend.Insert(existing).code(), StatusCode::kAlreadyExists);
}

TEST_F(PropertyTableTest, MultiValuedPropertiesSpillToOverflow) {
  rdf::Dataset data;
  data.Add("<s>", "<p>", "<o1>");
  data.Add("<s>", "<p>", "<o2>");
  data.Add("<s>", "<p>", "<o3>");
  data.Add("<s2>", "<p>", "<o1>");
  core::PropertyTableBackend backend(data, 5);
  // One value per subject fits the wide table; two spill.
  EXPECT_EQ(backend.overflow_triples(), 2u);
  rdf::TriplePattern pattern;
  pattern.subject = *data.dict().Find("<s>");
  EXPECT_EQ(backend.Match(pattern).size(), 3u);
}

}  // namespace
}  // namespace swan
