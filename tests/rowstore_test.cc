#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/id_hash.h"
#include "common/random.h"
#include "exec/thread_pool.h"
#include "plan/stats.h"
#include "rdf/dataset.h"
#include "rowstore/stats.h"
#include "rowstore/triple_relation.h"
#include "rowstore/vertical_relation.h"

namespace swan::rowstore {
namespace {

struct RowFixture {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool{&disk, 1 << 14};  // swan-lint: allow(node-disk)
};

std::vector<rdf::Triple> SmallGraph() {
  // Properties 100/101 are frequent; 200 and 300 are rare. Big enough that
  // the page-based cost model separates the access paths.
  std::vector<rdf::Triple> triples;
  for (uint64_t s = 0; s < 60000; ++s) triples.push_back({s, 100, s % 50});
  for (uint64_t s = 0; s < 40000; ++s) triples.push_back({s, 101, s % 31});
  for (uint64_t s = 0; s < 10; ++s) triples.push_back({s, 200, 7});
  triples.push_back({5, 300, 9});
  return triples;
}

std::vector<rdf::Triple> Collect(const TripleRelation& rel,
                                 const rdf::TriplePattern& pattern) {
  std::vector<rdf::Triple> out;
  rel.ScanMatches(pattern, {}, [&](std::span<const rdf::Triple> batch) {
    out.insert(out.end(), batch.begin(), batch.end());
  });
  return out;
}

std::vector<rdf::Triple> Collect(const VerticalRelation& rel,
                                 uint64_t property,
                                 std::optional<uint64_t> subject,
                                 std::optional<uint64_t> object) {
  std::vector<rdf::Triple> out;
  rel.ScanPartition({subject, property, object}, {},
                    [&](std::span<const rdf::Triple> batch) {
                      out.insert(out.end(), batch.begin(), batch.end());
                    });
  return out;
}

TEST(TripleStatsTest, CountsComponents) {
  const auto stats = TripleStats::Compute(SmallGraph());
  EXPECT_EQ(stats.total_triples, 100011u);
  EXPECT_EQ(stats.terms.of(100).property, 60000u);
  EXPECT_EQ(stats.terms.of(200).property, 10u);
  EXPECT_EQ(stats.terms.of(300).property, 1u);
  // Distinct counts per property are the planner's (plan::StoreStats).
  rdf::Dataset dataset;
  for (const rdf::Triple& t : SmallGraph()) dataset.Add(t);
  const auto store_stats = plan::StoreStats::Collect(dataset);
  EXPECT_EQ(store_stats.by_property.at(100).distinct_objects, 50u);
}

TEST(TripleStatsTest, EstimateUsesIndependence) {
  const auto stats = TripleStats::Compute(SmallGraph());
  rdf::TriplePattern pattern;
  pattern.property = 100;
  EXPECT_NEAR(stats.EstimateMatches(pattern), 60000.0, 1e-6);
  pattern.object = 7;
  const double est = stats.EstimateMatches(pattern);
  EXPECT_GT(est, 0.0);
  EXPECT_LT(est, 60000.0);
}

TEST(TripleStatsTest, UnknownConstantEstimatesZero) {
  const auto stats = TripleStats::Compute(SmallGraph());
  rdf::TriplePattern pattern;
  pattern.property = 12345;
  EXPECT_DOUBLE_EQ(stats.EstimateMatches(pattern), 0.0);
}

class TripleRelationConfigTest : public ::testing::TestWithParam<bool> {
 protected:
  TripleRelation::Config GetConfig() const {
    return GetParam() ? TripleRelation::PsoConfig()
                      : TripleRelation::SpoConfig();
  }
};

TEST_P(TripleRelationConfigTest, FullScanReturnsEverything) {
  RowFixture f;
  TripleRelation rel(&f.pool, &f.disk, GetConfig());
  const auto triples = SmallGraph();
  rel.Load(triples);
  EXPECT_EQ(rel.size(), triples.size());
  auto all = Collect(rel, rdf::TriplePattern{});
  EXPECT_EQ(all.size(), triples.size());
}

TEST_P(TripleRelationConfigTest, PatternScansMatchOracle) {
  RowFixture f;
  TripleRelation rel(&f.pool, &f.disk, GetConfig());
  const auto triples = SmallGraph();
  rel.Load(triples);

  std::vector<rdf::TriplePattern> patterns;
  {
    rdf::TriplePattern p;
    p.property = 100;
    patterns.push_back(p);
    p.object = 7;
    patterns.push_back(p);
    p = {};
    p.subject = 5;
    patterns.push_back(p);
    p = {};
    p.property = 300;
    p.object = 9;
    patterns.push_back(p);
    p = {};
    p.object = 7;
    patterns.push_back(p);
    p = {};
    p.subject = 5;
    p.property = 200;
    p.object = 7;
    patterns.push_back(p);
  }
  for (const auto& pattern : patterns) {
    std::vector<rdf::Triple> expected;
    for (const auto& t : triples) {
      if (pattern.Matches(t)) expected.push_back(t);
    }
    auto got = Collect(rel, pattern);
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << pattern.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, TripleRelationConfigTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "PSO" : "SPO";
                         });

TEST(TripleRelationTest, PsoUsesClusteredPrefixForPropertyScan) {
  RowFixture f;
  TripleRelation rel(&f.pool, &f.disk, TripleRelation::PsoConfig());
  rel.Load(SmallGraph());
  rdf::TriplePattern pattern;
  pattern.property = 100;
  const auto path = rel.ChoosePath(pattern);
  EXPECT_EQ(path.kind, TripleRelation::AccessPath::Kind::kClusteredPrefix);
  EXPECT_EQ(path.order, rdf::TripleOrder::kPSO);
}

TEST(TripleRelationTest, SpoFallsBackToFullScanForFrequentProperty) {
  RowFixture f;
  TripleRelation rel(&f.pool, &f.disk, TripleRelation::SpoConfig());
  rel.Load(SmallGraph());
  rdf::TriplePattern pattern;
  pattern.property = 100;  // matches ~60% of the table
  const auto path = rel.ChoosePath(pattern);
  EXPECT_EQ(path.kind, TripleRelation::AccessPath::Kind::kFullScan);
}

TEST(TripleRelationTest, SpoUsesSecondaryForRarePredicate) {
  RowFixture f;
  TripleRelation rel(&f.pool, &f.disk, TripleRelation::SpoConfig());
  rel.Load(SmallGraph());
  rdf::TriplePattern pattern;
  pattern.property = 300;  // 1 row
  const auto path = rel.ChoosePath(pattern);
  EXPECT_EQ(path.kind, TripleRelation::AccessPath::Kind::kSecondaryPrefix);
  EXPECT_EQ(path.order, rdf::TripleOrder::kPOS);
}

TEST(TripleRelationTest, SubjectProbeUsesIndexInBothConfigs) {
  RowFixture f;
  TripleRelation pso(&f.pool, &f.disk, TripleRelation::PsoConfig());
  pso.Load(SmallGraph());
  rdf::TriplePattern pattern;
  pattern.subject = 5;
  const auto path = pso.ChoosePath(pattern);
  EXPECT_NE(path.kind, TripleRelation::AccessPath::Kind::kFullScan);
}

TEST(TripleRelationTest, SecondaryScanChargesRowFetches) {
  RowFixture f;
  TripleRelation rel(&f.pool, &f.disk, TripleRelation::SpoConfig());
  rel.Load(SmallGraph());
  f.pool.Clear();
  f.disk.ResetStats();
  rdf::TriplePattern pattern;
  pattern.property = 200;  // 10 rows via POS secondary
  const auto got = Collect(rel, pattern);
  EXPECT_EQ(got.size(), 10u);
  // Ten row fetches -> at least ten random descents' worth of pages.
  EXPECT_GT(f.disk.total_seeks(), 5u);
}

// FullScan's property and subject filters, tested on the raw key words,
// against filtering the unfiltered scan: per clustering, at widths 1 and 8
// (leaf-range parts), fresh and after inserts that split leaves (the
// serial walk). Each filter keeps exactly the unfiltered scan's passing
// triples, never hands fn an empty batch, splits the scan into the same
// parts and reads the same cold pages: bytes and seeks.
class FullScanFilterTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {
 protected:
  void SetUp() override { exec::SetThreads(8); }
  void TearDown() override { exec::SetThreads(1); }
};

TEST_P(FullScanFilterTest, KeepsExactlyThePassingTriples) {
  const auto [pso, after_inserts] = GetParam();
  RowFixture f;
  TripleRelation rel(&f.pool, &f.disk,
                     pso ? TripleRelation::PsoConfig()
                         : TripleRelation::SpoConfig());
  rel.Load(SmallGraph());
  if (after_inserts) {
    for (uint64_t s = 0; s < 60000; s += 97) {
      ASSERT_TRUE(rel.Insert({s, 101, 1000 + s}));
      ASSERT_TRUE(rel.Insert({s, 200, 1000 + s}));
    }
  }

  const std::vector<uint64_t> props = {100, 200, 250};  // 250 is absent
  IdSet subjects;
  for (uint64_t s = 0; s < 50000; s += 3) subjects.Insert(s);
  subjects.Insert(uint64_t{1} << 40);  // absent
  const IdSet no_subjects;
  struct Filter {
    const char* name;
    const std::vector<uint64_t>* props;
    const IdSet* subjects;
  };
  const Filter filters[] = {{"none", nullptr, nullptr},
                            {"props", &props, nullptr},
                            {"subjects", nullptr, &subjects},
                            {"both", &props, &subjects},
                            {"empty subject set", nullptr, &no_subjects}};

  struct Scan {
    uint64_t parts = 0;
    std::vector<rdf::Triple> triples;  // sorted
    uint64_t cold_bytes = 0;
    uint64_t seeks = 0;
  };
  const auto scan = [&](const exec::ExecContext& ectx, const Filter& filter) {
    f.pool.Clear();
    f.disk.ResetStats();
    Scan out;
    std::vector<std::vector<rdf::Triple>> by_part;
    bool empty_batch = false;
    rel.FullScan(
        ectx, filter.props, filter.subjects,
        [&](uint64_t parts) {
          out.parts = parts;
          by_part.resize(parts);
        },
        [&](uint64_t part, std::span<const rdf::Triple> batch) {
          if (batch.empty()) empty_batch = true;
          by_part[part].insert(by_part[part].end(), batch.begin(),
                               batch.end());
        });
    EXPECT_FALSE(empty_batch) << filter.name;
    out.cold_bytes = f.disk.total_bytes_read();
    out.seeks = f.disk.total_seeks();
    for (const auto& part : by_part) {
      out.triples.insert(out.triples.end(), part.begin(), part.end());
    }
    std::sort(out.triples.begin(), out.triples.end());
    return out;
  };

  for (int width : {1, 8}) {
    const exec::ExecContext ectx(width);
    const Scan all = scan(ectx, filters[0]);
    EXPECT_EQ(all.triples.size(), rel.size());
    EXPECT_EQ(all.parts > 1, width > 1 && !after_inserts) << all.parts;
    for (const Filter& filter : filters) {
      std::vector<rdf::Triple> want;
      for (const rdf::Triple& t : all.triples) {
        if (filter.props != nullptr &&
            !std::binary_search(filter.props->begin(), filter.props->end(),
                                t.property)) {
          continue;
        }
        if (filter.subjects != nullptr &&
            !filter.subjects->contains(t.subject)) {
          continue;
        }
        want.push_back(t);
      }
      const Scan got = scan(ectx, filter);
      const std::string at = std::string(filter.name) + " x" +
                             std::to_string(width);
      EXPECT_EQ(got.triples, want) << at;
      EXPECT_EQ(got.parts, all.parts) << at;
      EXPECT_EQ(got.cold_bytes, all.cold_bytes) << at;
      EXPECT_EQ(got.seeks, all.seeks) << at;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ClusteringsAndLoadStates, FullScanFilterTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>>& info) {
      return std::string(std::get<0>(info.param) ? "PSO" : "SPO") +
             (std::get<1>(info.param) ? "_after_inserts" : "_fresh_load");
    });

TEST(VerticalRelationTest, PartitionScansMatchOracle) {
  RowFixture f;
  VerticalRelation rel(&f.pool, &f.disk);
  const auto triples = SmallGraph();
  rel.Load(triples);
  ASSERT_EQ(rel.properties().size(), 4u);
  EXPECT_EQ(rel.PartitionSize(100), 60000u);
  EXPECT_EQ(rel.PartitionSize(999), 0u);

  struct Case {
    uint64_t property;
    std::optional<uint64_t> s, o;
  };
  for (const Case& c :
       {Case{100, std::nullopt, std::nullopt}, Case{100, 5, std::nullopt},
        Case{100, std::nullopt, 7}, Case{200, std::nullopt, 7},
        Case{300, 5, 9}, Case{100, 5, 5}}) {
    std::vector<rdf::Triple> expected;
    for (const auto& t : triples) {
      if (t.property == c.property && (!c.s || t.subject == *c.s) &&
          (!c.o || t.object == *c.o)) {
        expected.push_back(t);
      }
    }
    auto got = Collect(rel, c.property, c.s, c.o);
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
}

TEST(VerticalRelationTest, MissingPartitionScanIsInvalid) {
  RowFixture f;
  VerticalRelation rel(&f.pool, &f.disk);
  rel.Load(SmallGraph());
  EXPECT_TRUE(Collect(rel, 999, std::nullopt, std::nullopt).empty());
}

TEST(VerticalRelationTest, RandomizedEquivalenceWithTripleRelation) {
  Rng rng(33);
  std::vector<rdf::Triple> triples;
  for (int i = 0; i < 5000; ++i) {
    triples.push_back({rng.Uniform(300), rng.Uniform(12), rng.Uniform(100)});
  }
  std::sort(triples.begin(), triples.end());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());

  RowFixture f;
  TripleRelation triple(&f.pool, &f.disk, TripleRelation::PsoConfig());
  triple.Load(triples);
  VerticalRelation vertical(&f.pool, &f.disk);
  vertical.Load(triples);

  for (int round = 0; round < 30; ++round) {
    rdf::TriplePattern pattern;
    pattern.property = rng.Uniform(12);
    if (rng.Chance(0.5)) pattern.subject = rng.Uniform(300);
    if (rng.Chance(0.5)) pattern.object = rng.Uniform(100);
    auto a = Collect(triple, pattern);
    auto b = Collect(vertical, *pattern.property, pattern.subject,
                     pattern.object);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << pattern.ToString();
  }
}

TEST(VerticalRelationTest, DiskBytesCoverAllPartitions) {
  RowFixture f;
  VerticalRelation rel(&f.pool, &f.disk);
  rel.Load(SmallGraph());
  // 3 partitions x (clustered + secondary), at least one page each.
  EXPECT_GE(rel.disk_bytes(), 6 * storage::kPageSize);
}

}  // namespace
}  // namespace swan::rowstore
