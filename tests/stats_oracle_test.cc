// The load-time statistics (plan::StoreStats for the planner,
// rowstore::TripleStats for the row engine's access-path choice) are
// dense counting passes over dictionary ids. These tests hold them to
// straightforward hash-map implementations of the same definitions, field
// by field and estimate by estimate, so every plan and every modeled
// byte that depends on them stays the same.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_support/barton_generator.h"
#include "common/random.h"
#include "plan/stats.h"
#include "rdf/dataset.h"
#include "rdf/pattern.h"
#include "rowstore/stats.h"
#include "rowstore/triple_relation.h"
#include "storage/node_storage.h"

namespace swan {
namespace {

using Counts = std::unordered_map<uint64_t, uint64_t>;

// Oracle for plan::StoreStats::Collect: per-property frequency maps.
plan::StoreStats HashCollect(const rdf::Dataset& dataset) {
  plan::StoreStats stats;
  std::unordered_map<uint64_t, Counts> subj_freq;
  std::unordered_map<uint64_t, Counts> obj_freq;
  std::unordered_set<uint64_t> subjects;
  std::unordered_set<uint64_t> objects;
  for (const rdf::Triple& t : dataset.triples()) {
    ++stats.total_triples;
    ++stats.by_property[t.property].count;
    ++subj_freq[t.property][t.subject];
    ++obj_freq[t.property][t.object];
    subjects.insert(t.subject);
    objects.insert(t.object);
  }
  stats.distinct_subjects = subjects.size();
  stats.distinct_objects = objects.size();
  for (auto& [property, ps] : stats.by_property) {
    ps.distinct_subjects = subj_freq[property].size();
    ps.distinct_objects = obj_freq[property].size();
  }
  return stats;
}

// Oracle for rowstore::TripleStats: one frequency map per component.
struct HashTripleStats {
  uint64_t total_triples = 0;
  Counts subject_count;
  Counts property_count;
  Counts object_count;

  void Add(const rdf::Triple& t) {
    ++total_triples;
    ++subject_count[t.subject];
    ++property_count[t.property];
    ++object_count[t.object];
  }

  static uint64_t CountOf(const Counts& map, uint64_t key) {
    const auto it = map.find(key);
    return it == map.end() ? 0 : it->second;
  }

  double EstimateMatches(const rdf::TriplePattern& pattern) const {
    if (total_triples == 0) return 0.0;
    const double total = static_cast<double>(total_triples);
    double estimate = total;
    if (pattern.subject) {
      estimate *=
          static_cast<double>(CountOf(subject_count, *pattern.subject)) /
          total;
    }
    if (pattern.property) {
      estimate *=
          static_cast<double>(CountOf(property_count, *pattern.property)) /
          total;
    }
    if (pattern.object) {
      estimate *=
          static_cast<double>(CountOf(object_count, *pattern.object)) / total;
    }
    return estimate;
  }
};

HashTripleStats HashCompute(const std::vector<rdf::Triple>& triples) {
  HashTripleStats stats;
  for (const rdf::Triple& t : triples) stats.Add(t);
  return stats;
}

// Constants to probe each pattern component with: up to `n` values
// sampled from the triples, plus ids that occur nowhere (past the largest
// id, and beyond any array the counts could have allocated).
struct Probes {
  std::vector<uint64_t> subjects, properties, objects;
};

Probes SampleProbes(const std::vector<rdf::Triple>& triples, size_t n) {
  Probes probes;
  uint64_t max_id = 0;
  Rng rng(99);
  for (size_t i = 0; i < n && !triples.empty(); ++i) {
    const rdf::Triple& t = triples[rng.Uniform(triples.size())];
    probes.subjects.push_back(t.subject);
    probes.properties.push_back(t.property);
    probes.objects.push_back(t.object);
  }
  for (const rdf::Triple& t : triples) {
    max_id = std::max({max_id, t.subject, t.property, t.object});
  }
  for (uint64_t absent : {max_id + 1, max_id + 1000, uint64_t{1} << 40}) {
    probes.subjects.push_back(absent);
    probes.properties.push_back(absent);
    probes.objects.push_back(absent);
  }
  return probes;
}

// Every one of the eight bound/unbound shapes over the probe constants
// (sampled triples' components, paired by index, plus absent ids).
template <typename Fn>
void ForEveryShape(const Probes& probes, Fn fn) {
  for (int shape = 0; shape < 8; ++shape) {
    for (size_t i = 0; i < probes.subjects.size(); ++i) {
      rdf::TriplePattern pattern;
      if (shape & 1) pattern.subject = probes.subjects[i];
      if (shape & 2) pattern.property = probes.properties[i];
      // Pair the object with a different sample so that mixed shapes
      // include constants that never co-occur.
      if (shape & 4) {
        pattern.object = probes.objects[(i + shape) % probes.objects.size()];
      }
      fn(pattern);
    }
  }
}

void ExpectSameStoreStats(const rdf::Dataset& dataset) {
  const plan::StoreStats actual = plan::StoreStats::Collect(dataset);
  const plan::StoreStats oracle = HashCollect(dataset);
  EXPECT_EQ(actual.total_triples, oracle.total_triples);
  EXPECT_EQ(actual.distinct_subjects, oracle.distinct_subjects);
  EXPECT_EQ(actual.distinct_objects, oracle.distinct_objects);
  ASSERT_EQ(actual.by_property.size(), oracle.by_property.size());
  for (const auto& [property, want] : oracle.by_property) {
    SCOPED_TRACE(testing::Message() << "property " << property);
    const auto it = actual.by_property.find(property);
    ASSERT_NE(it, actual.by_property.end());
    const plan::PropertyStats& got = it->second;
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.distinct_subjects, want.distinct_subjects);
    EXPECT_EQ(got.distinct_objects, want.distinct_objects);
  }
  ForEveryShape(SampleProbes(dataset.triples(), 64),
                [&](const rdf::TriplePattern& p) {
                  EXPECT_DOUBLE_EQ(
                      actual.EstimateMatches(p.subject, p.property, p.object),
                      oracle.EstimateMatches(p.subject, p.property, p.object));
                });
}

void ExpectSameTripleStats(const rowstore::TripleStats& actual,
                           const HashTripleStats& oracle,
                           const std::vector<rdf::Triple>& triples) {
  EXPECT_EQ(actual.total_triples, oracle.total_triples);
  uint64_t max_id = 0;
  for (const rdf::Triple& t : triples) {
    max_id = std::max({max_id, t.subject, t.property, t.object});
  }
  // Every id, and a margin past the largest, carries the oracle's counts.
  for (uint64_t id = 0; id <= max_id + 2; ++id) {
    const rdf::TermCounts::Roles got = actual.terms.of(id);
    ASSERT_EQ(got.subject, oracle.CountOf(oracle.subject_count, id)) << id;
    ASSERT_EQ(got.property, oracle.CountOf(oracle.property_count, id)) << id;
    ASSERT_EQ(got.object, oracle.CountOf(oracle.object_count, id)) << id;
  }
  ForEveryShape(SampleProbes(triples, 64), [&](const rdf::TriplePattern& p) {
    EXPECT_DOUBLE_EQ(actual.EstimateMatches(p), oracle.EstimateMatches(p));
  });
}

// The shapes each test runs on, as datasets.
rdf::Dataset Barton20k(uint64_t seed) {
  bench_support::BartonConfig config;
  config.target_triples = 20000;
  config.seed = seed;
  return std::move(bench_support::GenerateBarton(config).dataset);
}

rdf::Dataset FromTriples(const std::vector<rdf::Triple>& triples) {
  rdf::Dataset dataset;
  for (const rdf::Triple& t : triples) dataset.Add(t);
  return dataset;
}

// Every triple on one property; subjects and objects overlap.
std::vector<rdf::Triple> OneProperty() {
  std::vector<rdf::Triple> triples;
  for (uint64_t s = 0; s < 500; ++s) triples.push_back({s % 97, 3, s % 13});
  return triples;
}

// One hub subject carrying every property (with repeats per property),
// next to ordinary subjects: the hub's slot is hit by every property's
// run in turn.
std::vector<rdf::Triple> HubSubject() {
  std::vector<rdf::Triple> triples;
  const uint64_t hub = 1000;
  for (uint64_t p = 0; p < 200; ++p) {
    for (uint64_t k = 0; k <= p % 4; ++k) triples.push_back({hub, p, 300 + k});
    triples.push_back({p + 400, p, hub});
    triples.push_back({p + 401, p, 300 + p % 7});
  }
  return triples;
}

std::vector<rdf::Dataset> OracleDatasets() {
  std::vector<rdf::Dataset> datasets;
  datasets.push_back(Barton20k(42));
  datasets.push_back(Barton20k(7));
  datasets.push_back(FromTriples({}));
  datasets.push_back(FromTriples({{5, 6, 7}}));
  datasets.push_back(FromTriples(OneProperty()));
  datasets.push_back(FromTriples(HubSubject()));
  return datasets;
}

TEST(StatsTest, CollectMatchesHashOracle) {
  const std::vector<rdf::Dataset> datasets = OracleDatasets();
  for (size_t i = 0; i < datasets.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "dataset " << i);
    ExpectSameStoreStats(datasets[i]);
  }
}

// Inserts that name ids past the loaded maximum grow the counts; the
// relation's statistics and its access-path choice then match a relation
// loaded with the same triples in one go, and both match the oracle.
void ExpectInsertsMatchOracle(const std::vector<rdf::Triple>& loaded) {
  uint64_t max_id = 0;
  for (const rdf::Triple& t : loaded) {
    max_id = std::max({max_id, t.subject, t.property, t.object});
  }
  // Fresh subjects, a fresh property and fresh objects, each well past
  // the loaded maximum, mixed with existing ids.
  std::vector<rdf::Triple> inserts;
  for (uint64_t k = 0; k < 300; ++k) {
    const rdf::Triple& old = loaded[k * 37 % loaded.size()];
    inserts.push_back({max_id + 1 + k, old.property, old.object});
    inserts.push_back({old.subject, max_id + 5000, max_id + 10 + k});
    inserts.push_back({old.subject, old.property, max_id + 20000 + k});
  }

  const storage::NodeStorage grown_node = storage::MakeNodeStorage({}, 4096);
  rowstore::TripleRelation grown(grown_node.pool.get(), grown_node.disk.get(),
                                 rowstore::TripleRelation::PsoConfig());
  grown.Load(loaded);
  for (const rdf::Triple& t : inserts) EXPECT_TRUE(grown.Insert(t));

  std::vector<rdf::Triple> all = loaded;
  all.insert(all.end(), inserts.begin(), inserts.end());
  const storage::NodeStorage fresh_node = storage::MakeNodeStorage({}, 4096);
  rowstore::TripleRelation fresh(fresh_node.pool.get(), fresh_node.disk.get(),
                                 rowstore::TripleRelation::PsoConfig());
  fresh.Load(all);

  ExpectSameTripleStats(grown.stats(), HashCompute(all), all);
  ForEveryShape(SampleProbes(all, 64), [&](const rdf::TriplePattern& p) {
    const auto got = grown.ChoosePath(p);
    const auto want = fresh.ChoosePath(p);
    EXPECT_EQ(got.kind, want.kind) << got.ToString();
    EXPECT_EQ(got.order, want.order) << got.ToString();
    EXPECT_EQ(got.prefix_len, want.prefix_len) << got.ToString();
    EXPECT_DOUBLE_EQ(got.estimated_rows, want.estimated_rows);
    EXPECT_DOUBLE_EQ(got.cost_pages, want.cost_pages);
  });
}

TEST(TripleStatsTest, ComputeMatchesHashOracle) {
  const std::vector<rdf::Dataset> datasets = OracleDatasets();
  for (size_t i = 0; i < datasets.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "dataset " << i);
    const std::vector<rdf::Triple>& triples = datasets[i].triples();
    ExpectSameTripleStats(rowstore::TripleStats::Compute(triples),
                          HashCompute(triples), triples);
  }
  SCOPED_TRACE("barton 20k, seed 42, then inserts");
  ExpectInsertsMatchOracle(datasets[0].triples());
}

}  // namespace
}  // namespace swan
