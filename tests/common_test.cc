#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/id_hash.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/timer.h"

namespace swan {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversAllValues) {
  Rng rng(11);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) ++seen[rng.Uniform(10)];
  for (int count : seen) EXPECT_GT(count, 800);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.Chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

class ZipfAlphaTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfAlphaTest, RankZeroIsMostFrequent) {
  const double alpha = GetParam();
  ZipfSampler zipf(100, alpha);
  Rng rng(42);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(&rng)];
  // Frequency must decrease (statistically) with rank.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50]);
  // Exact head probability: p(rank 0) = 1 / sum_k (k+1)^-alpha.
  double norm = 0.0;
  for (int k = 1; k <= 100; ++k) norm += std::pow(k, -alpha);
  EXPECT_NEAR(counts[0] / 50000.0, 1.0 / norm, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfAlphaTest,
                         ::testing::Values(0.3, 0.8, 1.0, 1.5, 2.2));

TEST(ZipfTest, AllSamplesInRange) {
  ZipfSampler zipf(7, 1.1);
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(zipf.Sample(&rng), 7u);
}

TEST(DiscreteSamplerTest, MatchesWeights) {
  DiscreteSampler sampler({0.5, 0.25, 0.125, 0.125});
  Rng rng(13);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 100000; ++i) ++counts[sampler.Sample(&rng)];
  EXPECT_NEAR(counts[0] / 100000.0, 0.5, 0.01);
  EXPECT_NEAR(counts[1] / 100000.0, 0.25, 0.01);
  EXPECT_NEAR(counts[2] / 100000.0, 0.125, 0.01);
}

TEST(DiscreteSamplerTest, ZeroWeightNeverSampled) {
  DiscreteSampler sampler({1.0, 0.0, 1.0});
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) EXPECT_NE(sampler.Sample(&rng), 1u);
}

TEST(StatsTest, GeometricMeanOfEqualValues) {
  EXPECT_DOUBLE_EQ(GeometricMean({4.0, 4.0, 4.0}), 4.0);
}

TEST(StatsTest, GeometricMeanKnownValue) {
  EXPECT_NEAR(GeometricMean({1.0, 8.0}), std::sqrt(8.0), 1e-12);
}

TEST(StatsTest, GeometricMeanEmptyIsZero) {
  EXPECT_DOUBLE_EQ(GeometricMean({}), 0.0);
}

TEST(StatsTest, MeanBasic) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(StatsTest, CumulativeFrequencyEndsAtHundred) {
  const auto cdf = CumulativeFrequency({10, 5, 1, 1, 1}, 10);
  ASSERT_FALSE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.front().pct_items, 0.0);
  EXPECT_DOUBLE_EQ(cdf.back().pct_items, 100.0);
  EXPECT_DOUBLE_EQ(cdf.back().pct_total, 100.0);
}

TEST(StatsTest, CumulativeFrequencyIsMonotonic) {
  const auto cdf = CumulativeFrequency({100, 50, 20, 5, 2, 1, 1, 1}, 20);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].pct_total, cdf[i - 1].pct_total);
  }
}

TEST(StatsTest, SkewedCountsFrontLoadTheCdf) {
  // One item holding 90 of 100 occurrences: the first 25% of items must
  // already account for >= 90% of the mass.
  const auto cdf = CumulativeFrequency({90, 4, 3, 3}, 4);
  EXPECT_GE(cdf[1].pct_total, 90.0);
}

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: missing thing");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(TablePrinterTest, RendersHeaderAndRows) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "1.50"});
  table.AddSeparator();
  table.AddRow({"beta", "22.00"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22.00"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
}

TEST(TablePrinterTest, IntFormatsThousands) {
  EXPECT_EQ(TablePrinter::Int(50255599), "50,255,599");
  EXPECT_EQ(TablePrinter::Int(999), "999");
  EXPECT_EQ(TablePrinter::Int(1000), "1,000");
}

TEST(TablePrinterTest, FixedRounds) {
  EXPECT_EQ(TablePrinter::Fixed(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fixed(2.0, 1), "2.0");
}

TEST(TimerTest, VirtualClockAccumulates) {
  VirtualClock clock;
  clock.Advance(1.5);
  clock.Advance(0.25);
  EXPECT_DOUBLE_EQ(clock.now(), 1.75);
  clock.Reset();
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
}

TEST(TimerTest, CpuTimerAdvancesUnderWork) {
  CpuTimer timer;
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(timer.ElapsedSeconds(), 0.0);
}

// Keys for the id hash tests: mostly a small id range, so repeats and
// increments are common; some from the full 64-bit range; and the edge
// keys 0, 2^32 - 1 and the largest packed id pair, (2^32 - 1) << 32 |
// (2^32 - 1) = 2^64 - 1, which a table that reserves it as its empty
// marker must still store.
constexpr uint64_t kPackedMax = (uint64_t{0xFFFFFFFF} << 32) | 0xFFFFFFFF;
const uint64_t kEdgeKeys[] = {0, 0xFFFFFFFF, kPackedMax};

uint64_t RandomIdKey(Rng* rng) {
  switch (rng->Uniform(4)) {
    case 0:
      return kEdgeKeys[rng->Uniform(std::size(kEdgeKeys))];
    case 1:
      return rng->Next();
    default:
      return rng->Uniform(5000);
  }
}

TEST(IdHashTest, EmptyTableHoldsNoKey) {
  IdMap<uint64_t> map;
  IdSet set;
  for (uint64_t key : kEdgeKeys) {
    EXPECT_FALSE(map.contains(key));
    EXPECT_EQ(map.Find(key), nullptr);
    EXPECT_FALSE(set.contains(key));
  }
  EXPECT_EQ(map.size(), 0u);
  set.ForEach([](uint64_t key) { ADD_FAILURE() << key; });
}

// Random insert / lookup / increment sequences against std::unordered_map,
// growing through many rehashes; every few thousand operations, ForEach
// must visit each key exactly once, with its value.
TEST(IdHashTest, MapMatchesUnorderedMap) {
  Rng rng(17);
  IdMap<uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> want;
  for (int op = 1; op <= 60000; ++op) {
    const uint64_t key = RandomIdKey(&rng);
    switch (rng.Uniform(3)) {
      case 0:
        ASSERT_EQ(map.Insert(key), want.emplace(key, 0).second) << key;
        break;
      case 1:
        ASSERT_EQ(++map[key], ++want[key]) << key;
        break;
      default: {
        const auto it = want.find(key);
        ASSERT_EQ(map.contains(key), it != want.end()) << key;
        const uint64_t* got = map.Find(key);
        ASSERT_EQ(got != nullptr, it != want.end()) << key;
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second) << key;
        }
      }
    }
    ASSERT_EQ(map.size(), want.size());
    if (op % 5000 == 0) {
      std::unordered_map<uint64_t, uint64_t> seen;
      map.ForEach([&](uint64_t k, uint64_t v) {
        EXPECT_TRUE(seen.emplace(k, v).second) << "visited twice: " << k;
      });
      ASSERT_EQ(seen, want) << "after " << op << " operations";
    }
  }
  for (uint64_t key : kEdgeKeys) EXPECT_TRUE(map.contains(key)) << key;
  EXPECT_GT(map.size(), 10000u);  // grown from 8 slots: many rehashes
}

TEST(IdHashTest, SetMatchesUnorderedSet) {
  Rng rng(23);
  IdSet set;
  std::unordered_set<uint64_t> want;
  for (int op = 1; op <= 60000; ++op) {
    const uint64_t key = RandomIdKey(&rng);
    if (rng.Chance(0.5)) {
      ASSERT_EQ(set.Insert(key), want.insert(key).second) << key;
    } else {
      ASSERT_EQ(set.contains(key), want.count(key) != 0) << key;
    }
    ASSERT_EQ(set.size(), want.size());
    if (op % 5000 == 0) {
      std::unordered_set<uint64_t> seen;
      set.ForEach([&](uint64_t k) {
        EXPECT_TRUE(seen.insert(k).second) << "visited twice: " << k;
      });
      ASSERT_EQ(seen, want) << "after " << op << " operations";
    }
  }
  for (uint64_t key : kEdgeKeys) EXPECT_TRUE(set.contains(key)) << key;
}

// A map grows past load 1/2 and a set past load 1/4; Reserve(n) makes
// room for n keys at that load in one step.
TEST(IdHashTest, ReserveOnEmptyTableSkipsEveryRehash) {
  IdMap<uint64_t> map;
  IdSet set;
  map.Reserve(1000);
  set.Reserve(1000);
  EXPECT_EQ(map.capacity(), 2048u);
  EXPECT_EQ(set.capacity(), 4096u);
  for (uint64_t key = 0; key < 1000; ++key) {
    map[key * 7919] = key;
    set.Insert(key * 7919);
  }
  EXPECT_EQ(map.capacity(), 2048u);
  EXPECT_EQ(set.capacity(), 4096u);
  EXPECT_EQ(map.size(), 1000u);
  EXPECT_EQ(set.size(), 1000u);
  for (uint64_t key = 0; key < 1000; ++key) {
    ASSERT_NE(map.Find(key * 7919), nullptr) << key;
    EXPECT_EQ(*map.Find(key * 7919), key);
    EXPECT_TRUE(set.contains(key * 7919)) << key;
  }
}

TEST(IdHashTest, ReserveKeepsKeysAndValues) {
  Rng rng(29);
  IdMap<uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> want;
  for (int i = 0; i < 300; ++i) {
    const uint64_t key = RandomIdKey(&rng);
    map[key] += 3;
    want[key] += 3;
  }
  for (uint64_t key : kEdgeKeys) {
    map[key] += 5;
    want[key] += 5;
  }
  const size_t before = map.capacity();
  map.Reserve(10 * map.size());
  EXPECT_GT(map.capacity(), before);
  EXPECT_GE(map.capacity(), 20 * map.size());
  ASSERT_EQ(map.size(), want.size());
  std::unordered_map<uint64_t, uint64_t> seen;
  map.ForEach([&](uint64_t k, uint64_t v) {
    EXPECT_TRUE(seen.emplace(k, v).second) << "visited twice: " << k;
  });
  EXPECT_EQ(seen, want);
}

TEST(IdHashTest, ReserveBelowSizeDoesNothing) {
  IdMap<uint64_t> map;
  for (uint64_t key = 0; key < 100; ++key) map[key] = key + 1;
  std::vector<std::pair<uint64_t, uint64_t>> order;
  map.ForEach([&](uint64_t k, uint64_t v) { order.emplace_back(k, v); });
  const size_t capacity = map.capacity();
  for (size_t n : {size_t{0}, size_t{1}, size_t{50}, size_t{100}}) {
    map.Reserve(n);
    EXPECT_EQ(map.capacity(), capacity) << n;
  }
  std::vector<std::pair<uint64_t, uint64_t>> after;
  map.ForEach([&](uint64_t k, uint64_t v) { after.emplace_back(k, v); });
  EXPECT_EQ(after, order);  // same slots: no rehash
}

}  // namespace
}  // namespace swan
