#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bench_support/barton_generator.h"
#include "colstore/column.h"
#include "colstore/compression.h"
#include "common/random.h"
#include "core/col_backends.h"

namespace swan::colstore {
namespace {

std::vector<uint64_t> RandomValues(size_t n, uint64_t universe,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> out(n);
  for (auto& v : out) v = rng.Uniform(universe);
  return out;
}

class CodecTest : public ::testing::TestWithParam<ColumnCodec> {};

TEST_P(CodecTest, RoundTripsRandomData) {
  const auto values = RandomValues(10000, 1 << 20, 1);
  const auto encoded = CompressU64(values, GetParam());
  EXPECT_EQ(DecompressU64(encoded, values.size()), values);
}

TEST_P(CodecTest, RoundTripsSortedData) {
  auto values = RandomValues(10000, 1 << 20, 2);
  std::sort(values.begin(), values.end());
  const auto encoded = CompressU64(values, GetParam());
  EXPECT_EQ(DecompressU64(encoded, values.size()), values);
}

TEST_P(CodecTest, RoundTripsConstantRuns) {
  std::vector<uint64_t> values(5000, 42);
  values.resize(8000, 7);
  const auto encoded = CompressU64(values, GetParam());
  EXPECT_EQ(DecompressU64(encoded, values.size()), values);
}

TEST_P(CodecTest, RoundTripsEmpty) {
  const auto encoded = CompressU64({}, GetParam());
  EXPECT_TRUE(DecompressU64(encoded, 0).empty());
}

TEST_P(CodecTest, RoundTripsExtremeValues) {
  const std::vector<uint64_t> values = {0, UINT64_MAX, 1, UINT64_MAX - 1, 0,
                                        0, 1ull << 63, 3};
  const auto encoded = CompressU64(values, GetParam());
  EXPECT_EQ(DecompressU64(encoded, values.size()), values);
}

TEST_P(CodecTest, RoundTripsSingleValue) {
  const std::vector<uint64_t> values = {0xDEADBEEFull};
  const auto encoded = CompressU64(values, GetParam());
  EXPECT_EQ(DecompressU64(encoded, 1), values);
}

TEST_P(CodecTest, RoundTripsAllEqual) {
  const std::vector<uint64_t> values(12345, 99);
  const auto encoded = CompressU64(values, GetParam());
  EXPECT_EQ(DecompressU64(encoded, values.size()), values);
}

TEST_P(CodecTest, RoundTripsAdversarialRunLengths) {
  // Run lengths that straddle the decode-batch boundary (4095/4096/4097),
  // lone singletons between long runs, and a sawtooth of 1-runs.
  std::vector<uint64_t> values;
  values.insert(values.end(), 4095, 1);
  values.push_back(2);
  values.insert(values.end(), 4096, 3);
  values.push_back(4);
  values.insert(values.end(), 4097, 5);
  for (uint64_t i = 0; i < 1000; ++i) values.push_back(i % 2);
  const auto encoded = CompressU64(values, GetParam());
  EXPECT_EQ(DecompressU64(encoded, values.size()), values);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecTest,
                         ::testing::Values(ColumnCodec::kRaw, ColumnCodec::kRle,
                                           ColumnCodec::kDelta,
                                           ColumnCodec::kBitPack,
                                           ColumnCodec::kDictBitPack,
                                           ColumnCodec::kAuto),
                         [](const ::testing::TestParamInfo<ColumnCodec>& info) {
                           return ToString(info.param);
                         });

TEST(CompressionTest, BitPackRoundTripsEveryWidth) {
  // Widths 1..64 bits: the max value of each width must survive packing,
  // including the straddling two-word reads at unaligned widths.
  Rng rng(11);
  for (int width = 1; width <= 64; ++width) {
    const uint64_t max =
        width >= 64 ? UINT64_MAX : (1ull << width) - 1;
    std::vector<uint64_t> values(257);
    for (auto& v : values) v = rng.Next() & max;
    values[0] = max;          // force the width
    values[256] = max;        // last element exercises the pad word
    const auto encoded = CompressU64(values, ColumnCodec::kBitPack);
    EXPECT_EQ(DecompressU64(encoded, values.size()), values)
        << "width " << width;
  }
}

TEST(CompressionTest, BitPackShrinksNarrowColumns) {
  const auto values = RandomValues(10000, 1 << 10, 12);  // 10-bit ids
  const auto packed = CompressU64(values, ColumnCodec::kBitPack);
  EXPECT_LT(packed.size(), values.size() * 2);  // ~1.25 bytes per value
}

TEST(CompressionTest, DictBitPackShrinksLowCardinalityWideIds) {
  // 64 distinct values drawn from a 2^40 space: plain bit-packing needs
  // 40 bits per value, the palette form 6 bits plus a small dictionary.
  Rng rng(13);
  std::vector<uint64_t> palette(64);
  for (auto& v : palette) v = rng.Next() >> 24;
  std::vector<uint64_t> values(20000);
  for (auto& v : values) v = palette[rng.Uniform(64)];
  const auto dict = CompressU64(values, ColumnCodec::kDictBitPack);
  const auto plain = CompressU64(values, ColumnCodec::kBitPack);
  EXPECT_LT(dict.size(), plain.size() / 4);
  EXPECT_EQ(DecompressU64(dict, values.size()), values);
}

TEST(CompressionTest, AutoPicksSmallestOfAllFive) {
  for (uint64_t seed = 20; seed < 26; ++seed) {
    auto values = RandomValues(5000, 1000, seed);
    if (seed % 2 == 0) std::sort(values.begin(), values.end());
    const size_t auto_size = CompressU64(values, ColumnCodec::kAuto).size();
    for (auto codec : {ColumnCodec::kRaw, ColumnCodec::kRle,
                       ColumnCodec::kDelta, ColumnCodec::kBitPack,
                       ColumnCodec::kDictBitPack}) {
      EXPECT_LE(auto_size, CompressU64(values, codec).size());
    }
  }
}

// The original kAuto rule, kept as the oracle: encode all five, keep the
// smallest, ties to the earlier codec.
std::vector<uint8_t> EncodeAllOracle(std::span<const uint64_t> values) {
  std::vector<uint8_t> best = CompressU64(values, ColumnCodec::kRaw);
  for (auto codec : {ColumnCodec::kRle, ColumnCodec::kDelta,
                     ColumnCodec::kBitPack, ColumnCodec::kDictBitPack}) {
    std::vector<uint8_t> candidate = CompressU64(values, codec);
    if (candidate.size() < best.size()) best = std::move(candidate);
  }
  return best;
}

TEST(CompressionTest, AutoMatchesEncodeAllOracle) {
  std::vector<std::vector<uint64_t>> columns;

  // Every column of both column schemes over a generated Barton dataset.
  bench_support::BartonConfig config;
  config.target_triples = 20000;
  const auto barton = bench_support::GenerateBarton(config);
  for (auto order : {rdf::TripleOrder::kPSO, rdf::TripleOrder::kSPO}) {
    const core::ColTripleBackend triple(barton.dataset, order);
    for (int c = 0; c < 3; ++c) {
      columns.push_back(
          triple.table().column(c).Encoded().Materialize());
    }
  }
  const core::ColVerticalBackend vertical(barton.dataset);
  for (uint64_t p : vertical.table().properties()) {
    columns.push_back(vertical.table().EncodedSubjects(p).Materialize());
    columns.push_back(vertical.table().EncodedObjects(p).Materialize());
  }

  // Sorted and unsorted random columns over narrow and wide universes.
  for (uint64_t seed = 30; seed < 38; ++seed) {
    const uint64_t universe = seed % 4 < 2 ? 1000 : 1ull << 40;
    auto values = RandomValues(3000 + 500 * (seed % 3), universe, seed);
    if (seed % 2 == 0) std::sort(values.begin(), values.end());
    columns.push_back(std::move(values));
  }

  // Empty, a single value, a constant column, descending values.
  columns.push_back({});
  columns.push_back({0xDEADBEEFull});
  columns.push_back(std::vector<uint64_t>(4000, 77));
  auto descending = RandomValues(4000, 1 << 20, 40);
  std::sort(descending.rbegin(), descending.rend());
  columns.push_back(descending);

  // Values near 2^64: zigzagged deltas need 10-byte varints.
  Rng rng(41);
  std::vector<uint64_t> huge(2000);
  for (auto& v : huge) v = UINT64_MAX - rng.Uniform(1 << 10);
  columns.push_back(huge);
  for (size_t i = 0; i < huge.size(); i += 2) huge[i] = rng.Uniform(16);
  columns.push_back(huge);

  // Palettes of exactly 2^k and 2^k + 1 distinct values, where the code
  // width steps up; dense and wide ids.
  for (int k = 1; k <= 9; ++k) {
    for (uint64_t size : {1ull << k, (1ull << k) + 1}) {
      for (uint64_t spread : {1ull, 1ull << 30}) {
        std::vector<uint64_t> palette(size);
        for (uint64_t i = 0; i < size; ++i) palette[i] = (i + 1) * spread;
        std::vector<uint64_t> values(palette);
        while (values.size() < 3000) {
          values.push_back(palette[rng.Uniform(size)]);
        }
        for (size_t j = values.size(); j > 1; --j) {
          std::swap(values[j - 1], values[rng.Uniform(j)]);
        }
        columns.push_back(std::move(values));
      }
    }
  }

  // A sweep that lands columns within a few bytes of every decision
  // boundary: d distinct values, each repeated r times, in order and
  // shuffled, over dense and wide ids (a delta of 2^56 takes 9 varint
  // bytes).
  for (uint64_t spread : {1ull, 1ull << 20, 1ull << 56}) {
    for (uint64_t d = 1; d <= 64; ++d) {
      for (uint64_t r = 1; r <= 8; ++r) {
        std::vector<uint64_t> values;
        for (uint64_t i = 0; i < d; ++i) {
          values.insert(values.end(), r, (i + 1) * spread);
        }
        columns.push_back(values);
        for (size_t j = values.size(); j > 1; --j) {
          std::swap(values[j - 1], values[rng.Uniform(j)]);
        }
        columns.push_back(std::move(values));
      }
    }
  }

  for (size_t i = 0; i < columns.size(); ++i) {
    const auto& values = columns[i];
    EXPECT_EQ(CompressU64(values, ColumnCodec::kAuto),
              EncodeAllOracle(values))
        << "column " << i << " (" << values.size() << " values)";
  }
}

TEST(CompressionTest, TryDecompressRejectsCorruptInputWithoutAborting) {
  const auto values = RandomValues(1000, 1 << 10, 14);
  std::vector<uint64_t> out;

  // Unknown codec tag.
  std::vector<uint8_t> bad_tag = CompressU64(values, ColumnCodec::kBitPack);
  bad_tag[0] = 0xEE;
  EXPECT_TRUE(TryDecompressU64(bad_tag, values.size(), &out).code() == StatusCode::kCorruption);

  // Truncated payload.
  std::vector<uint8_t> truncated = CompressU64(values, ColumnCodec::kRle);
  truncated.resize(truncated.size() / 2);
  EXPECT_TRUE(
      TryDecompressU64(truncated, values.size(), &out).code() == StatusCode::kCorruption);

  // Count mismatch: buffer decodes fewer values than promised.
  const std::vector<uint8_t> short_buf =
      CompressU64(values, ColumnCodec::kDelta);
  EXPECT_TRUE(
      TryDecompressU64(short_buf, values.size() + 5, &out).code() == StatusCode::kCorruption);

  // Zero / oversized bit width.
  std::vector<uint8_t> bad_width = CompressU64(values, ColumnCodec::kBitPack);
  bad_width[1] = 0;
  EXPECT_TRUE(
      TryDecompressU64(bad_width, values.size(), &out).code() == StatusCode::kCorruption);
  bad_width[1] = 65;
  EXPECT_TRUE(
      TryDecompressU64(bad_width, values.size(), &out).code() == StatusCode::kCorruption);

  // The intact buffer still decodes.
  const std::vector<uint8_t> good = CompressU64(values, ColumnCodec::kBitPack);
  ASSERT_TRUE(TryDecompressU64(good, values.size(), &out).ok());
  EXPECT_EQ(out, values);
}

TEST(EncodedColumnTest, ValueAtAgreesWithMaterializeAcrossReps) {
  Rng rng(15);
  for (auto codec : {ColumnCodec::kRaw, ColumnCodec::kRle,
                     ColumnCodec::kDelta, ColumnCodec::kBitPack,
                     ColumnCodec::kDictBitPack}) {
    auto values = RandomValues(3000, 64, 16);
    if (codec == ColumnCodec::kRle || codec == ColumnCodec::kDelta) {
      std::sort(values.begin(), values.end());
    }
    const EncodedColumn enc = EncodedColumn::FromValues(values, codec);
    ASSERT_EQ(enc.size(), values.size());
    EXPECT_EQ(enc.Materialize(), values);
    for (int probe = 0; probe < 100; ++probe) {
      const uint64_t i = rng.Uniform(values.size());
      EXPECT_EQ(enc.ValueAt(i), values[i]);
    }
    // Ranged materialization, including awkward unaligned windows.
    std::vector<uint64_t> window(700);
    enc.MaterializeInto(1234, 1934, window.data());
    EXPECT_TRUE(std::equal(window.begin(), window.end(),
                           values.begin() + 1234));
  }
}

TEST(EncodedColumnTest, CodeForDistinguishesPresentAndImpossibleValues) {
  std::vector<uint64_t> values = {10, 10, 500, 500, 500, 9000};
  const EncodedColumn dict =
      EncodedColumn::FromValues(values, ColumnCodec::kDictBitPack);
  uint64_t code = 0;
  ASSERT_TRUE(dict.CodeFor(500, &code));
  EXPECT_EQ(dict.DecodeCode(code), 500u);
  EXPECT_FALSE(dict.CodeFor(777, &code));  // not in the palette

  const EncodedColumn plain =
      EncodedColumn::FromValues(values, ColumnCodec::kBitPack);
  ASSERT_TRUE(plain.CodeFor(9000, &code));
  EXPECT_EQ(code, 9000u);  // identity codes for plain packing
  // Wider than the pack width -> cannot appear.
  EXPECT_FALSE(plain.CodeFor(1ull << 40, &code));
}

TEST(EncodedColumnTest, RunIndexOfFindsContainingRun) {
  std::vector<uint64_t> values;
  values.insert(values.end(), 100, 7);
  values.insert(values.end(), 50, 8);
  values.insert(values.end(), 200, 9);
  const EncodedColumn enc =
      EncodedColumn::FromValues(values, ColumnCodec::kRle);
  ASSERT_EQ(enc.rep(), EncodedColumn::Rep::kRle);
  EXPECT_EQ(enc.runs()[enc.RunIndexOf(0)].value, 7u);
  EXPECT_EQ(enc.runs()[enc.RunIndexOf(99)].value, 7u);
  EXPECT_EQ(enc.runs()[enc.RunIndexOf(100)].value, 8u);
  EXPECT_EQ(enc.runs()[enc.RunIndexOf(149)].value, 8u);
  EXPECT_EQ(enc.runs()[enc.RunIndexOf(349)].value, 9u);
}

TEST(CompressionTest, RleShrinksLowCardinalitySortedColumn) {
  // A PSO-sorted property column: 222 runs over 100k rows.
  std::vector<uint64_t> column;
  for (uint64_t p = 0; p < 222; ++p) {
    column.insert(column.end(), 450, p);
  }
  const auto rle = CompressU64(column, ColumnCodec::kRle);
  EXPECT_LT(rle.size(), column.size());  // > 8x smaller than raw by far
  EXPECT_LT(rle.size(), 222 * 12 + 16);
}

TEST(CompressionTest, DeltaShrinksSortedIdColumn) {
  auto values = RandomValues(50000, 1 << 22, 3);
  std::sort(values.begin(), values.end());
  const auto delta = CompressU64(values, ColumnCodec::kDelta);
  EXPECT_LT(delta.size(), values.size() * 3);  // < 3 bytes per value
}

TEST(CompressionTest, AutoNeverBeatenByFixedChoice) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    auto values = RandomValues(5000, 1000, seed);
    if (seed % 2 == 0) std::sort(values.begin(), values.end());
    const size_t auto_size = CompressU64(values, ColumnCodec::kAuto).size();
    for (auto codec :
         {ColumnCodec::kRaw, ColumnCodec::kRle, ColumnCodec::kDelta}) {
      EXPECT_LE(auto_size, CompressU64(values, codec).size());
    }
  }
}

TEST(CompressionTest, RawCostsEightBytesPerValue) {
  const auto values = RandomValues(1000, UINT64_MAX, 4);
  EXPECT_EQ(CompressU64(values, ColumnCodec::kRaw).size(), 1 + 8 * 1000u);
}

TEST(CompressedColumnTest, CompressedColumnReadsSameValues) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool(&disk, 1 << 12);  // swan-lint: allow(node-disk)
  auto values = RandomValues(30000, 1 << 18, 5);
  std::sort(values.begin(), values.end());

  Column raw(&pool, &disk, ColumnCodec::kRaw);
  raw.Build(values);
  Column packed(&pool, &disk, ColumnCodec::kAuto);
  packed.Build(values);

  EXPECT_EQ(raw.Encoded().Materialize(),
            packed.Encoded().Materialize());
  EXPECT_LT(packed.disk_bytes(), raw.disk_bytes());
}

TEST(CompressedColumnTest, ColdLoadReadsFewerBytes) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool(&disk, 1 << 12);  // swan-lint: allow(node-disk)
  auto values = RandomValues(100000, 1 << 18, 6);
  std::sort(values.begin(), values.end());

  Column raw(&pool, &disk, ColumnCodec::kRaw);
  raw.Build(values);
  Column packed(&pool, &disk, ColumnCodec::kDelta);
  packed.Build(values);

  pool.Clear();
  disk.ResetStats();
  raw.Encoded();
  const uint64_t raw_bytes = disk.total_bytes_read();
  pool.Clear();
  disk.ResetStats();
  packed.Encoded();
  const uint64_t packed_bytes = disk.total_bytes_read();
  EXPECT_LT(packed_bytes, raw_bytes / 2);
}

TEST(CompressedColumnTest, StoredBytesTracksEncodedAndLogicalImages) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool(&disk, 1 << 12);  // swan-lint: allow(node-disk)
  std::vector<uint64_t> values;
  for (uint64_t p = 0; p < 10; ++p) values.insert(values.end(), 1000, p);

  Column col(&pool, &disk, ColumnCodec::kAuto);
  col.Build(values);
  EXPECT_EQ(col.logical_bytes(), values.size() * 8);
  EXPECT_LT(col.stored_bytes(), col.logical_bytes() / 2);
  EXPECT_NE(col.resolved_codec(), ColumnCodec::kAuto);  // resolved concrete

  Column raw(&pool, &disk, ColumnCodec::kRaw);
  raw.Build(values);
  EXPECT_EQ(raw.stored_bytes(), raw.logical_bytes());
}

TEST(CompressedColumnTest, AuditFlagsStoredBytesDesync) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool(&disk, 1 << 12);  // swan-lint: allow(node-disk)
  const auto values = RandomValues(20000, 1 << 12, 8);
  Column col(&pool, &disk, ColumnCodec::kAuto);
  col.Build(values);

  audit::AuditReport clean;
  col.AuditInto(audit::AuditLevel::kQuick, &clean);
  EXPECT_TRUE(clean.ok());

  // Desync the recorded encoded size from the on-disk image: the audit
  // must notice even at kQuick (no disk sweep needed).
  col.CorruptStoredBytesForTesting(col.stored_bytes() + storage::kPageSize);
  audit::AuditReport dirty;
  col.AuditInto(audit::AuditLevel::kQuick, &dirty);
  EXPECT_FALSE(dirty.ok());
}

TEST(CompressedColumnTest, DropCacheAndReloadStillCorrect) {
  storage::SimulatedDisk disk;  // swan-lint: allow(node-disk)
  storage::BufferPool pool(&disk, 1 << 12);  // swan-lint: allow(node-disk)
  const auto values = RandomValues(5000, 100, 7);
  Column col(&pool, &disk, ColumnCodec::kAuto);
  col.Build(values);
  const auto first = col.Encoded().Materialize();
  col.DropCache();
  pool.Clear();
  EXPECT_EQ(col.Encoded().Materialize(), first);
}

}  // namespace
}  // namespace swan::colstore
