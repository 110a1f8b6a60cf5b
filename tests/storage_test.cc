#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "audit/audit.h"
#include "common/random.h"
#include "exec/thread_pool.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/paged_file.h"
#include "storage/simulated_disk.h"

namespace swan::storage {
namespace {

std::vector<uint8_t> PatternPage(uint8_t fill) {
  return std::vector<uint8_t>(kPageSize, fill);
}

std::vector<uint8_t> RandomPage(uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> page(kPageSize);
  for (uint8_t& b : page) b = static_cast<uint8_t>(rng.Next());
  return page;
}

TEST(SimulatedDiskTest, RoundTripsPages) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  disk.AppendPage(f, PatternPage(0xAB).data());
  disk.AppendPage(f, PatternPage(0xCD).data());
  uint8_t buf[kPageSize];
  ASSERT_TRUE(disk.ReadPage({f, 1}, buf, nullptr).ok());
  EXPECT_EQ(buf[0], 0xCD);
  ASSERT_TRUE(disk.ReadPage({f, 0}, buf, nullptr).ok());
  EXPECT_EQ(buf[100], 0xAB);
  EXPECT_EQ(disk.PageCount(f), 2u);
}

TEST(SimulatedDiskTest, WritePageOverwrites) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  disk.AppendPage(f, PatternPage(0x11).data());
  disk.WritePage({f, 0}, PatternPage(0x22).data());
  uint8_t buf[kPageSize];
  ASSERT_TRUE(disk.ReadPage({f, 0}, buf, nullptr).ok());
  EXPECT_EQ(buf[0], 0x22);
}

TEST(SimulatedDiskTest, ChargesBandwidthTime) {
  DiskConfig config;
  config.bandwidth_mb_per_s = 8.0;  // 1 page = 1.024 ms
  config.seek_latency_ms = 0.0;
  SimulatedDisk disk(config);  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  for (int i = 0; i < 10; ++i) disk.AppendPage(f, PatternPage(0).data());
  uint8_t buf[kPageSize];
  for (uint32_t p = 0; p < 10; ++p) {
    ASSERT_TRUE(disk.ReadPage({f, p}, buf, nullptr).ok());
  }
  EXPECT_NEAR(disk.clock().now(), 10 * kPageSize / 8e6, 1e-9);
  EXPECT_EQ(disk.total_bytes_read(), 10 * kPageSize);
}

TEST(SimulatedDiskTest, SequentialReadsSkipSeeks) {
  DiskConfig config;
  config.seek_latency_ms = 10.0;
  SimulatedDisk disk(config);  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  for (int i = 0; i < 5; ++i) disk.AppendPage(f, PatternPage(0).data());
  uint8_t buf[kPageSize];
  for (uint32_t p = 0; p < 5; ++p) {
    ASSERT_TRUE(disk.ReadPage({f, p}, buf, nullptr).ok());
  }
  EXPECT_EQ(disk.total_seeks(), 1u);  // only the initial positioning
}

TEST(SimulatedDiskTest, RandomReadsPaySeeks) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  for (int i = 0; i < 10; ++i) disk.AppendPage(f, PatternPage(0).data());
  uint8_t buf[kPageSize];
  ASSERT_TRUE(disk.ReadPage({f, 9}, buf, nullptr).ok());
  ASSERT_TRUE(disk.ReadPage({f, 0}, buf, nullptr).ok());
  ASSERT_TRUE(disk.ReadPage({f, 5}, buf, nullptr).ok());
  EXPECT_EQ(disk.total_seeks(), 3u);
}

TEST(SimulatedDiskTest, ForcedSeekIntervalLimitsRunLength) {
  DiskConfig config;
  config.forced_seek_interval_pages = 2;
  SimulatedDisk disk(config);  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  for (int i = 0; i < 8; ++i) disk.AppendPage(f, PatternPage(0).data());
  uint8_t buf[kPageSize];
  for (uint32_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(disk.ReadPage({f, p}, buf, nullptr).ok());
  }
  // Seek at page 0, then every 2 sequential pages: 0,2,4,6 -> 4 seeks.
  EXPECT_EQ(disk.total_seeks(), 4u);
}

TEST(SimulatedDiskTest, TraceRecordsCumulativeBytes) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  for (int i = 0; i < 4; ++i) disk.AppendPage(f, PatternPage(0).data());
  disk.StartTrace();
  uint8_t buf[kPageSize];
  for (uint32_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(disk.ReadPage({f, p}, buf, nullptr).ok());
  }
  const auto trace = disk.StopTrace();
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.back().cumulative_bytes, 4 * kPageSize);
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GT(trace[i].virtual_seconds, trace[i - 1].virtual_seconds);
  }
}

TEST(SimulatedDiskTest, TraceTagsParallelReadsWithLanes) {
  constexpr int kWidth = 4;
  constexpr uint32_t kPages = 64;
  swan::exec::SetThreads(kWidth);
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  for (uint32_t i = 0; i < kPages; ++i) {
    disk.AppendPage(f, PatternPage(static_cast<uint8_t>(i)).data());
  }
  disk.StartTrace();
  swan::exec::ParallelFor(kPages, 1, [&](uint64_t b, uint64_t e, uint64_t) {
    uint8_t buf[kPageSize];
    for (uint64_t p = b; p < e; ++p) {
      ASSERT_TRUE(
          disk.ReadPage({f, static_cast<uint32_t>(p)}, buf,
                        swan::exec::CurrentTask())
              .ok());
    }
  });
  const auto trace = disk.StopTrace();
  swan::exec::SetThreads(1);

  ASSERT_EQ(trace.size(), kPages);
  for (const IoTracePoint& point : trace) {
    EXPECT_GE(point.lane, 0);
    EXPECT_LT(point.lane, kWidth);
  }
  // The trace is appended under the disk mutex in read order, so the byte
  // count is strictly increasing; the virtual clock (serial accrual plus
  // the slowest lane) never moves backwards regardless of interleaving.
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GT(trace[i].cumulative_bytes, trace[i - 1].cumulative_bytes);
    EXPECT_GE(trace[i].virtual_seconds, trace[i - 1].virtual_seconds);
  }
}

TEST(SimulatedDiskTest, ResetStatsClearsCounters) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  disk.AppendPage(f, PatternPage(0).data());
  uint8_t buf[kPageSize];
  ASSERT_TRUE(disk.ReadPage({f, 0}, buf, nullptr).ok());
  disk.ResetStats();
  EXPECT_EQ(disk.total_bytes_read(), 0u);
  EXPECT_EQ(disk.total_seeks(), 0u);
  EXPECT_DOUBLE_EQ(disk.clock().now(), 0.0);
}

// A file of N pages holds exactly N page images, one kPageSize allocation
// each: appending, overwriting, reading, verifying and corrupting a page
// touch that page alone.
TEST(SimulatedDiskTest, FileOfNPagesHoldsNPageImages) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  const uint32_t g = disk.CreateFile();
  EXPECT_EQ(disk.PageImageBytes(), 0u);
  constexpr uint32_t kPages = 37;
  for (uint32_t p = 0; p < kPages; ++p) {
    EXPECT_EQ(disk.AppendPage(f, PatternPage(static_cast<uint8_t>(p)).data()),
              p);
  }
  disk.AppendPage(g, PatternPage(0xEE).data());
  EXPECT_EQ(disk.PageCount(f), kPages);
  EXPECT_EQ(disk.PageCount(g), 1u);
  EXPECT_EQ(disk.TotalStoredBytes(), (kPages + 1) * kPageSize);
  EXPECT_EQ(disk.PageImageBytes(), disk.TotalStoredBytes());
  EXPECT_TRUE(audit::Audit(disk, audit::AuditLevel::kFull).ok());

  disk.WritePage({f, 5}, PatternPage(0x77).data());
  uint8_t buf[kPageSize];
  for (uint32_t p = 0; p < kPages; ++p) {
    ASSERT_TRUE(disk.ReadPage({f, p}, buf, nullptr).ok());
    const uint8_t want = p == 5 ? 0x77 : static_cast<uint8_t>(p);
    EXPECT_EQ(buf[0], want);
    EXPECT_EQ(buf[kPageSize - 1], want);
  }
  EXPECT_EQ(disk.PageImageBytes(), (kPages + 1) * kPageSize);

  disk.CorruptPageForTesting({f, 36}, kPageSize - 1, 0x01);
  EXPECT_EQ(disk.VerifyPage({f, 36}).code(), StatusCode::kCorruption);
  EXPECT_TRUE(disk.VerifyPage({f, 35}).ok());
  EXPECT_TRUE(disk.VerifyPage({g, 0}).ok());
  EXPECT_EQ(disk.ReadPage({f, 36}, buf, nullptr).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(buf[kPageSize - 1], 36 ^ 0x01);  // the bytes still arrive
  // A quick audit checks only the byte accounting, which corruption does
  // not touch; a full one finds the page.
  EXPECT_TRUE(audit::Audit(disk, audit::AuditLevel::kQuick).ok());
  EXPECT_EQ(audit::Audit(disk, audit::AuditLevel::kFull).findings().size(),
            1u);
}

TEST(PageChecksumTest, EverySingleByteFlipChangesTheChecksum) {
  std::vector<uint8_t> page = RandomPage(1);
  const uint64_t clean = SimulatedDisk::PageChecksum(page.data());
  for (size_t offset = 0; offset < kPageSize; ++offset) {
    for (const uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}}) {
      page[offset] ^= mask;
      EXPECT_NE(SimulatedDisk::PageChecksum(page.data()), clean)
          << "offset " << offset << " mask " << int{mask};
      page[offset] ^= mask;
    }
  }
}

TEST(PageChecksumTest, TopBitFlipsInTwoWordsOfOneLaneAreCaught) {
  // Words w and w + 4 feed the same lane. Word-wise FNV-1a misses this
  // pair: multiplying by an odd constant keeps a bit-63 difference at bit
  // 63, so the second word's flip cancels the first.
  const auto word_fnv = [](const std::vector<uint8_t>& page) {
    uint64_t hash = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < kPageSize; i += 8) {
      uint64_t word;
      std::memcpy(&word, page.data() + i, 8);
      hash = (hash ^ word) * 0x100000001b3ull;
    }
    return hash;
  };
  std::vector<uint8_t> page = RandomPage(2);
  const uint64_t clean = SimulatedDisk::PageChecksum(page.data());
  const uint64_t clean_fnv = word_fnv(page);
  // Bit 63 of a little-endian word is the top bit of its last byte.
  const auto flip_top_bits = [&page](size_t word) {
    for (const size_t w : {word, word + 4}) page[w * 8 + 7] ^= 0x80;
  };
  for (size_t word = 0; word + 4 < kPageSize / 8; ++word) {
    flip_top_bits(word);
    EXPECT_EQ(word_fnv(page), clean_fnv) << "word " << word;
    EXPECT_NE(SimulatedDisk::PageChecksum(page.data()), clean)
        << "word " << word;
    flip_top_bits(word);
  }
}

TEST(PageChecksumTest, RewrittenPageStillVerifies) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  disk.AppendPage(f, RandomPage(3).data());
  const std::vector<uint8_t> rewritten = RandomPage(4);
  disk.WritePage({f, 0}, rewritten.data());
  EXPECT_TRUE(disk.VerifyPage({f, 0}).ok());
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(disk.ReadPage({f, 0}, buf.data(), nullptr).ok());
  EXPECT_EQ(buf, rewritten);
}

TEST(PageChecksumTest, CorruptedPageFailsRead) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  disk.AppendPage(f, RandomPage(5).data());
  disk.CorruptPageForTesting({f, 0}, 4095, 0x80);
  std::vector<uint8_t> buf(kPageSize);
  EXPECT_EQ(disk.ReadPage({f, 0}, buf.data(), nullptr).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(disk.VerifyPage({f, 0}).code(), StatusCode::kCorruption);
}

TEST(BufferPoolTest, MissThenHit) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  disk.AppendPage(f, PatternPage(0x5A).data());
  BufferPool pool(&disk, 16);  // swan-lint: allow(node-disk)
  {
    PageGuard g = pool.Fetch({f, 0});
    EXPECT_EQ(g.data()[0], 0x5A);
  }
  EXPECT_EQ(pool.misses(), 1u);
  { PageGuard g = pool.Fetch({f, 0}); }
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(disk.total_reads(), 1u);  // second fetch served from memory
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  for (int i = 0; i < 20; ++i) disk.AppendPage(f, PatternPage(i).data());
  BufferPool pool(&disk, 8);  // swan-lint: allow(node-disk)
  for (uint32_t p = 0; p < 20; ++p) {
    PageGuard g = pool.Fetch({f, p});
  }
  EXPECT_EQ(pool.resident_pages(), 8u);
  // Pages 12..19 are resident; page 0 was evicted -> refetch misses.
  const uint64_t misses_before = pool.misses();
  { PageGuard g = pool.Fetch({f, 0}); }
  EXPECT_EQ(pool.misses(), misses_before + 1);
  // Page 19 is still resident -> hit.
  const uint64_t hits_before = pool.hits();
  { PageGuard g = pool.Fetch({f, 19}); }
  EXPECT_EQ(pool.hits(), hits_before + 1);
}

TEST(BufferPoolTest, PinnedPagesSurviveEvictionPressure) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  for (int i = 0; i < 20; ++i) disk.AppendPage(f, PatternPage(i).data());
  BufferPool pool(&disk, 8);  // swan-lint: allow(node-disk)
  PageGuard pinned = pool.Fetch({f, 0});
  for (uint32_t p = 1; p < 20; ++p) {
    PageGuard g = pool.Fetch({f, p});
  }
  // The pinned page's bytes must still be valid.
  EXPECT_EQ(pinned.data()[0], 0);
  const uint64_t hits_before = pool.hits();
  PageGuard again = pool.Fetch({f, 0});
  EXPECT_EQ(pool.hits(), hits_before + 1);
}

TEST(BufferPoolTest, ClearForcesColdReads) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  disk.AppendPage(f, PatternPage(1).data());
  BufferPool pool(&disk, 16);  // swan-lint: allow(node-disk)
  { PageGuard g = pool.Fetch({f, 0}); }
  pool.Clear();
  { PageGuard g = pool.Fetch({f, 0}); }
  EXPECT_EQ(disk.total_reads(), 2u);
}

TEST(BufferPoolTest, WriteThroughUpdatesCacheAndDisk) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  disk.AppendPage(f, PatternPage(1).data());
  BufferPool pool(&disk, 16);  // swan-lint: allow(node-disk)
  { PageGuard g = pool.Fetch({f, 0}); }
  pool.WriteThrough({f, 0}, PatternPage(9).data());
  {
    PageGuard g = pool.Fetch({f, 0});
    EXPECT_EQ(g.data()[0], 9);
  }
  uint8_t buf[kPageSize];
  ASSERT_TRUE(disk.ReadPage({f, 0}, buf, nullptr).ok());
  EXPECT_EQ(buf[0], 9);
}

// Writes are copy-on-write: a guard pinned across a WriteThrough of its
// page keeps reading the bytes it was handed, while the frame is
// re-pointed at the new image, so the next fetch is a hit on the new bytes.
TEST(BufferPoolTest, PinnedGuardKeepsItsBytesAcrossWriteThrough) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  disk.AppendPage(f, PatternPage(1).data());
  BufferPool pool(&disk, 16);  // swan-lint: allow(node-disk)
  PageGuard old = pool.Fetch({f, 0});
  pool.WriteThrough({f, 0}, PatternPage(9).data());
  EXPECT_EQ(old.data()[0], 1);
  EXPECT_EQ(old.data()[kPageSize - 1], 1);
  {
    PageGuard fresh = pool.Fetch({f, 0});
    EXPECT_EQ(fresh.data()[0], 9);
    EXPECT_EQ(fresh.data()[kPageSize - 1], 9);
  }
  EXPECT_EQ(old.data()[0], 1);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(disk.total_reads(), 1u);
  EXPECT_EQ(pool.frame_bytes(), 0u);
  EXPECT_EQ(disk.PageImageBytes(), kPageSize);
  old = PageGuard();
  EXPECT_TRUE(audit::Audit(pool, audit::AuditLevel::kFull).ok());
  EXPECT_TRUE(audit::Audit(disk, audit::AuditLevel::kFull).ok());
}

// Corruption installs a new image too: a page cached before it keeps being
// served clean (its frame holds the old image, the one page's bytes held
// apart from the disk) until Clear(); the next fetch reads the corrupt
// image from disk and fails its checksum.
TEST(BufferPoolTest, CachedPageServedCleanUntilClear) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  disk.AppendPage(f, PatternPage(1).data());
  BufferPool pool(&disk, 16);  // swan-lint: allow(node-disk)
  { PageGuard g = pool.Fetch({f, 0}); }
  disk.CorruptPageForTesting({f, 0}, 17, 0x40);
  {
    PageGuard g;
    ASSERT_TRUE(pool.TryFetch({f, 0}, &g).ok());
    EXPECT_EQ(g.data()[17], 1);
  }
  EXPECT_EQ(pool.frame_bytes(), kPageSize);
  pool.Clear();
  EXPECT_EQ(pool.frame_bytes(), 0u);
  PageGuard g;
  EXPECT_EQ(pool.TryFetch({f, 0}, &g).code(), StatusCode::kCorruption);
  EXPECT_FALSE(g.valid());
  EXPECT_EQ(disk.total_reads(), 2u);
  EXPECT_TRUE(audit::Audit(pool, audit::AuditLevel::kFull).ok());
}

// Dropping a file frees its page images and leaves the file empty; its id
// stays taken, so the next file gets a new id and every page id keeps
// naming one page. A guard pinned on a dropped page keeps its bytes.
TEST(SimulatedDiskTest, DropFileFreesImagesAndNeverReusesItsId) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  const uint32_t g = disk.CreateFile();
  for (int i = 0; i < 3; ++i) disk.AppendPage(f, PatternPage(0x30 + i).data());
  disk.AppendPage(g, PatternPage(0x55).data());
  BufferPool pool(&disk, 16);  // swan-lint: allow(node-disk)
  PageGuard pinned = pool.Fetch({f, 2});
  disk.DropFile(f);
  EXPECT_EQ(disk.PageCount(f), 0u);
  EXPECT_EQ(disk.PageCount(g), 1u);
  EXPECT_EQ(disk.TotalStoredBytes(), kPageSize);
  EXPECT_EQ(disk.PageImageBytes(), kPageSize);
  EXPECT_EQ(pinned.data()[0], 0x32);
  EXPECT_EQ(pool.frame_bytes(), kPageSize);  // the pinned frame's image
  pinned = PageGuard();
  pool.Clear();
  EXPECT_EQ(pool.frame_bytes(), 0u);

  EXPECT_EQ(disk.FileCount(), 2u);
  const uint32_t h = disk.CreateFile();
  EXPECT_EQ(h, 2u);
  EXPECT_EQ(disk.AppendPage(h, PatternPage(0x66).data()), 0u);
  uint8_t buf[kPageSize];
  ASSERT_TRUE(disk.ReadPage({h, 0}, buf, nullptr).ok());
  EXPECT_EQ(buf[0], 0x66);
  disk.DropFile(g);
  EXPECT_EQ(disk.TotalStoredBytes(), kPageSize);
  EXPECT_EQ(disk.CreateFile(), 3u);
  EXPECT_TRUE(audit::Audit(disk, audit::AuditLevel::kFull).ok());
}

// The frame table is built on demand: a pool holds no frame until its
// first miss, then one more per miss until it reaches capacity, and
// recycles its frames from there on.
TEST(BufferPoolFrameTableTest, GrowsOneFramePerMiss) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  for (int i = 0; i < 40; ++i) disk.AppendPage(f, PatternPage(i).data());
  BufferPool big(&disk, 65536);  // swan-lint: allow(node-disk)
  EXPECT_EQ(big.frame_count(), 0u);
  EXPECT_EQ(big.frame_bytes(), 0u);
  EXPECT_EQ(big.frame_table_bytes(), 0u);
  for (uint32_t p = 0; p < 40; ++p) {
    PageGuard g = big.Fetch({f, p});
    EXPECT_EQ(g.data()[0], p);
    EXPECT_EQ(big.frame_count(), p + 1);
  }
  { PageGuard g = big.Fetch({f, 3}); }  // a hit creates no frame
  EXPECT_EQ(big.frame_count(), 40u);
  // The frames share the disk's images: they hold no page bytes apart.
  EXPECT_EQ(big.frame_bytes(), 0u);
  EXPECT_GT(big.frame_table_bytes(), 0u);
  big.Clear();  // frames return to the free list and are reused
  { PageGuard g = big.Fetch({f, 7}); }
  EXPECT_EQ(big.frame_count(), 40u);

  BufferPool small(&disk, 8);  // swan-lint: allow(node-disk)
  for (uint32_t p = 0; p < 40; ++p) {
    PageGuard g = small.Fetch({f, p});
    EXPECT_EQ(g.data()[kPageSize - 1], p);
  }
  EXPECT_EQ(small.frame_count(), 8u);
  EXPECT_EQ(small.misses(), 40u);
  EXPECT_TRUE(audit::Audit(small, audit::AuditLevel::kFull).ok());
}

// TryRead copies a page out without keeping a frame: a missing page is one
// miss and one disk read, a resident page one hit and no disk read.
TEST(BufferPoolFrameTableTest, TryReadKeepsNoFrame) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  const uint32_t f = disk.CreateFile();
  disk.AppendPage(f, PatternPage(0x21).data());
  disk.AppendPage(f, PatternPage(0x42).data());
  BufferPool pool(&disk, 16);  // swan-lint: allow(node-disk)
  uint8_t buf[kPageSize];
  ASSERT_TRUE(pool.TryRead({f, 0}, buf).ok());
  EXPECT_EQ(buf[kPageSize - 1], 0x21);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(disk.total_reads(), 1u);
  EXPECT_EQ(pool.frame_count(), 0u);
  ASSERT_TRUE(pool.TryRead({f, 0}, buf).ok());  // still not resident
  EXPECT_EQ(pool.misses(), 2u);
  EXPECT_EQ(disk.total_reads(), 2u);

  { PageGuard g = pool.Fetch({f, 1}); }
  ASSERT_TRUE(pool.TryRead({f, 1}, buf).ok());
  EXPECT_EQ(buf[0], 0x42);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(disk.total_reads(), 3u);
  EXPECT_EQ(pool.frame_count(), 1u);

  disk.CorruptPageForTesting({f, 0}, 9, 0x10);
  EXPECT_EQ(pool.TryRead({f, 0}, buf).code(), StatusCode::kCorruption);
  EXPECT_EQ(pool.frame_count(), 1u);
  EXPECT_TRUE(audit::Audit(pool, audit::AuditLevel::kFull).ok());
}

// Whole-file reads cost one miss and one sequential disk read per page,
// as before, but leave the pool without a frame.
TEST(BufferPoolFrameTableTest, FileReadsKeepNoFrame) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  PagedFile file(&disk);
  U64FileWriter writer(&file);
  std::vector<uint64_t> values(2500);
  for (uint64_t i = 0; i < values.size(); ++i) {
    values[i] = i * 3 + 1;
    writer.Append(values[i]);
  }
  writer.Finish();
  ASSERT_EQ(file.page_count(), 3u);
  BufferPool pool(&disk, 16);  // swan-lint: allow(node-disk)
  std::vector<uint64_t> back;
  ReadU64File(&pool, file, values.size(), &back);
  EXPECT_EQ(back, values);
  EXPECT_EQ(pool.misses(), 3u);
  EXPECT_EQ(disk.total_reads(), 3u);
  EXPECT_EQ(disk.total_seeks(), 1u);
  EXPECT_EQ(pool.frame_count(), 0u);

  PagedFile bytes_file(&disk);
  ByteFileWriter bytes_writer(&bytes_file);
  std::vector<uint8_t> bytes(kPageSize + 17);
  for (size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<uint8_t>(i);
  bytes_writer.Append(bytes.data(), bytes.size());
  bytes_writer.Finish();
  std::vector<uint8_t> bytes_back;
  ReadByteFile(&pool, bytes_file, bytes.size(), &bytes_back);
  EXPECT_EQ(bytes_back, bytes);
  EXPECT_EQ(pool.misses(), 5u);
  EXPECT_EQ(pool.frame_count(), 0u);
  std::vector<uint8_t> too_long;
  EXPECT_EQ(TryReadByteFile(&pool, bytes_file, 3 * kPageSize, &too_long)
                .code(),
            StatusCode::kCorruption);
}

TEST(PagedFileTest, U64RoundTrip) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  PagedFile file(&disk);
  U64FileWriter writer(&file);
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 3000; ++i) {
    values.push_back(i * 7 + 1);
    writer.Append(i * 7 + 1);
  }
  writer.Finish();
  BufferPool pool(&disk, 16);  // swan-lint: allow(node-disk)
  std::vector<uint64_t> back;
  ReadU64File(&pool, file, 3000, &back);
  EXPECT_EQ(back, values);
}

TEST(PagedFileTest, PartialLastPageIsPadded) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  PagedFile file(&disk);
  U64FileWriter writer(&file);
  writer.Append(42);
  writer.Finish();
  EXPECT_EQ(file.page_count(), 1u);
  BufferPool pool(&disk, 16);  // swan-lint: allow(node-disk)
  std::vector<uint64_t> back;
  ReadU64File(&pool, file, 1, &back);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0], 42u);
}

TEST(PagedFileTest, EmptyFileReadsEmpty) {
  SimulatedDisk disk;  // swan-lint: allow(node-disk)
  PagedFile file(&disk);
  U64FileWriter writer(&file);
  writer.Finish();
  BufferPool pool(&disk, 16);  // swan-lint: allow(node-disk)
  std::vector<uint64_t> back{1, 2, 3};
  ReadU64File(&pool, file, 0, &back);
  EXPECT_TRUE(back.empty());
}

TEST(PageIdTest, PackedIsUnique) {
  PageId a{1, 2}, b{2, 1};
  EXPECT_NE(a.Packed(), b.Packed());
  EXPECT_FALSE(a == b);
  EXPECT_TRUE((PageId{1, 2} == PageId{1, 2}));
}

}  // namespace
}  // namespace swan::storage
