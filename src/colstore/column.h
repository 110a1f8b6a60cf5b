#ifndef SWANDB_COLSTORE_COLUMN_H_
#define SWANDB_COLSTORE_COLUMN_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "common/mutex.h"
#include "colstore/compression.h"
#include "storage/buffer_pool.h"
#include "storage/paged_file.h"
#include "storage/simulated_disk.h"

namespace swan::colstore {

// What a Column audit should verify beyond structural integrity. Columns
// themselves do not know whether their contents are declared sorted or
// what id universe they draw from — the owning table does, and passes it
// down here.
struct ColumnAuditOptions {
  std::string label = "column";
  // Sortedness the physical design declares (e.g. the primary sort
  // component of a TripleTable, a VerticalTable subject column).
  bool expect_sorted = false;
  // Upper bound (exclusive) for every stored value — the dictionary-code
  // range check: an id >= dict size can never decode to a term.
  std::optional<uint64_t> max_valid_id;
};

// The compressed execution representation of one column: a parsed
// ParsedEncoding plus the logical row count, with positional access and
// ranged materialization. This is what the encoded kernels in ops.h
// consume — they walk RLE runs or unpack bit-packed batches and
// decompress values only at final projection. Immutable after
// construction, so safe to share across ParallelFor chunks.
class EncodedColumn {
 public:
  using Rep = ParsedEncoding::Rep;

  EncodedColumn() = default;

  // Parses a CompressU64 buffer; malformed input is Status::Corruption.
  [[nodiscard]] static Status TryParse(std::span<const uint8_t> bytes,
                                       uint64_t count, EncodedColumn* out);
  // Aborting variant (hot path).
  static EncodedColumn Parse(std::span<const uint8_t> bytes, uint64_t count);
  // Encode + parse in one step, for tests and benches that have no disk.
  static EncodedColumn FromValues(std::span<const uint64_t> values,
                                  ColumnCodec codec);
  // Wraps already-decoded values as a kFlat view (the kRaw load path).
  static EncodedColumn FromRaw(std::vector<uint64_t> values);

  Rep rep() const { return enc_.rep; }
  uint64_t size() const { return size_; }

  // Random access. O(1) for flat and packed reps, O(log runs) for RLE —
  // kernels that touch many positions should use the run cursor in ops.cc
  // or MaterializeInto instead.
  uint64_t ValueAt(uint64_t i) const;

  // Decodes positions [lo, hi) into out[0 .. hi-lo). The projection-time
  // decompression primitive: kernels call it per cache-sized chunk.
  void MaterializeInto(uint64_t lo, uint64_t hi, uint64_t* out) const;

  // Full raw materialization, for tests and audits.
  std::vector<uint64_t> Materialize() const;

  // Rep-specific accessors; only valid for the matching rep().
  const std::vector<uint64_t>& flat() const { return enc_.flat; }
  const std::vector<RleRun>& runs() const { return enc_.runs; }
  const std::vector<uint64_t>& words() const { return enc_.words; }
  int bit_width() const { return enc_.bit_width; }
  const std::vector<uint64_t>& palette() const { return enc_.palette; }

  // Index of the run containing position `pos` (rep() == kRle).
  size_t RunIndexOf(uint64_t pos) const;

  // Decoded value of a packed code (palette lookup, or identity for plain
  // bit-packing).
  uint64_t DecodeCode(uint64_t code) const {
    return enc_.palette.empty() ? code : enc_.palette[code];
  }

  // Packed-domain image of a decoded value, if it has one: predicates can
  // then compare codes without decoding. Returns false when `value`
  // cannot appear in this column (not in the palette / wider than the
  // pack width), i.e. a guaranteed-empty selection.
  bool CodeFor(uint64_t value, uint64_t* code) const;

  // Approximate in-memory footprint of the cached representation — the
  // "hot memory shrinks alongside cold bytes" half of compressed
  // execution.
  uint64_t memory_bytes() const;

 private:
  ParsedEncoding enc_;
  uint64_t size_ = 0;
};

// A disk-resident column of uint64 ids, the MonetDB BAT tail. The first
// access after a cache drop streams the whole (encoded) column from disk
// sequentially — this is the column store's "cold" cost the paper
// measures (triple-store must read the complete triples table; the
// vertical scheme only the partitions a query touches, §4.3).
//
// The one in-memory image is Encoded(): the parsed compressed
// representation the cold load produces. Every reader runs the encoded
// kernels of ops.h on it, which decode only the rows they project.
class Column {
 public:
  // `codec` controls the on-disk representation: compressed columns read
  // fewer pages on a cold load at the cost of decode CPU (§4.1's RLE /
  // delta discussion; quantified by bench/ablation_compression).
  Column(storage::BufferPool* pool, storage::SimulatedDisk* disk,
         ColumnCodec codec = ColumnCodec::kRaw)
      : pool_(pool), file_(disk), codec_(codec) {}

  Column(const Column&) = delete;
  Column& operator=(const Column&) = delete;

  // Writes `values` to disk. May only be called once, before any
  // Encoded().
  void Build(std::span<const uint64_t> values);

  // Encoded view of the column; cold-loads (and parses) the compressed
  // image if not cached. Thread-safe: concurrent first accesses serialize
  // on a load mutex so the column is streamed from disk exactly once.
  // Excluded from static analysis: the double-checked fast path returns
  // the cache without the lock, published safely by the loaded_
  // acquire/release pair.
  const EncodedColumn& Encoded() const SWAN_NO_THREAD_SAFETY_ANALYSIS;

  // Drops the in-memory image (cold-run protocol). Not safe against
  // concurrent Encoded() — the harness only drops caches between runs.
  void DropCache() const SWAN_EXCLUDES(load_mutex_);

  bool loaded() const { return loaded_.load(std::memory_order_acquire); }
  // Bytes of the cached image (EncodedColumn::memory_bytes), 0 when not
  // loaded. The image is the column's one in-memory copy: its load keeps
  // no buffer-pool frame.
  uint64_t resident_bytes() const SWAN_EXCLUDES(load_mutex_);
  uint64_t size() const { return size_; }
  uint64_t disk_bytes() const {
    return static_cast<uint64_t>(file_.page_count()) * storage::kPageSize;
  }
  // Exact byte size of the on-disk payload (encoded bytes; 8 per value
  // for kRaw) vs the full-width logical image — the pair every
  // cold-bytes accounting report shows side by side.
  uint64_t stored_bytes() const { return stored_bytes_; }
  uint64_t logical_bytes() const { return size_ * 8; }
  uint32_t file_id() const { return file_.file_id(); }

  ColumnCodec codec() const { return codec_; }
  // The concrete codec Build wrote (kAuto resolves per column).
  ColumnCodec resolved_codec() const { return resolved_codec_; }

  // Audit walker. At kQuick, verifies the declared size, sortedness and
  // id-range constraints of `options` on the cached image, if loaded. At
  // kFull, re-reads the column from disk (tolerantly: checksum mismatches
  // and malformed encodings become findings), verifies the same
  // constraints on it and compares it with the cached image. At every
  // level, checks that the recorded encoded size is consistent with the
  // on-disk page count.
  void AuditInto(audit::AuditLevel level, const ColumnAuditOptions& options,
                 audit::AuditReport* report) const SWAN_EXCLUDES(load_mutex_);

  // AuditInto with default options (structural checks only).
  void AuditInto(audit::AuditLevel level, audit::AuditReport* report) const {
    AuditInto(level, ColumnAuditOptions{}, report);
  }

  // Re-reads and decodes the on-disk image without touching the cache,
  // for owning tables that need the materialized values to verify
  // cross-column invariants. Returns false (with a finding added) on
  // corrupt pages or a malformed encoding.
  bool AuditRead(const std::string& label, std::vector<uint64_t>* out,
                 audit::AuditReport* report) const;

  // Desyncs the recorded encoded size from the on-disk image so tests
  // can exercise the stored-bytes audit finding.
  void CorruptStoredBytesForTesting(uint64_t stored_bytes) {
    stored_bytes_ = stored_bytes;
  }

 private:
  static void AuditValues(const std::string& label,
                          const std::vector<uint64_t>& values,
                          const ColumnAuditOptions& options,
                          audit::AuditReport* report);

  storage::BufferPool* pool_;
  storage::PagedFile file_;
  ColumnCodec codec_;
  ColumnCodec resolved_codec_ = ColumnCodec::kRaw;
  uint64_t size_ = 0;
  uint64_t stored_bytes_ = 0;  // exact on-disk payload bytes
  bool built_ = false;

  // Cache state is logically not part of the column's value. loaded_ is
  // the double-checked-locking publication flag for encoded_: set with
  // release order after the load completes under load_mutex_, read with
  // acquire order on the fast path. load_mutex_ outranks the buffer pool
  // and disk because the load streams pages while holding it.
  mutable Mutex load_mutex_{LockRank::kColumnLoad, "colstore.column-load"};
  mutable EncodedColumn encoded_ SWAN_GUARDED_BY(load_mutex_);
  mutable std::atomic<bool> loaded_{false};
};

}  // namespace swan::colstore

#endif  // SWANDB_COLSTORE_COLUMN_H_
