#ifndef SWANDB_COLSTORE_COMPRESSION_H_
#define SWANDB_COLSTORE_COMPRESSION_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace swan::colstore {

// Lightweight column codecs. The paper (§4.1) observes that "column-stores
// with compression (e.g., RLE or delta-compression) can achieve the same
// effect [as B+tree key-prefix compression] on the sorted property
// column": a PSO-sorted triple table effectively stops paying for its
// property column. These codecs make that observation measurable
// (bench/ablation_compression).
//
// The ids stored in columns are dense dictionary codes, so bit-packing
// (width = ceil(log2(dict size)) bits per value) applies to every column;
// dictionary+bit-packing additionally exploits low *column* cardinality
// when the values are unsorted (an object column with few distinct ids
// packs to ceil(log2(distinct)) bits plus a small palette).
enum class ColumnCodec {
  kRaw,          // 8 bytes per value
  kRle,          // (value u64, run u32) pairs — ideal for sorted low-cardinality
  kDelta,        // first value + zigzag-varint deltas — ideal for sorted ids
  kBitPack,      // fixed-width bit-packing, width = bits(max value)
  kDictBitPack,  // sorted palette of distinct values + bit-packed codes
  kAuto,         // smallest of the five; see CompressU64
};

std::string ToString(ColumnCodec codec);

// Parses a codec name as printed by ToString ("raw", "rle", "delta",
// "bitpack", "dictbitpack", "auto"). Returns false on an unknown name.
bool CodecFromString(std::string_view name, ColumnCodec* out);

// Bits needed to represent `v` (>= 1 so that width-0 columns of zeros
// still occupy one bit per value and the packed-word math never divides
// by zero).
int BitWidthFor(uint64_t v);

// Reads packed value `i` from a fixed-width word stream. `words` must be
// padded with one zero word past the last data word so the two-word read
// never runs off the end. The read is branch-free: the next word's bits
// shift in by 64 - off in two steps, which is 0 bits when off == 0, and
// bits past `width` are masked off.
inline uint64_t PackedValueAt(const uint64_t* words, int width, uint64_t i) {
  const uint64_t bit = i * static_cast<uint64_t>(width);
  const uint64_t word = bit >> 6;
  const int off = static_cast<int>(bit & 63);
  const uint64_t v =
      (words[word] >> off) | ((words[word + 1] << 1) << (63 - off));
  const uint64_t mask =
      width >= 64 ? ~0ull : (1ull << width) - 1;
  return v & mask;
}

// One equal-value run of an RLE-parsed column: values[start .. start +
// length) == value. Runs are emitted in position order; a sorted column
// therefore yields runs sorted by value as well.
struct RleRun {
  uint64_t value;
  uint64_t start;
  uint32_t length;
};

// The typed, still-compressed in-memory form of a CompressU64 buffer,
// parsed once after a cold load. This is what encoded execution operates
// on: kernels walk `runs` or unpack `words` directly instead of forcing a
// full raw materialization. Raw and delta buffers decode to kFlat (delta
// is a pure disk format — prefix sums have no exploitable in-memory
// structure).
struct ParsedEncoding {
  enum class Rep { kFlat, kRle, kPacked };
  Rep rep = Rep::kFlat;
  std::vector<uint64_t> flat;     // Rep::kFlat — fully decoded values
  std::vector<RleRun> runs;       // Rep::kRle
  std::vector<uint64_t> words;    // Rep::kPacked, +1 zero pad word
  int bit_width = 0;              // Rep::kPacked
  std::vector<uint64_t> palette;  // Rep::kPacked dict codec (else empty)
};

// Parses an encoded buffer into its typed representation; malformed input
// comes back as Status::Corruption.
[[nodiscard]] Status TryParseEncoding(std::span<const uint8_t> bytes,
                                      uint64_t count, ParsedEncoding* out);

// Encodes `values`. The first output byte records the codec actually used
// (kAuto resolves to a concrete one). kAuto writes the smallest of the five
// encodings, ties going to the earlier of raw, rle, delta, bitpack,
// dictbitpack. It does not try them: one statistics pass (run count, varint
// bytes, max bit width, and the distinct count, which an unsorted column
// counts only while the dictionary could still win) gives every
// candidate's exact size, and only the winner is encoded.
std::vector<uint8_t> CompressU64(std::span<const uint64_t> values,
                                 ColumnCodec codec);

// The codec a CompressU64 buffer was actually written with (its tag byte).
// An empty buffer reports kRaw.
ColumnCodec CodecOfEncoded(std::span<const uint8_t> bytes);

// Decodes a buffer produced by CompressU64; `count` must equal the
// original element count. Aborts on corrupt input (hot path).
std::vector<uint64_t> DecompressU64(std::span<const uint8_t> bytes,
                                    uint64_t count);

// Tolerant variant for the audit / TryFetch path: malformed input comes
// back as Status::Corruption instead of aborting, mirroring the page
// checksum discipline.
[[nodiscard]] Status TryDecompressU64(std::span<const uint8_t> bytes,
                                      uint64_t count,
                                      std::vector<uint64_t>* out);

}  // namespace swan::colstore

#endif  // SWANDB_COLSTORE_COMPRESSION_H_
