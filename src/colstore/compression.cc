#include "colstore/compression.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>

#include "common/id_hash.h"
#include "common/macros.h"

namespace swan::colstore {

namespace {

constexpr uint8_t kTagRaw = 0;
constexpr uint8_t kTagRle = 1;
constexpr uint8_t kTagDelta = 2;
constexpr uint8_t kTagBitPack = 3;
constexpr uint8_t kTagDictBitPack = 4;

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

// Tolerant readers: the decode path reports malformed buffers as
// Status::Corruption (the caller decides whether that aborts), so every
// bounds check returns false instead of SWAN_CHECK-ing.
bool GetU64(std::span<const uint8_t> bytes, size_t* pos, uint64_t* v) {
  if (*pos + 8 > bytes.size()) return false;
  std::memcpy(v, bytes.data() + *pos, sizeof(*v));
  *pos += 8;
  return true;
}

bool GetU32(std::span<const uint8_t> bytes, size_t* pos, uint32_t* v) {
  if (*pos + 4 > bytes.size()) return false;
  std::memcpy(v, bytes.data() + *pos, sizeof(*v));
  *pos += 4;
  return true;
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

bool GetVarint(std::span<const uint8_t> bytes, size_t* pos, uint64_t* v) {
  *v = 0;
  int shift = 0;
  for (;;) {
    if (*pos >= bytes.size() || shift >= 64) return false;
    const uint8_t byte = bytes[(*pos)++];
    *v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return true;
    shift += 7;
  }
}

// Packs `count` values (value_at(i) < 2^width each) at `width` bits per
// value into `words`, which must be zero-initialized and sized
// (count*width + 63) / 64.
template <typename ValueAt>
void PackInto(uint64_t count, int width, uint64_t* words, ValueAt value_at) {
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t v = value_at(i);
    const uint64_t bit = i * static_cast<uint64_t>(width);
    const uint64_t word = bit >> 6;
    const int off = static_cast<int>(bit & 63);
    words[word] |= v << off;
    if (off + width > 64) words[word + 1] |= v >> (64 - off);
  }
}

uint64_t PackedWords(uint64_t count, int width) {
  return (count * static_cast<uint64_t>(width) + 63) / 64;
}

void AppendWords(std::vector<uint8_t>* out, std::span<const uint64_t> words) {
  if (words.empty()) return;  // memcpy from a null data() is UB
  const size_t at = out->size();
  out->resize(at + words.size() * 8);
  std::memcpy(out->data() + at, words.data(), words.size() * 8);
}

std::vector<uint8_t> EncodeRaw(std::span<const uint64_t> values) {
  std::vector<uint8_t> out(1 + values.size() * 8);
  out[0] = kTagRaw;
  if (!values.empty()) {
    std::memcpy(out.data() + 1, values.data(), values.size() * 8);
  }
  return out;
}

constexpr uint64_t kMaxRleRun = 0xFFFFFFFFull;

std::vector<uint8_t> EncodeRle(std::span<const uint64_t> values) {
  std::vector<uint8_t> out;
  out.push_back(kTagRle);
  size_t i = 0;
  while (i < values.size()) {
    size_t j = i + 1;
    while (j < values.size() && values[j] == values[i] &&
           j - i < kMaxRleRun) {
      ++j;
    }
    PutU64(&out, values[i]);
    PutU32(&out, static_cast<uint32_t>(j - i));
    i = j;
  }
  return out;
}

std::vector<uint8_t> EncodeDelta(std::span<const uint64_t> values) {
  std::vector<uint8_t> out;
  out.push_back(kTagDelta);
  uint64_t prev = 0;
  for (uint64_t v : values) {
    PutVarint(&out, ZigZag(static_cast<int64_t>(v - prev)));
    prev = v;
  }
  return out;
}

std::vector<uint8_t> EncodeBitPack(std::span<const uint64_t> values) {
  uint64_t max_value = 0;
  for (uint64_t v : values) max_value = std::max(max_value, v);
  const int width = BitWidthFor(max_value);
  std::vector<uint64_t> words(PackedWords(values.size(), width), 0);
  PackInto(values.size(), width, words.data(),
           [&](uint64_t i) { return values[i]; });
  std::vector<uint8_t> out;
  out.reserve(2 + words.size() * 8);
  out.push_back(kTagBitPack);
  out.push_back(static_cast<uint8_t>(width));
  AppendWords(&out, words);
  return out;
}

// The distinct values of `index` (a column's) ascending: the palette.
// Maps each value to its palette position, its dictionary code.
std::vector<uint64_t> NumberSorted(IdMap<uint32_t>* index) {
  std::vector<uint64_t> palette;
  palette.reserve(index->size());
  index->ForEach([&](uint64_t v, uint32_t) { palette.push_back(v); });
  std::sort(palette.begin(), palette.end());
  for (size_t code = 0; code < palette.size(); ++code) {
    (*index)[palette[code]] = static_cast<uint32_t>(code);
  }
  return palette;
}

// Encodes with `index`, which holds exactly the distinct `values`.
std::vector<uint8_t> EncodeDictBitPack(std::span<const uint64_t> values,
                                       IdMap<uint32_t>* index) {
  SWAN_CHECK_MSG(index->size() < (1ull << 32),
                 "dictionary codec requires < 2^32 distinct values");
  const std::vector<uint64_t> palette = NumberSorted(index);
  const int width = BitWidthFor(palette.empty() ? 0 : palette.size() - 1);
  std::vector<uint64_t> words(PackedWords(values.size(), width), 0);
  PackInto(values.size(), width, words.data(),
           [&](uint64_t i) { return *index->Find(values[i]); });
  std::vector<uint8_t> out;
  out.reserve(2 + 4 + palette.size() * 8 + words.size() * 8);
  out.push_back(kTagDictBitPack);
  out.push_back(static_cast<uint8_t>(width));
  PutU32(&out, static_cast<uint32_t>(palette.size()));
  AppendWords(&out, palette);
  AppendWords(&out, words);
  return out;
}

std::vector<uint8_t> EncodeDictBitPack(std::span<const uint64_t> values) {
  IdMap<uint32_t> index;
  for (uint64_t v : values) index.Insert(v);
  return EncodeDictBitPack(values, &index);
}

int VarintBytes(uint64_t v) {
  return v == 0 ? 1 : (static_cast<int>(std::bit_width(v)) + 6) / 7;
}

uint64_t DictBitPackBytes(uint64_t count, uint64_t distinct) {
  const int width = BitWidthFor(distinct == 0 ? 0 : distinct - 1);
  return 6 + 8 * distinct + 8 * PackedWords(count, width);
}

// kAuto: the exact encoded size of every candidate from one statistics
// pass, then one encode of the smallest (ties to the earlier of raw, rle,
// delta, bitpack, dict) — the same bytes as encoding all five and keeping
// the smallest.
std::vector<uint8_t> EncodeAuto(std::span<const uint64_t> values) {
  const uint64_t n = values.size();
  uint64_t runs = 0;
  uint64_t run_length = 0;
  uint64_t changes = 0;  // adjacent unequal pairs
  uint64_t delta_bytes = 0;
  uint64_t max_value = 0;
  bool ascending = true;
  bool descending = true;
  uint64_t prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t v = values[i];
    delta_bytes += VarintBytes(ZigZag(static_cast<int64_t>(v - prev)));
    max_value = std::max(max_value, v);
    if (i > 0 && v != prev) {
      ++changes;
      ascending = ascending && v > prev;
      descending = descending && v < prev;
    }
    if (i == 0 || v != prev || run_length == kMaxRleRun) {
      ++runs;
      run_length = 0;
    }
    ++run_length;
    prev = v;
  }

  const uint64_t sizes[] = {
      1 + 8 * n,
      1 + 12 * runs,
      1 + delta_bytes,
      2 + 8 * PackedWords(n, BitWidthFor(max_value)),
  };
  const ColumnCodec codecs[] = {ColumnCodec::kRaw, ColumnCodec::kRle,
                                ColumnCodec::kDelta, ColumnCodec::kBitPack};
  size_t best = 0;
  for (size_t c = 1; c < std::size(sizes); ++c) {
    if (sizes[c] < sizes[best]) best = c;
  }

  // The dictionary codec must beat the best strictly. A monotone column's
  // distinct count is its number of value changes plus one; any other
  // column counts its distinct values until the dictionary cannot win.
  if (ascending || descending) {
    if (DictBitPackBytes(n, n == 0 ? 0 : changes + 1) < sizes[best]) {
      return EncodeDictBitPack(values);
    }
  } else {
    IdMap<uint32_t> index;
    bool dict_wins = true;
    for (uint64_t v : values) {
      if (index.Insert(v) &&
          DictBitPackBytes(n, index.size()) >= sizes[best]) {
        dict_wins = false;
        break;
      }
    }
    if (dict_wins) return EncodeDictBitPack(values, &index);
  }
  return CompressU64(values, codecs[best]);
}

Status Corrupt(const char* what) { return Status::Corruption(what); }

// Copies `word_count` packed words starting at bytes[*pos] into `words`,
// appending one zero pad word so two-word straddling reads stay in
// bounds.
Status ReadPackedWords(std::span<const uint8_t> bytes, size_t* pos,
                       uint64_t word_count, std::vector<uint64_t>* words) {
  if (*pos + word_count * 8 > bytes.size()) {
    return Corrupt("corrupt bit-packed column: truncated word stream");
  }
  words->resize(word_count + 1, 0);
  std::memcpy(words->data(), bytes.data() + *pos, word_count * 8);
  (*words)[word_count] = 0;
  *pos += word_count * 8;
  return Status::OK();
}

}  // namespace

std::string ToString(ColumnCodec codec) {
  switch (codec) {
    case ColumnCodec::kRaw:
      return "raw";
    case ColumnCodec::kRle:
      return "rle";
    case ColumnCodec::kDelta:
      return "delta";
    case ColumnCodec::kBitPack:
      return "bitpack";
    case ColumnCodec::kDictBitPack:
      return "dictbitpack";
    case ColumnCodec::kAuto:
      return "auto";
  }
  return "?";
}

bool CodecFromString(std::string_view name, ColumnCodec* out) {
  for (ColumnCodec codec :
       {ColumnCodec::kRaw, ColumnCodec::kRle, ColumnCodec::kDelta,
        ColumnCodec::kBitPack, ColumnCodec::kDictBitPack,
        ColumnCodec::kAuto}) {
    if (name == ToString(codec)) {
      *out = codec;
      return true;
    }
  }
  return false;
}

int BitWidthFor(uint64_t v) {
  return std::max(1, static_cast<int>(std::bit_width(v)));
}

std::vector<uint8_t> CompressU64(std::span<const uint64_t> values,
                                 ColumnCodec codec) {
  switch (codec) {
    case ColumnCodec::kRaw:
      return EncodeRaw(values);
    case ColumnCodec::kRle:
      return EncodeRle(values);
    case ColumnCodec::kDelta:
      return EncodeDelta(values);
    case ColumnCodec::kBitPack:
      return EncodeBitPack(values);
    case ColumnCodec::kDictBitPack:
      return EncodeDictBitPack(values);
    case ColumnCodec::kAuto:
      return EncodeAuto(values);
  }
  SWAN_CHECK(false);
  return {};
}

ColumnCodec CodecOfEncoded(std::span<const uint8_t> bytes) {
  if (bytes.empty()) return ColumnCodec::kRaw;
  switch (bytes[0]) {
    case kTagRaw:
      return ColumnCodec::kRaw;
    case kTagRle:
      return ColumnCodec::kRle;
    case kTagDelta:
      return ColumnCodec::kDelta;
    case kTagBitPack:
      return ColumnCodec::kBitPack;
    case kTagDictBitPack:
      return ColumnCodec::kDictBitPack;
    default:
      return ColumnCodec::kRaw;
  }
}

Status TryParseEncoding(std::span<const uint8_t> bytes, uint64_t count,
                        ParsedEncoding* out) {
  *out = ParsedEncoding{};
  if (bytes.empty()) return Corrupt("empty compressed column buffer");
  size_t pos = 1;
  switch (bytes[0]) {
    case kTagRaw: {
      out->rep = ParsedEncoding::Rep::kFlat;
      if (pos + count * 8 > bytes.size()) {
        return Corrupt("corrupt compressed column: truncated raw payload");
      }
      out->flat.resize(count);
      if (count != 0) {
        std::memcpy(out->flat.data(), bytes.data() + pos, count * 8);
      }
      return Status::OK();
    }
    case kTagRle: {
      out->rep = ParsedEncoding::Rep::kRle;
      uint64_t at = 0;
      while (at < count) {
        uint64_t value;
        uint32_t run;
        if (!GetU64(bytes, &pos, &value) || !GetU32(bytes, &pos, &run)) {
          return Corrupt("corrupt compressed column: truncated RLE pair");
        }
        if (run == 0 || at + run > count) {
          return Corrupt("corrupt RLE run");
        }
        out->runs.push_back(RleRun{value, at, run});
        at += run;
      }
      return Status::OK();
    }
    case kTagDelta: {
      out->rep = ParsedEncoding::Rep::kFlat;
      out->flat.reserve(count);
      uint64_t prev = 0;
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t z;
        if (!GetVarint(bytes, &pos, &z)) {
          return Corrupt("corrupt varint in compressed column");
        }
        prev += static_cast<uint64_t>(UnZigZag(z));
        out->flat.push_back(prev);
      }
      return Status::OK();
    }
    case kTagBitPack: {
      out->rep = ParsedEncoding::Rep::kPacked;
      if (bytes.size() < 2) {
        return Corrupt("corrupt bit-packed column: missing width");
      }
      const int width = bytes[pos++];
      if (width < 1 || width > 64) {
        return Corrupt("corrupt bit-packed column: width out of range");
      }
      out->bit_width = width;
      const uint64_t word_count =
          (count * static_cast<uint64_t>(width) + 63) / 64;
      return ReadPackedWords(bytes, &pos, word_count, &out->words);
    }
    case kTagDictBitPack: {
      out->rep = ParsedEncoding::Rep::kPacked;
      if (bytes.size() < 2) {
        return Corrupt("corrupt dictionary column: missing width");
      }
      const int width = bytes[pos++];
      if (width < 1 || width > 64) {
        return Corrupt("corrupt dictionary column: width out of range");
      }
      out->bit_width = width;
      uint32_t dict_count;
      if (!GetU32(bytes, &pos, &dict_count)) {
        return Corrupt("corrupt dictionary column: missing palette size");
      }
      if (count > 0 && dict_count == 0) {
        return Corrupt("corrupt dictionary column: empty palette");
      }
      if (pos + static_cast<uint64_t>(dict_count) * 8 > bytes.size()) {
        return Corrupt("corrupt dictionary column: truncated palette");
      }
      out->palette.resize(dict_count);
      if (dict_count != 0) {
        std::memcpy(out->palette.data(), bytes.data() + pos,
                    static_cast<uint64_t>(dict_count) * 8);
      }
      pos += static_cast<uint64_t>(dict_count) * 8;
      for (size_t i = 1; i < out->palette.size(); ++i) {
        if (out->palette[i - 1] >= out->palette[i]) {
          return Corrupt("corrupt dictionary column: palette not sorted");
        }
      }
      const uint64_t word_count =
          (count * static_cast<uint64_t>(width) + 63) / 64;
      Status st = ReadPackedWords(bytes, &pos, word_count, &out->words);
      if (!st.ok()) return st;
      // Every code must index the palette; a single pass catches flipped
      // bits in the word stream that the header checks cannot.
      for (uint64_t i = 0; i < count; ++i) {
        if (PackedValueAt(out->words.data(), width, i) >= dict_count) {
          return Corrupt("corrupt dictionary column: code out of range");
        }
      }
      return Status::OK();
    }
    default:
      return Corrupt("unknown column codec tag");
  }
}

Status TryDecompressU64(std::span<const uint8_t> bytes, uint64_t count,
                        std::vector<uint64_t>* out) {
  ParsedEncoding enc;
  Status st = TryParseEncoding(bytes, count, &enc);
  if (!st.ok()) return st;
  switch (enc.rep) {
    case ParsedEncoding::Rep::kFlat:
      *out = std::move(enc.flat);
      break;
    case ParsedEncoding::Rep::kRle:
      out->clear();
      out->reserve(count);
      for (const RleRun& run : enc.runs) {
        out->insert(out->end(), run.length, run.value);
      }
      break;
    case ParsedEncoding::Rep::kPacked:
      out->clear();
      out->reserve(count);
      if (enc.palette.empty()) {
        for (uint64_t i = 0; i < count; ++i) {
          out->push_back(PackedValueAt(enc.words.data(), enc.bit_width, i));
        }
      } else {
        for (uint64_t i = 0; i < count; ++i) {
          out->push_back(enc.palette[PackedValueAt(enc.words.data(),
                                                   enc.bit_width, i)]);
        }
      }
      break;
  }
  SWAN_CHECK_EQ(out->size(), count);
  return Status::OK();
}

std::vector<uint64_t> DecompressU64(std::span<const uint8_t> bytes,
                                    uint64_t count) {
  std::vector<uint64_t> out;
  Status st = TryDecompressU64(bytes, count, &out);
  SWAN_CHECK_MSG(st.ok(), st.ToString().c_str());
  return out;
}

}  // namespace swan::colstore
