#include "colstore/column.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"
#include "common/mutex.h"

namespace swan::colstore {

// --- EncodedColumn --------------------------------------------------------

Status EncodedColumn::TryParse(std::span<const uint8_t> bytes, uint64_t count,
                               EncodedColumn* out) {
  out->size_ = count;
  return TryParseEncoding(bytes, count, &out->enc_);
}

EncodedColumn EncodedColumn::Parse(std::span<const uint8_t> bytes,
                                   uint64_t count) {
  EncodedColumn out;
  Status st = TryParse(bytes, count, &out);
  SWAN_CHECK_MSG(st.ok(), st.ToString().c_str());
  return out;
}

EncodedColumn EncodedColumn::FromValues(std::span<const uint64_t> values,
                                        ColumnCodec codec) {
  return Parse(CompressU64(values, codec), values.size());
}

EncodedColumn EncodedColumn::FromRaw(std::vector<uint64_t> values) {
  EncodedColumn out;
  out.size_ = values.size();
  out.enc_.rep = Rep::kFlat;
  out.enc_.flat = std::move(values);
  return out;
}

size_t EncodedColumn::RunIndexOf(uint64_t pos) const {
  SWAN_DCHECK_LT(pos, size_);
  const auto it = std::upper_bound(
      enc_.runs.begin(), enc_.runs.end(), pos,
      [](uint64_t p, const RleRun& r) { return p < r.start; });
  return static_cast<size_t>(it - enc_.runs.begin()) - 1;
}

uint64_t EncodedColumn::ValueAt(uint64_t i) const {
  switch (enc_.rep) {
    case Rep::kFlat:
      return enc_.flat[i];
    case Rep::kRle:
      return enc_.runs[RunIndexOf(i)].value;
    case Rep::kPacked:
      return DecodeCode(PackedValueAt(enc_.words.data(), enc_.bit_width, i));
  }
  SWAN_CHECK(false);
  return 0;
}

void EncodedColumn::MaterializeInto(uint64_t lo, uint64_t hi,
                                    uint64_t* out) const {
  SWAN_DCHECK_LE(lo, hi);
  SWAN_DCHECK_LE(hi, size_);
  switch (enc_.rep) {
    case Rep::kFlat:
      if (lo != hi) std::memcpy(out, enc_.flat.data() + lo, (hi - lo) * 8);
      return;
    case Rep::kRle: {
      if (lo == hi) return;
      uint64_t at = lo;
      for (size_t r = RunIndexOf(lo); at < hi; ++r) {
        const RleRun& run = enc_.runs[r];
        const uint64_t end = std::min<uint64_t>(run.start + run.length, hi);
        for (; at < end; ++at) out[at - lo] = run.value;
      }
      return;
    }
    case Rep::kPacked: {
      const uint64_t* words = enc_.words.data();
      const int width = enc_.bit_width;
      if (enc_.palette.empty()) {
        for (uint64_t i = lo; i < hi; ++i) {
          out[i - lo] = PackedValueAt(words, width, i);
        }
      } else {
        const uint64_t* palette = enc_.palette.data();
        for (uint64_t i = lo; i < hi; ++i) {
          out[i - lo] = palette[PackedValueAt(words, width, i)];
        }
      }
      return;
    }
  }
  SWAN_CHECK(false);
}

std::vector<uint64_t> EncodedColumn::Materialize() const {
  std::vector<uint64_t> out(size_);
  MaterializeInto(0, size_, out.data());
  return out;
}

bool EncodedColumn::CodeFor(uint64_t value, uint64_t* code) const {
  if (enc_.rep != Rep::kPacked || enc_.palette.empty()) {
    if (enc_.rep == Rep::kPacked && enc_.bit_width < 64 &&
        value >= (1ull << enc_.bit_width)) {
      return false;  // wider than the pack width: cannot occur
    }
    *code = value;
    return true;
  }
  const auto it =
      std::lower_bound(enc_.palette.begin(), enc_.palette.end(), value);
  if (it == enc_.palette.end() || *it != value) return false;
  *code = static_cast<uint64_t>(it - enc_.palette.begin());
  return true;
}

uint64_t EncodedColumn::memory_bytes() const {
  return enc_.flat.size() * sizeof(uint64_t) +
         enc_.runs.size() * sizeof(RleRun) +
         enc_.words.size() * sizeof(uint64_t) +
         enc_.palette.size() * sizeof(uint64_t);
}

// --- Column ---------------------------------------------------------------

void Column::Build(std::span<const uint64_t> values) {
  SWAN_CHECK_MSG(!built_, "Column::Build called twice");
  built_ = true;
  size_ = values.size();
  if (codec_ == ColumnCodec::kRaw) {
    // Fast path: the raw layout needs no staging buffer.
    stored_bytes_ = size_ * 8;
    resolved_codec_ = ColumnCodec::kRaw;
    storage::U64FileWriter writer(&file_);
    for (uint64_t v : values) writer.Append(v);
    writer.Finish();
    return;
  }
  const std::vector<uint8_t> encoded = CompressU64(values, codec_);
  stored_bytes_ = encoded.size();
  resolved_codec_ = CodecOfEncoded(encoded);
  storage::ByteFileWriter writer(&file_);
  writer.Append(encoded.data(), encoded.size());
  writer.Finish();
}

const EncodedColumn& Column::Encoded() const {
  SWAN_CHECK_MSG(built_, "Column::Encoded before Build");
  if (!loaded_.load(std::memory_order_acquire)) {
    MutexLock lock(&load_mutex_);
    if (!loaded_.load(std::memory_order_relaxed)) {
      if (codec_ == ColumnCodec::kRaw) {
        std::vector<uint64_t> values;
        storage::ReadU64File(pool_, file_, size_, &values);
        encoded_ = EncodedColumn::FromRaw(std::move(values));
      } else {
        std::vector<uint8_t> encoded;
        storage::ReadByteFile(pool_, file_, stored_bytes_, &encoded);
        encoded_ = EncodedColumn::Parse(encoded, size_);
      }
      loaded_.store(true, std::memory_order_release);
    }
  }
  return encoded_;
}

uint64_t Column::resident_bytes() const {
  MutexLock lock(&load_mutex_);
  return loaded_.load(std::memory_order_relaxed) ? encoded_.memory_bytes() : 0;
}

void Column::DropCache() const {
  MutexLock lock(&load_mutex_);
  encoded_ = EncodedColumn();
  loaded_.store(false, std::memory_order_release);
}

bool Column::AuditRead(const std::string& label, std::vector<uint64_t>* out,
                       audit::AuditReport* report) const {
  if (codec_ == ColumnCodec::kRaw) {
    Status st = storage::TryReadU64File(pool_, file_, size_, out);
    if (!st.ok()) {
      report->Add(audit::FindingClass::kChecksum, label, st.ToString());
      return false;
    }
    return true;
  }
  std::vector<uint8_t> encoded;
  Status st = storage::TryReadByteFile(pool_, file_, stored_bytes_, &encoded);
  if (!st.ok()) {
    report->Add(audit::FindingClass::kChecksum, label, st.ToString());
    return false;
  }
  // The page checksums passed but the encoding itself may still be
  // malformed (logical corruption behind a valid checksum); the tolerant
  // decoder turns that into a finding instead of aborting.
  st = TryDecompressU64(encoded, size_, out);
  if (!st.ok()) {
    report->Add(audit::FindingClass::kColumn, label, st.ToString());
    return false;
  }
  return true;
}

void Column::AuditInto(audit::AuditLevel level,
                       const ColumnAuditOptions& options,
                       audit::AuditReport* report) const {
  const std::string& label = options.label;
  if (!built_) {
    // An unbuilt column has no on-disk image; nothing to verify.
    return;
  }
  // Audits run at quiescent points, but take the load mutex anyway: the
  // kFull disk sweep below re-reads pages (pool < load in the rank
  // table), and holding it makes the cache comparisons rank-clean.
  MutexLock lock(&load_mutex_);
  // Metadata consistency: the recorded encoded size must agree with the
  // on-disk image. A divergence means cold-bytes accounting (and the
  // encoded cold load itself) is reading the wrong number of pages.
  const uint64_t expected_pages = (stored_bytes_ + storage::kPageSize - 1) /
                                  storage::kPageSize;
  if (expected_pages != file_.page_count()) {
    report->Add(audit::FindingClass::kColumn, label,
                "recorded encoded size " + std::to_string(stored_bytes_) +
                    " bytes implies " + std::to_string(expected_pages) +
                    " pages, on-disk file has " +
                    std::to_string(file_.page_count()));
  }
  // The cached image, decoded for the value checks.
  const bool cached = loaded_.load(std::memory_order_relaxed);
  const std::vector<uint64_t> cached_values =
      cached ? encoded_.Materialize() : std::vector<uint64_t>();
  if (cached && cached_values.size() != size_) {
    report->Add(audit::FindingClass::kColumn, label,
                "cached image has " + std::to_string(cached_values.size()) +
                    " values, declared size is " + std::to_string(size_));
  }
  if (level == audit::AuditLevel::kQuick) {
    // Quick audits verify whatever is already in memory, without paying
    // for a disk sweep.
    if (cached) AuditValues(label, cached_values, options, report);
    return;
  }
  std::vector<uint64_t> disk_values;
  if (!AuditRead(label, &disk_values, report)) return;
  if (disk_values.size() != size_) {
    report->Add(audit::FindingClass::kColumn, label,
                "on-disk image decodes to " +
                    std::to_string(disk_values.size()) +
                    " values, declared size is " + std::to_string(size_));
    return;
  }
  if (cached && cached_values != disk_values) {
    report->Add(audit::FindingClass::kColumn, label,
                "in-memory cache diverges from on-disk image");
  }
  AuditValues(label, disk_values, options, report);
}

void Column::AuditValues(const std::string& label,
                         const std::vector<uint64_t>& values,
                         const ColumnAuditOptions& options,
                         audit::AuditReport* report) {
  if (options.expect_sorted) {
    for (size_t i = 1; i < values.size(); ++i) {
      if (values[i - 1] > values[i]) {
        report->Add(audit::FindingClass::kColumn, label,
                    "declared sorted but values[" + std::to_string(i - 1) +
                        "]=" + std::to_string(values[i - 1]) +
                        " > values[" + std::to_string(i) +
                        "]=" + std::to_string(values[i]));
        break;  // one finding per column is enough; later entries follow
      }
    }
  }
  if (options.max_valid_id.has_value()) {
    const uint64_t bound = *options.max_valid_id;
    for (size_t i = 0; i < values.size(); ++i) {
      if (values[i] >= bound) {
        report->Add(audit::FindingClass::kColumn, label,
                    "values[" + std::to_string(i) + "]=" +
                        std::to_string(values[i]) +
                        " outside dictionary id range [0, " +
                        std::to_string(bound) + ")");
        break;
      }
    }
  }
}

}  // namespace swan::colstore
