#include "storage/paged_file.h"

#include <algorithm>

#include "common/macros.h"

namespace swan::storage {

void U64FileWriter::Append(uint64_t value) {
  std::memcpy(buffer_ + fill_, &value, sizeof(value));
  fill_ += sizeof(value);
  ++count_;
  if (fill_ == kPageSize) {
    file_->AppendPage(buffer_);
    fill_ = 0;
  }
}

void U64FileWriter::Finish() {
  if (fill_ > 0) {
    std::memset(buffer_ + fill_, 0, kPageSize - fill_);
    file_->AppendPage(buffer_);
    fill_ = 0;
  }
}

void ByteFileWriter::Append(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  while (size > 0) {
    const size_t take = std::min(size, kPageSize - fill_);
    std::memcpy(buffer_ + fill_, bytes, take);
    fill_ += take;
    bytes += take;
    size -= take;
    byte_count_ += take;
    if (fill_ == kPageSize) {
      file_->AppendPage(buffer_);
      fill_ = 0;
    }
  }
}

void ByteFileWriter::Finish() {
  if (fill_ > 0) {
    std::memset(buffer_ + fill_, 0, kPageSize - fill_);
    file_->AppendPage(buffer_);
    fill_ = 0;
  }
}

namespace {

// Reads the first `bytes` bytes of `file` into `dst` through `pool`'s
// read-through path, one page at a time in page order, keeping no frame:
// the caller's buffer is the one in-memory copy. Whole pages land in
// `dst` directly; only a partial last page passes through a page buffer.
Status ReadPrefix(BufferPool* pool, const PagedFile& file, uint64_t bytes,
                  uint8_t* dst, const char* short_file) {
  const uint32_t pages = file.page_count();
  uint64_t done = 0;
  for (uint32_t p = 0; p < pages && done < bytes; ++p) {
    const uint64_t take = std::min<uint64_t>(bytes - done, kPageSize);
    if (take == kPageSize) {
      SWAN_RETURN_NOT_OK(pool->TryRead(file.page_id(p), dst + done));
    } else {
      alignas(8) uint8_t last[kPageSize];
      SWAN_RETURN_NOT_OK(pool->TryRead(file.page_id(p), last));
      std::memcpy(dst + done, last, take);
    }
    done += take;
  }
  if (done != bytes) return Status::Corruption(short_file);
  return Status::OK();
}

}  // namespace

Status TryReadByteFile(BufferPool* pool, const PagedFile& file,
                       uint64_t count, std::vector<uint8_t>* out) {
  out->resize(count);
  return ReadPrefix(pool, file, count, out->data(),
                    "byte file shorter than declared count");
}

void ReadByteFile(BufferPool* pool, const PagedFile& file, uint64_t count,
                  std::vector<uint8_t>* out) {
  Status st = TryReadByteFile(pool, file, count, out);
  SWAN_CHECK_MSG(st.ok(), st.ToString().c_str());
}

Status TryReadU64File(BufferPool* pool, const PagedFile& file, uint64_t count,
                      std::vector<uint64_t>* out) {
  out->resize(count);
  return ReadPrefix(pool, file, count * sizeof(uint64_t),
                    reinterpret_cast<uint8_t*>(out->data()),
                    "column file shorter than declared count");
}

void ReadU64File(BufferPool* pool, const PagedFile& file, uint64_t count,
                 std::vector<uint64_t>* out) {
  Status st = TryReadU64File(pool, file, count, out);
  SWAN_CHECK_MSG(st.ok(), st.ToString().c_str());
}

}  // namespace swan::storage
