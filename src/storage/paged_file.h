#ifndef SWANDB_STORAGE_PAGED_FILE_H_
#define SWANDB_STORAGE_PAGED_FILE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/simulated_disk.h"

namespace swan::storage {

// A growable sequence of pages inside one simulated-disk file. Convenience
// wrapper used by both engines for their persistent segments.
class PagedFile {
 public:
  explicit PagedFile(SimulatedDisk* disk)
      : disk_(disk), file_id_(disk->CreateFile()) {}

  PagedFile(const PagedFile&) = delete;
  PagedFile& operator=(const PagedFile&) = delete;
  PagedFile(PagedFile&&) = default;

  uint32_t AppendPage(const void* data) {
    return disk_->AppendPage(file_id_, data);
  }

  uint32_t file_id() const { return file_id_; }
  uint32_t page_count() const { return disk_->PageCount(file_id_); }
  PageId page_id(uint32_t page_no) const { return PageId{file_id_, page_no}; }
  SimulatedDisk* disk() const { return disk_; }

 private:
  SimulatedDisk* disk_;
  uint32_t file_id_;
};

// Streams an array of uint64 values into pages of a PagedFile (loading
// path) and reads them back through a buffer pool (query path). This is
// the column store's on-disk column format: raw little-endian uint64
// values, kPageSize/8 per page, last page zero-padded.
class U64FileWriter {
 public:
  explicit U64FileWriter(PagedFile* file) : file_(file) {}

  void Append(uint64_t value);
  // Flushes a trailing partial page (if any).
  void Finish();

  uint64_t count() const { return count_; }

 private:
  PagedFile* file_;
  uint64_t count_ = 0;
  size_t fill_ = 0;
  alignas(8) uint8_t buffer_[kPageSize] = {};
};

// Reads `count` uint64 values of a column file through `pool` into `out`.
// Every page is read exactly once, in order, so a cold read is one
// sequential sweep of the file — the MonetDB-style "read the whole column"
// cost the paper measures. The pages go through BufferPool::TryRead: a
// resident page is copied as a hit, a missing one is read from disk into
// `out` as a miss, and no frame is kept, so `out` is the one in-memory
// copy. Aborts on a checksum mismatch (hot path).
void ReadU64File(BufferPool* pool, const PagedFile& file, uint64_t count,
                 std::vector<uint64_t>* out);

// Tolerant variant for the audit walkers: a checksum mismatch or a file
// shorter than `count` comes back as Status::Corruption.
[[nodiscard]] Status TryReadU64File(BufferPool* pool, const PagedFile& file,
                                    uint64_t count,
                                    std::vector<uint64_t>* out);

// Streams an arbitrary byte sequence into pages (used for compressed
// column segments).
class ByteFileWriter {
 public:
  explicit ByteFileWriter(PagedFile* file) : file_(file) {}

  void Append(const void* data, size_t size);
  // Flushes a trailing partial page (if any).
  void Finish();

  uint64_t byte_count() const { return byte_count_; }

 private:
  PagedFile* file_;
  uint64_t byte_count_ = 0;
  size_t fill_ = 0;
  uint8_t buffer_[kPageSize] = {};
};

// Reads `count` bytes of a byte file through `pool`, sequentially and
// keeping no frame (see ReadU64File).
void ReadByteFile(BufferPool* pool, const PagedFile& file, uint64_t count,
                  std::vector<uint8_t>* out);

// Tolerant variant of ReadByteFile (see TryReadU64File).
[[nodiscard]] Status TryReadByteFile(BufferPool* pool, const PagedFile& file,
                                     uint64_t count,
                                     std::vector<uint8_t>* out);

}  // namespace swan::storage

#endif  // SWANDB_STORAGE_PAGED_FILE_H_
