#include "storage/simulated_disk.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <string>

#include "common/macros.h"
#include "common/mutex.h"

namespace swan::storage {

SimulatedDisk::SimulatedDisk(DiskConfig config) : config_(config) {}

namespace {

constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;

// xxHash64's round. For a fixed accumulator it is a bijection of the
// word (multiplying by an odd constant, adding and rotating all are), and
// for a fixed word a bijection of the accumulator.
inline uint64_t ChecksumRound(uint64_t acc, uint64_t word) {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

}  // namespace

uint64_t SimulatedDisk::PageChecksum(const void* data) {
  // Four independent lanes over interleaved 64-bit words, so the
  // multiplies of neighbouring words overlap instead of forming one
  // dependent chain; the lanes then fold through the same round. A change
  // confined to one word (in particular any single-byte flip) alters that
  // word's lane, every later round of the lane preserves the difference,
  // and so does every fold round: it always changes the checksum.
  static_assert(kPageSize % (4 * sizeof(uint64_t)) == 0);
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t lanes[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
  for (size_t i = 0; i < kPageSize; i += sizeof(lanes)) {
    for (int l = 0; l < 4; ++l) {
      uint64_t word;
      std::memcpy(&word, bytes + i + l * sizeof(uint64_t), sizeof(word));
      lanes[l] = ChecksumRound(lanes[l], word);
    }
  }
  uint64_t hash = kPageSize;
  for (const uint64_t lane : lanes) hash = ChecksumRound(hash, lane);
  return hash;
}

uint32_t SimulatedDisk::CreateFile() {
  MutexLock lock(&mutex_);
  files_.emplace_back();
  return static_cast<uint32_t>(files_.size() - 1);
}

void SimulatedDisk::DropFile(uint32_t file_id) {
  std::vector<Page> dropped;  // freed after the lock
  MutexLock lock(&mutex_);
  SWAN_CHECK_LT(file_id, files_.size());
  dropped.swap(files_[file_id]);
}

namespace {

std::shared_ptr<uint8_t[]> CopyImage(const void* data) {
  auto image = std::make_shared_for_overwrite<uint8_t[]>(kPageSize);
  std::memcpy(image.get(), data, kPageSize);
  return image;
}

Status ChecksumMismatch(PageId id) {
  return Status::Corruption("checksum mismatch on page " +
                            std::to_string(id.page_no) + " of file " +
                            std::to_string(id.file_id));
}

}  // namespace

uint32_t SimulatedDisk::AppendPage(uint32_t file_id, const void* data) {
  Page page{CopyImage(data), PageChecksum(data)};
  MutexLock lock(&mutex_);
  SWAN_CHECK_LT(file_id, files_.size());
  auto& pages = files_[file_id];
  pages.push_back(std::move(page));
  return static_cast<uint32_t>(pages.size() - 1);
}

PageImage SimulatedDisk::WritePage(PageId id, const void* data) {
  Page page{CopyImage(data), PageChecksum(data)};
  MutexLock lock(&mutex_);
  SWAN_CHECK_LT(id.file_id, files_.size());
  auto& pages = files_[id.file_id];
  SWAN_CHECK_LT(id.page_no, pages.size());
  std::swap(pages[id.page_no], page);  // the old image is freed after the lock
  return pages[id.page_no].image;
}

Status SimulatedDisk::ReadPage(PageId id, PageImage* out,
                               exec::TaskContext* task) {
  uint64_t expected_checksum = 0;
  {
    MutexLock lock(&mutex_);
    SWAN_CHECK_LT(id.file_id, files_.size());
    const auto& pages = files_[id.file_id];
    SWAN_CHECK_MSG(id.page_no < pages.size(), "read past end of file");
    *out = pages[id.page_no].image;
    expected_checksum = pages[id.page_no].checksum;

    // Charge the I/O model. Stream contiguity is judged against the
    // serial stream (no task) or the task's own stream — never across
    // tasks, so parallel accrual is interleaving-independent.
    bool seek = true;
    if (task == nullptr) {
      if (has_last_read_ && id.file_id == last_read_.file_id &&
          id.page_no == last_read_.page_no + 1) {
        seek = false;
        ++run_length_pages_;
        if (config_.forced_seek_interval_pages > 0 &&
            run_length_pages_ >= config_.forced_seek_interval_pages) {
          seek = true;
        }
      }
      if (seek) run_length_pages_ = 0;
      has_last_read_ = true;
      last_read_ = id;
    } else {
      if (task->io_has_last && id.file_id == task->io_last_file &&
          id.page_no == task->io_last_page + 1) {
        seek = false;
        ++task->io_run_length;
        if (config_.forced_seek_interval_pages > 0 &&
            task->io_run_length >= config_.forced_seek_interval_pages) {
          seek = true;
        }
      }
      if (seek) task->io_run_length = 0;
      task->io_has_last = true;
      task->io_last_file = id.file_id;
      task->io_last_page = id.page_no;
    }

    double seconds =
        static_cast<double>(kPageSize) / (config_.bandwidth_mb_per_s * 1e6);
    if (seek) {
      seconds += config_.seek_latency_ms * 1e-3;
      ++total_seeks_;
    }
    if (task == nullptr) {
      serial_seconds_ += seconds;
    } else {
      const size_t lane = static_cast<size_t>(task->lane);
      if (lane_seconds_.size() <= lane) lane_seconds_.resize(lane + 1, 0.0);
      lane_seconds_[lane] += seconds;
      max_lane_seconds_ = std::max(max_lane_seconds_, lane_seconds_[lane]);
    }
    // Wall-cost semantics: serial accrual plus the slowest parallel lane.
    clock_.Advance(serial_seconds_ + max_lane_seconds_ - clock_.now());
    total_bytes_read_ += kPageSize;
    ++total_reads_;
    if (tracing_) {
      trace_.push_back(
          {clock_.now(), total_bytes_read_, task == nullptr ? -1 : task->lane});
    }
  }

  // Verify outside the lock (the transfer happened, the payload is bad);
  // concurrent readers overlap their checksum CPU.
  if (PageChecksum(out->get()) != expected_checksum) {
    return ChecksumMismatch(id);
  }
  return Status::OK();
}

Status SimulatedDisk::ReadPage(PageId id, void* out,
                               exec::TaskContext* task) {
  PageImage image;
  const Status st = ReadPage(id, &image, task);
  std::memcpy(out, image.get(), kPageSize);
  return st;
}

bool SimulatedDisk::HoldsImage(PageId id, const uint8_t* image) const {
  MutexLock lock(&mutex_);
  SWAN_CHECK_LT(id.file_id, files_.size());
  const auto& pages = files_[id.file_id];
  return id.page_no < pages.size() && pages[id.page_no].image.get() == image;
}

Status SimulatedDisk::VerifyPage(PageId id) const {
  MutexLock lock(&mutex_);
  SWAN_CHECK_LT(id.file_id, files_.size());
  const auto& pages = files_[id.file_id];
  SWAN_CHECK_MSG(id.page_no < pages.size(), "verify past end of file");
  const Page& page = pages[id.page_no];
  if (PageChecksum(page.image.get()) != page.checksum) {
    return ChecksumMismatch(id);
  }
  return Status::OK();
}

Status SimulatedDisk::VerifyFile(uint32_t file_id) const {
  const uint32_t pages = PageCount(file_id);
  for (uint32_t p = 0; p < pages; ++p) {
    SWAN_RETURN_NOT_OK(VerifyPage(PageId{file_id, p}));
  }
  return Status::OK();
}

void SimulatedDisk::CorruptPageForTesting(PageId id, size_t offset,
                                          uint8_t xor_mask) {
  MutexLock lock(&mutex_);
  SWAN_CHECK_LT(id.file_id, files_.size());
  SWAN_CHECK_LT(offset, kPageSize);
  auto& pages = files_[id.file_id];
  SWAN_CHECK_LT(id.page_no, pages.size());
  auto image = CopyImage(pages[id.page_no].image.get());
  image[offset] ^= xor_mask;  // checksum left stale
  pages[id.page_no].image = std::move(image);
}

void SimulatedDisk::AuditInto(audit::AuditLevel level,
                              audit::AuditReport* report) const {
  const uint64_t held = PageImageBytes();
  const uint64_t stored = TotalStoredBytes();
  if (held > stored) {
    report->Add(audit::FindingClass::kStructure, "disk",
                "page images hold " + std::to_string(held) +
                    " bytes for " + std::to_string(stored) + " stored");
  }
  if (level < audit::AuditLevel::kFull) return;
  const uint32_t file_count = FileCount();
  for (uint32_t f = 0; f < file_count; ++f) {
    const uint32_t pages = PageCount(f);
    for (uint32_t p = 0; p < pages; ++p) {
      Status st = VerifyPage(PageId{f, p});
      if (!st.ok()) {
        report->Add(audit::FindingClass::kChecksum,
                    "disk file " + std::to_string(f), st.message());
      }
    }
  }
}

uint32_t SimulatedDisk::PageCount(uint32_t file_id) const {
  MutexLock lock(&mutex_);
  SWAN_CHECK_LT(file_id, files_.size());
  return static_cast<uint32_t>(files_[file_id].size());
}

uint32_t SimulatedDisk::FileCount() const {
  MutexLock lock(&mutex_);
  return static_cast<uint32_t>(files_.size());
}

void SimulatedDisk::ResetStats() {
  MutexLock lock(&mutex_);
  total_bytes_read_ = 0;
  total_reads_ = 0;
  total_seeks_ = 0;
  clock_.Reset();
  has_last_read_ = false;
  run_length_pages_ = 0;
  serial_seconds_ = 0.0;
  lane_seconds_.clear();
  max_lane_seconds_ = 0.0;
}

void SimulatedDisk::StartTrace() {
  MutexLock lock(&mutex_);
  tracing_ = true;
  trace_.clear();
}

std::vector<IoTracePoint> SimulatedDisk::StopTrace() {
  MutexLock lock(&mutex_);
  tracing_ = false;
  return std::move(trace_);
}

uint64_t SimulatedDisk::TotalStoredBytes() const {
  MutexLock lock(&mutex_);
  uint64_t total = 0;
  for (const auto& pages : files_) total += pages.size() * kPageSize;
  return total;
}

uint64_t SimulatedDisk::PageImageBytes() const {
  MutexLock lock(&mutex_);
  uint64_t total = 0;
  for (const auto& pages : files_) {
    for (const Page& page : pages) {
      if (page.image != nullptr) total += kPageSize;
    }
  }
  return total;
}

}  // namespace swan::storage
