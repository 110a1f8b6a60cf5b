#include "storage/buffer_pool.h"

#include <cstring>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/mutex.h"
#include "exec/thread_pool.h"

namespace swan::storage {

PageGuard::PageGuard(BufferPool* pool, size_t frame_index, PageImage image)
    : pool_(pool), frame_index_(frame_index), image_(std::move(image)) {}

PageGuard::~PageGuard() { Release(); }

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_),
      frame_index_(other.frame_index_),
      image_(std::move(other.image_)) {
  other.pool_ = nullptr;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_index_ = other.frame_index_;
    image_ = std::move(other.image_);
    other.pool_ = nullptr;
  }
  return *this;
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_index_);
    pool_ = nullptr;
    // Outside the pool lock: if the page was written while pinned, this
    // guard may hold the old image's last reference.
    image_.reset();
  }
}

BufferPool::BufferPool(SimulatedDisk* disk, size_t capacity_pages)
    : disk_(disk), capacity_(capacity_pages) {
  SWAN_CHECK_GE(capacity_pages, 8u);
}

PageGuard BufferPool::Fetch(PageId id) {
  PageGuard guard;
  Status st = TryFetch(id, &guard);
  SWAN_CHECK_MSG(st.ok(), st.ToString().c_str());
  return guard;
}

Status BufferPool::TryFetch(PageId id, PageGuard* out) {
  return Read(id, out, nullptr);
}

Status BufferPool::TryRead(PageId id, uint8_t* out) {
  return Read(id, nullptr, out);
}

Status BufferPool::Read(PageId id, PageGuard* pin, uint8_t* copy) {
  MutexLock lock(&mutex_);
  for (;;) {
    auto it = map_.find(id);
    if (it == map_.end()) break;
    Frame& frame = frames_[it->second];
    if (!frame.ready) {
      // Another thread is reading this page from disk. Wait, then re-find:
      // the loader may have hit a checksum error and withdrawn the entry.
      io_cv_.Wait(lock);
      continue;
    }
    ++hits_;
    if (pin == nullptr) {
      std::memcpy(copy, frame.image.get(), kPageSize);
      return Status::OK();
    }
    if (frame.in_lru) {
      lru_.erase(frame.lru_pos);
      frame.in_lru = false;
    }
    ++frame.pin_count;
    *pin = PageGuard(this, it->second, frame.image);
    return Status::OK();
  }

  ++misses_;
  if (pin == nullptr) {
    // A read-through maps nothing: the page goes straight to `copy`.
    lock.Unlock();
    return disk_->ReadPage(id, copy, exec::CurrentTask());
  }
  const size_t idx = AllocateFrame();
  {
    Frame& frame = frames_[idx];
    frame.id = id;
    frame.pin_count = 1;
    frame.in_lru = false;
    frame.ready = false;
    map_[id] = idx;
  }

  // The pin keeps the frame un-evictable and the map entry makes
  // same-page fetchers wait instead of duplicating the read, so the lock
  // can drop for the (virtually slow) transfer.
  lock.Unlock();
  PageImage image;
  Status st = disk_->ReadPage(id, &image, exec::CurrentTask());
  lock.Lock();

  Frame& frame = frames_[idx];
  if (!st.ok()) {
    // Do not cache a corrupted image: withdraw the entry and release the
    // frame back to the free list so a later (possibly repaired) read
    // starts fresh. Waiters re-find, miss, and retry the read themselves.
    map_.erase(id);
    frame.pin_count = 0;
    frame.ready = true;
    free_frames_.push_back(idx);
    io_cv_.NotifyAll();
    *pin = PageGuard();
    return st;
  }
  frame.image = std::move(image);
  frame.ready = true;
  io_cv_.NotifyAll();
  *pin = PageGuard(this, idx, frame.image);
  return Status::OK();
}

void BufferPool::AuditInto(audit::AuditLevel level,
                           audit::AuditReport* report) const {
  (void)level;  // all pool checks are metadata-only, so kQuick == kFull
  MutexLock lock(&mutex_);
  const std::string object = "bufferpool";

  if (frames_.size() > capacity_) {
    report->Add(audit::FindingClass::kBufferPool, object,
                "frame count " + std::to_string(frames_.size()) +
                    " exceeds capacity " + std::to_string(capacity_));
  }
  if (map_.size() > frames_.size()) {
    report->Add(audit::FindingClass::kBufferPool, object,
                "page table has " + std::to_string(map_.size()) +
                    " entries but only " + std::to_string(frames_.size()) +
                    " frames exist");
  }

  // Page table -> frame agreement, and uniqueness of the mapping.
  std::vector<bool> mapped(frames_.size(), false);
  for (const auto& [id, idx] : map_) {
    if (idx >= frames_.size()) {
      report->Add(audit::FindingClass::kBufferPool, object,
                  "page table entry points to nonexistent frame " +
                      std::to_string(idx));
      continue;
    }
    if (mapped[idx]) {
      report->Add(audit::FindingClass::kBufferPool, object,
                  "two page-table entries share frame " +
                      std::to_string(idx));
    }
    mapped[idx] = true;
    const Frame& frame = frames_[idx];
    if (!(frame.id == id)) {
      report->Add(audit::FindingClass::kBufferPool, object,
                  "page table maps (" + std::to_string(id.file_id) + "," +
                      std::to_string(id.page_no) + ") to frame " +
                      std::to_string(idx) + " holding (" +
                      std::to_string(frame.id.file_id) + "," +
                      std::to_string(frame.id.page_no) + ")");
    }
  }

  // Free-list frames must not be resident.
  std::vector<bool> free_frame(frames_.size(), false);
  for (size_t idx : free_frames_) {
    if (idx >= frames_.size()) {
      report->Add(audit::FindingClass::kBufferPool, object,
                  "free list references nonexistent frame " +
                      std::to_string(idx));
      continue;
    }
    if (free_frame[idx]) {
      report->Add(audit::FindingClass::kBufferPool, object,
                  "frame " + std::to_string(idx) + " on the free list twice");
    }
    free_frame[idx] = true;
    if (mapped[idx]) {
      report->Add(audit::FindingClass::kBufferPool, object,
                  "frame " + std::to_string(idx) +
                      " is both free and page-table resident");
    }
  }

  // LRU membership: exactly the unpinned resident frames, each once.
  std::vector<uint32_t> lru_hits(frames_.size(), 0);
  for (size_t idx : lru_) {
    if (idx >= frames_.size()) {
      report->Add(audit::FindingClass::kBufferPool, object,
                  "LRU references nonexistent frame " + std::to_string(idx));
      continue;
    }
    ++lru_hits[idx];
  }
  uint64_t pinned = 0;
  for (size_t idx = 0; idx < frames_.size(); ++idx) {
    const Frame& frame = frames_[idx];
    // A ready resident frame references its page's image; any other
    // frame references none.
    if ((frame.image != nullptr) != (mapped[idx] && frame.ready)) {
      report->Add(audit::FindingClass::kBufferPool, object,
                  "frame " + std::to_string(idx) +
                      (frame.image != nullptr ? " holds an image but is not"
                                              : " holds no image but is") +
                      " a loaded resident frame");
    }
    if (frame.pin_count > 0) {
      if (!mapped[idx]) {
        report->Add(audit::FindingClass::kBufferPool, object,
                    "pinned frame " + std::to_string(idx) +
                        " missing from the page table");
      }
      pinned += frame.pin_count;
    }
    const bool expect_in_lru = mapped[idx] && frame.pin_count == 0;
    if (frame.in_lru != expect_in_lru || lru_hits[idx] != (expect_in_lru ? 1u : 0u)) {
      report->Add(audit::FindingClass::kBufferPool, object,
                  "frame " + std::to_string(idx) + " LRU state broken " +
                      "(in_lru=" + std::to_string(frame.in_lru) +
                      ", lru entries=" + std::to_string(lru_hits[idx]) +
                      ", pin_count=" + std::to_string(frame.pin_count) +
                      ", resident=" + std::to_string(mapped[idx]) + ")");
    }
  }

  // A full-level audit runs at a quiescent point (between queries /
  // mutation batches), where every PageGuard must have been released.
  if (pinned > 0) {
    report->Add(audit::FindingClass::kBufferPool, object,
                std::to_string(pinned) +
                    " pin(s) still outstanding at audit time (leaked "
                    "PageGuard?)");
  }
}

uint64_t BufferPool::frame_bytes() const {
  MutexLock lock(&mutex_);
  uint64_t bytes = 0;
  for (const auto& [id, idx] : map_) {
    const Frame& frame = frames_[idx];
    if (frame.ready && !disk_->HoldsImage(id, frame.image.get())) {
      bytes += kPageSize;
    }
  }
  return bytes;
}

void BufferPool::WriteThrough(PageId id, const void* data) {
  PageImage old;  // released after the lock
  MutexLock lock(&mutex_);
  // The disk write happens under the pool lock (pool rank > disk rank), so
  // no fetch of the page can start meanwhile; one already in flight is
  // waited out first, or it would map the old image after this write.
  for (;;) {
    auto it = map_.find(id);
    if (it == map_.end()) {
      disk_->WritePage(id, data);
      return;
    }
    Frame& frame = frames_[it->second];
    if (!frame.ready) {
      io_cv_.Wait(lock);
      continue;
    }
    old = std::exchange(frame.image, disk_->WritePage(id, data));
    return;
  }
}

void BufferPool::Clear() {
  MutexLock lock(&mutex_);
  for (const auto& [id, idx] : map_) {
    SWAN_CHECK_MSG(frames_[idx].pin_count == 0,
                   "Clear() with pinned pages outstanding");
  }
  map_.clear();
  lru_.clear();
  free_frames_.clear();
  for (size_t i = 0; i < frames_.size(); ++i) {
    frames_[i].in_lru = false;
    frames_[i].image.reset();
    free_frames_.push_back(i);
  }
}

void BufferPool::Unpin(size_t frame_index) {
  MutexLock lock(&mutex_);
  Frame& frame = frames_[frame_index];
  SWAN_CHECK_GT(frame.pin_count, 0u);
  if (--frame.pin_count == 0) {
    lru_.push_front(frame_index);
    frame.lru_pos = lru_.begin();
    frame.in_lru = true;
  }
}

size_t BufferPool::AllocateFrame() {
  if (!free_frames_.empty()) {
    const size_t idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  if (frames_.size() < capacity_) {
    // A new frame at the end of the deque: no existing frame moves.
    frames_.emplace_back();
    return frames_.size() - 1;
  }
  // Evict the least recently used unpinned frame.
  SWAN_CHECK_MSG(!lru_.empty(), "buffer pool exhausted: all pages pinned");
  const size_t victim = lru_.back();
  lru_.pop_back();
  Frame& frame = frames_[victim];
  frame.in_lru = false;
  frame.image.reset();
  map_.erase(frame.id);
  return victim;
}

}  // namespace swan::storage
