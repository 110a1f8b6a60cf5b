#ifndef SWANDB_STORAGE_BUFFER_POOL_H_
#define SWANDB_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "audit/audit.h"
#include "common/mutex.h"
#include "common/status.h"
#include "storage/page.h"
#include "storage/simulated_disk.h"

namespace swan::storage {

class BufferPool;

// RAII pin on a buffered page. The guard references the page image it was
// handed, so the bytes stay valid and unchanged (and the frame
// un-evictable) for the guard's lifetime, even if the page is written
// meanwhile.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, size_t frame_index, PageImage image);
  ~PageGuard();

  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  const uint8_t* data() const { return image_.get(); }
  bool valid() const { return pool_ != nullptr; }

 private:
  void Release();

  BufferPool* pool_ = nullptr;
  size_t frame_index_ = 0;
  PageImage image_;
};

// Page cache with LRU replacement between a storage engine and the
// simulated disk. Dropping it (Clear) is the reproduction's equivalent of
// the paper's "zapping the memory completely" between cold runs.
//
// Frames are created on demand, one per miss, until the pool holds
// capacity_pages of them; from then on a miss evicts the least recently
// used unpinned frame. A pool that is never fetched from holds no frame.
// A frame holds no bytes of its own: it references the disk's image of
// its page (see PageImage), so a page is held once however often it is
// cached. A miss still charges the disk's full read and verifies the
// checksum.
//
// Thread safety: Fetch/TryFetch/TryRead/Unpin/WriteThrough and the
// statistics accessors may be called concurrently. A miss inserts a
// not-yet-ready page-table entry, drops the pool lock for the duration of
// the disk read (the frame table is a deque that only grows at its end,
// so the loading frame's address stays stable), then marks the frame
// ready and wakes any waiters. Concurrent fetchers of the
// same page block on the in-progress read instead of issuing a duplicate
// one, so bytes_read stays identical to the serial schedule. Clear and
// AuditInto assume a quiescent pool (no fetches in flight), matching how
// the harness uses them between runs.
class BufferPool {
 public:
  BufferPool(SimulatedDisk* disk, size_t capacity_pages);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Returns a pinned view of the page, reading it from disk on a miss.
  // Aborts loudly if the on-disk page fails its checksum — the hot path
  // must never hand out corrupted bytes. Recoverable callers (the audit
  // walkers) use TryFetch instead.
  PageGuard Fetch(PageId id) SWAN_EXCLUDES(mutex_);

  // Like Fetch, but a checksum mismatch comes back as Status::Corruption
  // (with `*out` left invalid and the frame released) instead of aborting.
  [[nodiscard]] Status TryFetch(PageId id, PageGuard* out)
      SWAN_EXCLUDES(mutex_);

  // Copies the page into `out` (kPageSize bytes) without keeping a frame:
  // a resident page is copied as a hit; a missing page is read from the
  // disk straight into `out` on the caller's I/O stream and counted as a
  // miss, exactly as a Fetch miss is. For callers that keep their own
  // image of what they read (the column loads). Two concurrent TryReads
  // of one missing page both read it from disk; a column's pages are read
  // under its load lock, so they never race.
  [[nodiscard]] Status TryRead(PageId id, uint8_t* out) SWAN_EXCLUDES(mutex_);

  // Audit walker: pin accounting (a pin outstanding at a quiescent point
  // is a leak), frame<->page-table agreement, LRU membership, capacity.
  void AuditInto(audit::AuditLevel level, audit::AuditReport* report) const;

  // Write-through update: installs a new disk image of the page and
  // re-points its frame (if resident) at it; a guard pinned on the old
  // image keeps it until released. Used by the row store's insert path.
  void WriteThrough(PageId id, const void* data) SWAN_EXCLUDES(mutex_);

  // Evicts everything. All pages must be unpinned.
  void Clear() SWAN_EXCLUDES(mutex_);

  size_t capacity_pages() const { return capacity_; }
  // Frames created so far (at most capacity_pages): one frame record each.
  size_t frame_count() const {
    MutexLock lock(&mutex_);
    return frames_.size();
  }
  // Page bytes the frames hold apart from the disk's images: a resident
  // frame whose image the disk no longer holds (its page was written or
  // its file dropped behind the pool's back). Normally 0.
  uint64_t frame_bytes() const SWAN_EXCLUDES(mutex_);
  uint64_t frame_table_bytes() const { return frame_count() * sizeof(Frame); }
  size_t resident_pages() const {
    MutexLock lock(&mutex_);
    return map_.size();
  }
  uint64_t hits() const {
    MutexLock lock(&mutex_);
    return hits_;
  }
  uint64_t misses() const {
    MutexLock lock(&mutex_);
    return misses_;
  }
  void ResetStats() {
    MutexLock lock(&mutex_);
    hits_ = misses_ = 0;
  }

  SimulatedDisk* disk() const { return disk_; }

 private:
  friend class PageGuard;

  struct Frame {
    PageId id;
    // The disk's image of the page; empty while free or loading.
    PageImage image;
    // Position in lru_ when pin_count == 0.
    std::list<size_t>::iterator lru_pos;
    uint32_t pin_count = 0;
    bool in_lru = false;
    // False while the disk read that populates this frame is in flight
    // (the frame is mapped and pinned by the loading thread; other
    // fetchers of the same page wait on io_cv_).
    bool ready = true;
  };

  // The one lookup and disk-read step of TryFetch (pin != nullptr: the
  // page lands in a pinned frame) and TryRead (copy != nullptr: the page
  // lands in the caller's buffer and no frame is kept).
  Status Read(PageId id, PageGuard* pin, uint8_t* copy) SWAN_EXCLUDES(mutex_);
  void Unpin(size_t frame_index) SWAN_EXCLUDES(mutex_);
  size_t AllocateFrame() SWAN_REQUIRES(mutex_);

  SimulatedDisk* disk_;
  size_t capacity_;

  // Guards every member below. Released only around the disk read on a
  // miss (pool rank > disk rank, so holding it across the read would be
  // rank-legal — dropping it is a throughput choice, not a rank one);
  // frames_ only grows at its end, which moves no existing frame, so the
  // loading frame's address is stable while unlocked.
  mutable Mutex mutex_{LockRank::kBufferPool, "storage.buffer-pool"};
  CondVar io_cv_;

  std::deque<Frame> frames_ SWAN_GUARDED_BY(mutex_);
  std::vector<size_t> free_frames_ SWAN_GUARDED_BY(mutex_);
  std::unordered_map<PageId, size_t, PageIdHash> map_ SWAN_GUARDED_BY(mutex_);
  std::list<size_t> lru_ SWAN_GUARDED_BY(mutex_);  // front = most recent
  uint64_t hits_ SWAN_GUARDED_BY(mutex_) = 0;
  uint64_t misses_ SWAN_GUARDED_BY(mutex_) = 0;
};

}  // namespace swan::storage

#endif  // SWANDB_STORAGE_BUFFER_POOL_H_
