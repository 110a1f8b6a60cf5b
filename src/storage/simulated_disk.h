#ifndef SWANDB_STORAGE_SIMULATED_DISK_H_
#define SWANDB_STORAGE_SIMULATED_DISK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "audit/audit.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/timer.h"
#include "exec/thread_pool.h"
#include "storage/page.h"

namespace swan::storage {

// Performance model of a disk subsystem. The defaults correspond to
// "machine B" of the paper (10-disk RAID-5, ~390 MB/s sequential reads);
// "machine A" is obtained with bandwidth_mb_per_s = 100.
struct DiskConfig {
  // Sequential read bandwidth.
  double bandwidth_mb_per_s = 390.0;
  // Charged whenever a read is not physically contiguous with the previous
  // one (different file, or non-consecutive page number). The default
  // models a striped RAID with command queuing, where effective random
  // positioning cost amortizes well below a raw single-disk seek.
  double seek_latency_ms = 0.5;
  // If > 0, a seek is charged every N pages even within a sequential run.
  // Models engines that issue small scattered requests and therefore cannot
  // exploit the available bandwidth — the paper observes exactly this for
  // C-Store ("C-Store only exploits a small fraction of the I/O bandwidth",
  // Figure 5).
  uint32_t forced_seek_interval_pages = 0;
};

// One sample of the cumulative-read trace behind Figure 5. `lane` is the
// ParallelFor lane that issued the read, or -1 for the serial stream, so
// parallel reads no longer collapse into one anonymous stream.
struct IoTracePoint {
  double virtual_seconds;
  uint64_t cumulative_bytes;
  int lane = -1;
};

// An immutable page image. The disk holds each page's current image as
// one shared allocation; a buffer-pool frame and every PageGuard on the
// page reference that same allocation instead of copying it. Writes never
// touch an image in place: they install a new one (copy-on-write), so a
// holder of the old image keeps the bytes it was handed.
using PageImage = std::shared_ptr<const uint8_t[]>;

// In-memory "disk": stores page images and charges *virtual* time for
// reads on an attached VirtualClock instead of sleeping. Deterministic,
// byte-accurate, and fast — a query's "real time" is its CPU time plus the
// virtual seconds accrued here.
//
// Every page carries an out-of-band 64-bit checksum (the moral equivalent
// of a sector CRC area), computed on AppendPage/WritePage and verified on
// every ReadPage. A mismatch is reported as Status::Corruption so callers
// never consume silently-corrupted bytes.
//
// Writes are free and not traced: the paper keeps loading and index
// construction outside the benchmark scope (§2.3).
//
// Concurrent-I/O cost model: ReadPage is thread-safe and takes the
// issuing task explicitly (the BufferPool passes exec::CurrentTask(); the
// disk itself reads no thread-local execution state). Serial reads
// (task == nullptr, i.e. everything at --threads=1) accrue onto a serial
// clock with the global stream-contiguity state, exactly as before
// parallelism existed. Reads issued from inside a ParallelFor chunk
// accrue onto the chunk's *lane* (chunk index mod thread count) and judge
// contiguity against the task's own previous read only, so per-task
// accrual never depends on how the scheduler interleaves tasks. The
// virtual clock reads serial_seconds + max-over-lanes — the wall cost of
// lanes progressing in parallel — which keeps cold-run "real time"
// deterministic and meaningful at any thread count.
class SimulatedDisk {
 public:
  explicit SimulatedDisk(DiskConfig config = DiskConfig());

  SimulatedDisk(const SimulatedDisk&) = delete;
  SimulatedDisk& operator=(const SimulatedDisk&) = delete;

  // Creates a new empty file and returns its id. Ids are never reused,
  // not even after DropFile, so a page id names one page for the disk's
  // lifetime.
  uint32_t CreateFile();

  // Frees every page image of `file_id` (a store replaced the structure
  // the file held). The id stays taken; the file reads as empty.
  void DropFile(uint32_t file_id);

  // Appends a page image to `file_id`; returns the new page number.
  uint32_t AppendPage(uint32_t file_id, const void* data);

  // Overwrites an existing page (write-through updates from the row
  // store) by installing a new image; returns it. The old image lives on
  // in whoever still references it.
  PageImage WritePage(PageId id, const void* data);

  // Hands out a reference to the page's image and charges virtual I/O
  // time according to the disk model, accruing onto `task`'s lane stream
  // (or the serial stream when task == nullptr). Returns Corruption (with
  // `*out` still set, for forensics) if the stored image no longer matches
  // its checksum.
  [[nodiscard]] Status ReadPage(PageId id, PageImage* out,
                                exec::TaskContext* task) SWAN_EXCLUDES(mutex_);

  // ReadPage into the caller's buffer (kPageSize bytes): the same charge
  // and checksum, for callers that keep their own copy.
  [[nodiscard]] Status ReadPage(PageId id, void* out, exec::TaskContext* task)
      SWAN_EXCLUDES(mutex_);

  // True if `image` is the disk's current image of `id` (false for a
  // page of a dropped file).
  bool HoldsImage(PageId id, const uint8_t* image) const;

  // Recomputes `id`'s checksum against the stored image without charging
  // I/O time or touching read statistics (audit path).
  [[nodiscard]] Status VerifyPage(PageId id) const;

  // VerifyPage over every page of `file_id`.
  [[nodiscard]] Status VerifyFile(uint32_t file_id) const;

  // Checksum of one kPageSize page image: xxHash64-style rounds over the
  // page's 64-bit words in four interleaved lanes, folded through the same
  // round. Every round is bijective in both the word and the accumulator,
  // so any change confined to one word — any single corrupted byte — is
  // always caught.
  static uint64_t PageChecksum(const void* data);

  // Installs a copy of the stored image with `xor_mask` byte-flipped in at
  // `offset`, WITHOUT updating the checksum — simulates silent media
  // corruption for the auditor tests. A frame already holding the page
  // keeps the clean image. Never called outside tests.
  void CorruptPageForTesting(PageId id, size_t offset, uint8_t xor_mask);

  // Audit walker: at every level, checks that the page images hold no
  // more bytes than the disk stores; at kFull, verifies the checksum of
  // every stored page.
  void AuditInto(audit::AuditLevel level, audit::AuditReport* report) const;

  uint32_t PageCount(uint32_t file_id) const;
  uint32_t FileCount() const;

  // --- accounting -------------------------------------------------------
  uint64_t total_bytes_read() const {
    MutexLock lock(&mutex_);
    return total_bytes_read_;
  }
  uint64_t total_reads() const {
    MutexLock lock(&mutex_);
    return total_reads_;
  }
  uint64_t total_seeks() const {
    MutexLock lock(&mutex_);
    return total_seeks_;
  }
  const VirtualClock& clock() const { return clock_; }

  // Virtual seconds accrued per lane since the last ResetStats (index =
  // lane id; empty when no parallel reads happened). For bench reporting.
  std::vector<double> LaneSecondsSnapshot() const {
    MutexLock lock(&mutex_);
    return lane_seconds_;
  }

  void ResetStats();

  // I/O history tracing for Figure 5. While enabled, every read appends a
  // (virtual time, cumulative bytes) sample.
  void StartTrace();
  std::vector<IoTracePoint> StopTrace();

  // Reconfiguration is only legal at quiescent points (no reads in
  // flight): concurrent ReadPage calls read config_ under mutex_, and the
  // config() reference below is handed out lock-free. The lock here still
  // matters — it orders the store against any reader that raced past a
  // quiescence bug instead of leaving a silent data race.
  const DiskConfig& config() const { return config_; }
  void set_config(DiskConfig config) {
    MutexLock lock(&mutex_);
    config_ = config;
  }

  // Total bytes stored across all files (Table 1 "data set size").
  uint64_t TotalStoredBytes() const;

  // Bytes the page images occupy in memory: one kPageSize allocation per
  // page image held.
  uint64_t PageImageBytes() const;

 private:
  // One stored page: its image in an allocation of its own, so appending
  // a page never copies (or over-allocates) the file, and its checksum,
  // stored out of band so the full kPageSize payload stays available to
  // the engines.
  struct Page {
    PageImage image;
    uint64_t checksum = 0;
  };

  // Written only under mutex_ (set_config at quiescent points); the
  // config() reference above is handed out lock-free, so the field stays
  // unannotated — the quiescence contract, not the lock, protects reads.
  DiskConfig config_;
  // clock_ advances only under mutex_; clock().now() reads are lock-free
  // at points ordered after the reads that advanced it (same contract).
  VirtualClock clock_;

  // Everything below is guarded by mutex_. files_ contents are also
  // read under the lock (AppendPage may grow a file's page list); the
  // checksum over a handed-out image is computed outside it (images are
  // immutable).
  mutable Mutex mutex_{LockRank::kStorageDisk, "storage.disk"};

  // One page list per file.
  std::vector<std::vector<Page>> files_ SWAN_GUARDED_BY(mutex_);

  uint64_t total_bytes_read_ SWAN_GUARDED_BY(mutex_) = 0;
  uint64_t total_reads_ SWAN_GUARDED_BY(mutex_) = 0;
  uint64_t total_seeks_ SWAN_GUARDED_BY(mutex_) = 0;

  // Serial (non-task) stream state and clock component.
  bool has_last_read_ SWAN_GUARDED_BY(mutex_) = false;
  PageId last_read_ SWAN_GUARDED_BY(mutex_);
  uint32_t run_length_pages_ SWAN_GUARDED_BY(mutex_) = 0;
  double serial_seconds_ SWAN_GUARDED_BY(mutex_) = 0.0;

  // Per-lane accrual for reads issued from ParallelFor chunks. Lane
  // values only grow between ResetStats calls, so the running max is
  // maintained incrementally.
  std::vector<double> lane_seconds_ SWAN_GUARDED_BY(mutex_);
  double max_lane_seconds_ SWAN_GUARDED_BY(mutex_) = 0.0;

  bool tracing_ SWAN_GUARDED_BY(mutex_) = false;
  std::vector<IoTracePoint> trace_ SWAN_GUARDED_BY(mutex_);
};

}  // namespace swan::storage

#endif  // SWANDB_STORAGE_SIMULATED_DISK_H_
