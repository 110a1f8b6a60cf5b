#ifndef SWANDB_OBS_METRICS_H_
#define SWANDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace swan::obs {

// Named monotonic counter. Atomic so ParallelFor chunk bodies may bump it
// concurrently; because addition is commutative the final value is
// independent of chunk interleaving, which keeps snapshots deterministic.
class Counter {
 public:
  void Add(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Fixed-bucket histogram: `upper_bounds` (ascending, inclusive) plus an
// implicit overflow bucket. Observe is atomic and order-independent, so
// concurrent observations from chunk bodies produce the same snapshot at
// every thread count.
class Histogram {
 public:
  explicit Histogram(std::vector<uint64_t> upper_bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(uint64_t value);

  struct Snapshot {
    std::vector<uint64_t> upper_bounds;  // ascending; counts has one extra
    std::vector<uint64_t> counts;        // per bucket + trailing overflow
    uint64_t total_count = 0;
    uint64_t sum = 0;
    bool operator==(const Snapshot&) const = default;
  };
  Snapshot Snap() const;

 private:
  std::vector<uint64_t> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// Per-session registry of named counters and histograms. Lookup is
// mutex-guarded (operators cache the returned pointer for a query);
// returned pointers stay valid for the registry's lifetime. Snapshots
// iterate in name order so exports are deterministic.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name) SWAN_EXCLUDES(mutex_);

  // Creates the histogram with `upper_bounds` on first use; later calls
  // with the same name ignore the bounds argument.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<uint64_t> upper_bounds)
      SWAN_EXCLUDES(mutex_);

  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, Histogram::Snapshot> histograms;
  };
  Snapshot Snap() const SWAN_EXCLUDES(mutex_);

 private:
  // Leaf of the lock-rank hierarchy: registries are looked up under every
  // other subsystem's locks (serve scheduler, turnstile) and acquire
  // nothing themselves.
  mutable Mutex mutex_{LockRank::kMetrics, "obs.metrics"};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      SWAN_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      SWAN_GUARDED_BY(mutex_);
};

}  // namespace swan::obs

#endif  // SWANDB_OBS_METRICS_H_
