#include "obs/metrics.h"

#include <algorithm>

#include "common/macros.h"
#include "common/mutex.h"

namespace swan::obs {

Histogram::Histogram(std::vector<uint64_t> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  SWAN_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "histogram bounds must be ascending");
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::Observe(uint64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const size_t bucket = static_cast<size_t>(it - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot s;
  s.upper_bounds = bounds_;
  s.counts.reserve(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    s.counts.push_back(counts_[i].load(std::memory_order_relaxed));
  }
  s.total_count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<uint64_t> upper_bounds) {
  MutexLock lock(&mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return slot.get();
}

MetricsRegistry::Snapshot MetricsRegistry::Snap() const {
  MutexLock lock(&mutex_);
  Snapshot s;
  for (const auto& [name, counter] : counters_) {
    s.counters.emplace(name, counter->value());
  }
  for (const auto& [name, hist] : histograms_) {
    s.histograms.emplace(name, hist->Snap());
  }
  return s;
}

}  // namespace swan::obs
