#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace swan {

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    log_sum += std::log(std::max(v, 1e-9));
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double NearestRank(const std::vector<double>& sorted, double quantile) {
  if (sorted.empty()) return 0.0;
  const size_t n = sorted.size();
  const auto rank =
      static_cast<size_t>(std::ceil(quantile * static_cast<double>(n)));
  return sorted[std::clamp<size_t>(rank, 1, n) - 1];
}

std::vector<CdfPoint> CumulativeFrequency(std::vector<uint64_t> counts,
                                          int points) {
  SWAN_CHECK(points >= 2);
  std::sort(counts.begin(), counts.end(), std::greater<uint64_t>());
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0 || counts.empty()) return {};

  std::vector<CdfPoint> out;
  out.reserve(static_cast<size_t>(points) + 1);
  const size_t n = counts.size();
  uint64_t running = 0;
  size_t consumed = 0;
  for (int p = 0; p <= points; ++p) {
    const size_t target =
        static_cast<size_t>(std::llround(static_cast<double>(n) * p / points));
    while (consumed < target && consumed < n) {
      running += counts[consumed++];
    }
    out.push_back({100.0 * static_cast<double>(consumed) / n,
                   100.0 * static_cast<double>(running) / total});
  }
  return out;
}

}  // namespace swan
