#ifndef SWANDB_COMMON_STATS_H_
#define SWANDB_COMMON_STATS_H_

#include <cstdint>
#include <vector>

namespace swan {

// Geometric mean of strictly positive values; the paper's "G" / "G*"
// summary columns in Tables 4, 6 and 7. Values <= 0 are clamped to a tiny
// epsilon so that a degenerate 0-second timing cannot poison the mean.
double GeometricMean(const std::vector<double>& values);

// Arithmetic mean.
double Mean(const std::vector<double>& values);

// Nearest-rank percentile of ascending `sorted` (quantile in [0, 1]): the
// ceil(quantile * n)-th smallest, the rank clamped to [1, n]; 0 if empty.
// The serve tier's modeled schedule and the telemetry windows both report
// p50/p95/p99 this way.
double NearestRank(const std::vector<double>& sorted, double quantile);

// Cumulative frequency distribution used by Figure 1: given per-item
// occurrence counts, returns (x, y) pairs where x = percentage of items
// considered (most frequent first) and y = percentage of total occurrences
// they account for. `points` controls the resolution of the curve.
struct CdfPoint {
  double pct_items;
  double pct_total;
};
std::vector<CdfPoint> CumulativeFrequency(std::vector<uint64_t> counts,
                                          int points);

}  // namespace swan

#endif  // SWANDB_COMMON_STATS_H_
