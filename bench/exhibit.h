#ifndef SWANDB_BENCH_EXHIBIT_H_
#define SWANDB_BENCH_EXHIBIT_H_

#include <string>
#include <vector>

#include "bench_common.h"
#include "core/query.h"

namespace swan::bench {

// Section 2.3's protocol: cold drops every cache before each repetition,
// hot warms up once.
enum class Mode { kCold, kHot };
// What one text-table row prints per query.
enum class Metric { kReal, kUser, kMbRead, kRows };

// One dataset point: the default Barton set (SWAN_TRIPLES, SWAN_SEED) and
// the designs' default builds, changed in each field that is not 0.
struct ExhibitPoint {
  uint64_t triples = 0;     // generate at this scale
  uint64_t properties = 0;  // property-split to this many (Figure 7)
  double disk_mb_s = 0.0;   // every design's sequential disk bandwidth
  size_t considered = 0;    // properties the queries consider (Figure 6; 28)
  size_t pool_pages = 0;    // every design's buffer-pool size
  colstore::ColumnCodec codec = colstore::ColumnCodec::kRaw;  // column files
};

// One paper exhibit as plain data.
struct ExhibitSpec {
  std::string name;  // the JSON "bench" field
  std::string title;
  std::string reproduces;
  std::vector<ExhibitPoint> points = {ExhibitPoint{}};
  // Labels of bench_support::Designs() entries ("DBX triple PSO", ...).
  std::vector<std::string> designs;
  std::vector<core::QueryId> queries;
  std::vector<Mode> modes;
  std::vector<Metric> metrics = {Metric::kReal, Metric::kUser};
  int repetitions = Repetitions();  // SWAN_REPS, default 3
  bool means = false;  // print G, and G* and G*/G when all 12 queries run
  std::string note;  // the expected shape, printed last
};

// Tables 6 (cold) and 7 (hot): the seven designs on all 12 queries,
// SWAN_REPS repetitions, with G, G* and G*/G.
ExhibitSpec GridSpec(bool hot);

// For each point: generates its dataset and builds its designs once, checks
// them against the reference backend on all 12 queries (aborting on a
// divergence), then measures every (design, mode, query) cell. Under
// --json[=FILE] writes the cells as bench JSON (workload = query, plus
// " @ <point>" and " <mode>" when the exhibit has several; backend = design
// label; extras "triples" unless a point sets its own, "codec" unless the
// points differ in it, "hot" unless several modes run). Prints one text
// table of them. A point's label names the fields set on it, and its codec
// when the points do not all share one.
void RunExhibit(const ExhibitSpec& spec, int argc, char** argv);

}  // namespace swan::bench

#endif  // SWANDB_BENCH_EXHIBIT_H_
