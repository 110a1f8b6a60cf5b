// Ablation: buffer-pool size sensitivity of the row engine. The paper's
// C-Store analysis attributes poor performance partly to a restrictive
// buffer space ("the amount of data transported from disk shows the
// effects of a restrictive buffer space", section 3); this ablation shows
// the same effect on our row store: once the pool is smaller than the
// working set, hot runs degrade into repeated disk traffic.

#include "exhibit.h"

int main(int argc, char** argv) {
  using namespace swan::bench;
  ExhibitSpec spec;
  spec.name = "ablation_buffer_pool";
  spec.title = "Ablation: row-store buffer pool size";
  spec.reproduces = "section 3 discussion (restrictive buffer space)";
  spec.points.clear();
  for (size_t pool_pages : {256, 1024, 4096, 16384, 65536}) {  // 8 KiB pages
    spec.points.push_back({.pool_pages = pool_pages});
  }
  spec.designs = {"DBX triple PSO"};
  spec.queries = {swan::core::QueryId::kQ2};
  spec.modes = {Mode::kHot, Mode::kCold};
  spec.metrics = {Metric::kReal, Metric::kMbRead};
  spec.note =
      "Once the pool holds the q2 working set, hot runs do no I/O (hot MB\n"
      "read = 0) and hot time flattens; undersized pools thrash and hot time\n"
      "approaches cold time.\n";
  RunExhibit(spec, argc, argv);
  return 0;
}
