// Reproduces Table 4: the repetition of the original C-Store experiment on
// two machines with different I/O subsystems — machine A (2-disk RAID-0,
// ~100 MB/s) and machine B (10-disk RAID-5, ~390 MB/s) — cold and hot,
// real and user time, for q1..q7 plus the geometric mean G.

#include "exhibit.h"

int main(int argc, char** argv) {
  using namespace swan::bench;
  ExhibitSpec spec;
  spec.name = "table4_cstore_repetition";
  spec.title = "Table 4: repetition of the C-Store experiment";
  spec.reproduces = "Table 4 of Sidirourgos et al., VLDB 2008";
  spec.points = {{.disk_mb_s = 100.0}, {.disk_mb_s = 390.0}};  // A, B
  spec.designs = {"C-Store vert. SO"};
  spec.queries = swan::core::InitialQueries();
  spec.modes = {Mode::kCold, Mode::kHot};
  spec.means = true;
  spec.note =
      "Machine B's ~4x higher sequential bandwidth yields only a marginal\n"
      "cold-run improvement (section 3), because the C-Store-style engine\n"
      "issues small scattered reads and exploits only a fraction of the\n"
      "bandwidth; hot real times collapse to user times. The paper reports\n"
      "run-to-run deviations below 30 ms on seconds-long runs; our simulated\n"
      "I/O is exactly repeatable, leaving only CPU jitter.\n";
  RunExhibit(spec, argc, argv);
  return 0;
}
