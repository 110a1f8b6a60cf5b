// Robustness check: the paper's Table 6/7 verdicts should not depend on
// our particular 1/100 scale choice. This bench runs the Table 6/7 grid,
// cold and hot, at three dataset sizes; the table's G* column carries the
// verdicts, and tools/check_claims.py judges the Table 6/7 claims at each
// size from the bench JSON.

#include "exhibit.h"

int main(int argc, char** argv) {
  using namespace swan::bench;
  ExhibitSpec spec = GridSpec(/*hot=*/false);
  spec.name = "scale_sensitivity";
  spec.title = "Scale sensitivity of the headline verdicts";
  spec.reproduces = "robustness check for Tables 6/7 across dataset sizes";
  spec.points = {{.triples = 100000}, {.triples = 200000},
                 {.triples = 400000}};
  spec.modes = {Mode::kCold, Mode::kHot};
  spec.repetitions = 1;
  spec.note =
      "The row-store verdict (triple PSO has the lower G*) holds at every\n"
      "scale for cold runs; the column store's G* contest stays close, with\n"
      "the vertical scheme's star-query penalty growing with scale.\n";
  RunExhibit(spec, argc, argv);
  return 0;
}
