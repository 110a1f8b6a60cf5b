// Robustness check: the paper's Table 6/7 verdicts should not depend on
// our particular 1/100 scale choice. This bench runs the Table 6/7 grid,
// cold and hot, at three dataset sizes and reports the winner per claim.

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
  const std::vector<ExhibitCell> cells = RunExhibit(spec, argc, argv);

  std::printf("\nG* verdicts (the lower G* wins):\n");
  for (size_t p = 0; p < spec.points.size(); ++p) {
    for (const Mode mode : spec.modes) {
      const auto gstar = [&](Design design) {
        return MeansOf(cells, p, design, mode).gstar;
      };
      const double rp = gstar(Design::kDbxTriplePso);
      const double rv = gstar(Design::kDbxVertical);
      const double cp = gstar(Design::kMonetTriplePso);
      const double cv = gstar(Design::kMonetVertical);
      std::printf("  %7llu triples %-4s  row: %-10s (%.4f vs %.4f)  column: "
                  "%-10s (%.4f vs %.4f)\n",
                  static_cast<unsigned long long>(spec.points[p].triples),
                  mode == Mode::kHot ? "hot" : "cold",
                  rp <= rv ? "triple PSO" : "vertical", rp, rv,
                  cp <= cv ? "triple PSO" : "vertical", cp, cv);
    }
  }
  return 0;
}
