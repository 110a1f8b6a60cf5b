// Reproduces Table 6: cold-run execution times for all 12 benchmark
// queries over the full storage-scheme x engine grid, then gates (exit 1)
// on two of the paper's cold shapes (section 4.3):
//   - on the row store, triple PSO has a lower G* than vertical SO;
//   - on the column store, the vertical scheme's G*/G exceeds both triple
//     clusterings': its "black swans" q2*, q3*, q6*, q8 pull G* up.

#include <algorithm>

#include "exhibit.h"

namespace {

bool Gate(bool ok, const char* claim, double lhs, double rhs) {
  std::printf("gate: %-52s %.4f vs %.4f  %s\n", claim, lhs, rhs,
              ok ? "OK" : "FAIL");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace swan::bench;
  InitThreads(argc, argv);
  ExhibitSpec spec = GridSpec(/*hot=*/false);
  spec.points[0].codec = InitCodec(argc, argv);
  const std::vector<ExhibitCell> cells = RunExhibit(spec, argc, argv);

  const auto means = [&cells](Design design) {
    return MeansOf(cells, 0, design, Mode::kCold);
  };
  const auto ratio = [&means](Design design) {
    return means(design).gstar / means(design).g;
  };
  const double dbx_pso = means(Design::kDbxTriplePso).gstar;
  const double dbx_vert = means(Design::kDbxVertical).gstar;
  const double monet_vert = ratio(Design::kMonetVertical);
  const double monet_triple = std::max(ratio(Design::kMonetTripleSpo),
                                       ratio(Design::kMonetTriplePso));
  bool ok = Gate(dbx_pso < dbx_vert, "DBX G*: triple PSO < vert. SO", dbx_pso,
                 dbx_vert);
  ok &= Gate(monet_vert > monet_triple,
             "MonetDB G*/G: vert. SO > max(triple SPO, triple PSO)",
             monet_vert, monet_triple);
  if (!ok) {
    std::fprintf(stderr, "FAIL: a Table 6 cold shape does not hold\n");
    return 1;
  }
  std::printf("Table 6 gates: OK\n");
  return 0;
}
