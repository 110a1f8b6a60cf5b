// Ablation: compressed execution. Section 4.1 of the paper argues that
// "column-stores with compression (e.g., RLE or delta-compression) can
// achieve the same effect [as B+tree key-prefix compression] on the sorted
// property column", and section 4.3 that the column triple-store's cold
// overhead of "reading the triples table into memory ... can be alleviated
// using a column-store that supports table compression". This ablation
// measures exactly that across every codec on both column-store schemes:
// on-disk footprint, cold bytes actually streamed, and cold times — with
// encoded kernels that decompress only at projection, so the cheaper cold
// read is not bought back by a decode pass.
//
// Every codec first passes the runner's 12-query reference check (a codec
// that changes any answer aborts the bench). Exits 1 when auto reads less
// than 2x fewer cold bytes than raw on the triple PSO store.

#include "exhibit.h"

namespace {

using namespace swan::bench;
using swan::colstore::ColumnCodec;

constexpr ColumnCodec kCodecs[] = {
    ColumnCodec::kRaw,     ColumnCodec::kRle,         ColumnCodec::kDelta,
    ColumnCodec::kBitPack, ColumnCodec::kDictBitPack, ColumnCodec::kAuto};

// Cold bytes of one (codec, design) variant, summed over its queries.
uint64_t ColdBytes(const std::vector<ExhibitCell>& cells, size_t point,
                   Design design) {
  uint64_t bytes = 0;
  for (const ExhibitCell& c : cells) {
    if (c.point == point && c.design == design) bytes += c.m.bytes_read;
  }
  return bytes;
}

// The gate's raw (first point) and auto (last point) cold bytes on the
// triple PSO store, and their ratio.
struct Reduction {
  explicit Reduction(const std::vector<ExhibitCell>& cells)
      : raw(ColdBytes(cells, 0, Design::kMonetTriplePso)),
        automatic(ColdBytes(cells, 5, Design::kMonetTriplePso)),
        ratio(automatic > 0 ? static_cast<double>(raw) / automatic : 0.0) {}
  uint64_t raw, automatic;
  double ratio;
};

}  // namespace

int main(int argc, char** argv) {
  using swan::core::QueryId;
  InitThreads(argc, argv);
  ExhibitSpec spec;
  spec.name = "ablation_compression";
  spec.title = "Ablation: compressed execution (cold runs)";
  spec.reproduces = "sections 4.1 / 4.3 compression discussion";
  spec.points.clear();
  for (ColumnCodec codec : kCodecs) spec.points.push_back({.codec = codec});
  spec.designs = {Design::kMonetTriplePso, Design::kMonetVertical};
  // A mix that touches every kernel family: scan+aggregate (q1),
  // merge-join fan-out (q2), its star variant (q2*) and the two-phase
  // self-join (q8).
  spec.queries = {QueryId::kQ1, QueryId::kQ2, QueryId::kQ2Star, QueryId::kQ8};
  spec.modes = {Mode::kCold};
  spec.metrics = {Metric::kReal, Metric::kMbRead};
  spec.json_extras = [](const std::vector<ExhibitCell>& cells,
                        BenchJsonWriter& json) {
    const Reduction r(cells);
    json.Extra("compression").BeginObject()
        .Field("raw_cold_bytes", r.raw).Field("auto_cold_bytes", r.automatic)
        .Field("reduction", r.ratio, 6).Field("gate", 2.0, 1)
        .Field("gates_passed", r.ratio >= 2.0).EndObject();
  };
  spec.note =
      "Compression shrinks the PSO-sorted triple table dramatically (the\n"
      "sorted property column RLE-compresses to ~nothing) and narrows or\n"
      "closes the cold-run gap between the triple-store and the vertical\n"
      "scheme.\n";
  const std::vector<ExhibitCell> cells = RunExhibit(spec, argc, argv);

  std::printf("\ncold MB read over q1, q2, q2*, q8:\n");
  for (size_t p = 0; p < spec.points.size(); ++p) {
    std::printf("  %-12s triple PSO %6.2f   vert. SO %6.2f\n",
                swan::colstore::ToString(kCodecs[p]).c_str(),
                ColdBytes(cells, p, Design::kMonetTriplePso) / 1e6,
                ColdBytes(cells, p, Design::kMonetVertical) / 1e6);
  }
  const Reduction r(cells);
  std::printf(
      "PSO triple store cold bytes: raw %.2f MB, auto %.2f MB — %.2fx "
      "fewer%s\n",
      r.raw / 1e6, r.automatic / 1e6, r.ratio,
      r.ratio >= 2.0 ? " (>=2x target met)" : " (below 2x target!)");
  return r.ratio >= 2.0 ? 0 : 1;
}
