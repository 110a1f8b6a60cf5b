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
// Every variant first passes the 12-query equivalence gate against the
// reference backend: a codec that changes any answer aborts the bench.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_support/harness.h"
#include "colstore/compression.h"
#include "common/table_printer.h"
#include "core/col_backends.h"
#include "core/reference_backend.h"

int main(int argc, char** argv) {
  using swan::TablePrinter;
  using swan::colstore::ColumnCodec;
  using swan::core::QueryId;
  const auto ectx = swan::bench::InitThreads(argc, argv);
  const auto config = swan::bench::DefaultConfig();
  swan::bench::PrintHeader("Ablation: compressed execution (cold runs)",
                           "sections 4.1 / 4.3 compression discussion",
                           config, ectx);

  const auto barton = swan::bench_support::GenerateBarton(config);
  const auto& data = barton.dataset;
  const auto ctx = swan::bench_support::MakeBartonContext(data, 28);
  const int reps = swan::bench::Repetitions();

  const ColumnCodec codecs[] = {ColumnCodec::kRaw, ColumnCodec::kRle,
                                ColumnCodec::kDelta, ColumnCodec::kBitPack,
                                ColumnCodec::kDictBitPack, ColumnCodec::kAuto};

  struct Variant {
    std::string label;
    ColumnCodec codec;
    bool triple;
    std::unique_ptr<swan::core::Backend> backend;
    uint64_t stored = 0;
    uint64_t logical = 0;
  };
  std::vector<Variant> variants;
  for (ColumnCodec codec : codecs) {
    const std::string name = swan::colstore::ToString(codec);
    auto t = std::make_unique<swan::core::ColTripleBackend>(
        data, swan::rdf::TripleOrder::kPSO, swan::storage::DiskConfig{}, 4096,
        codec);
    variants.push_back({"triple PSO, " + name, codec, true, nullptr,
                        t->stored_bytes(), t->logical_bytes()});
    variants.back().backend = std::move(t);
    auto vtab = std::make_unique<swan::core::ColVerticalBackend>(
        data, swan::storage::DiskConfig{}, 4096, codec);
    variants.push_back({"vert. SO, " + name, codec, false, nullptr,
                        vtab->stored_bytes(), vtab->logical_bytes()});
    variants.back().backend = std::move(vtab);
  }

  // Equivalence gate: all 12 queries, every codec, both schemes, against
  // the row reference implementation. Timing is meaningless for a codec
  // that changes an answer.
  std::printf("equivalence gate: all 12 queries, every codec, both column "
              "backends...\n");
  swan::core::ReferenceBackend reference(data);
  std::vector<swan::core::Backend*> gate = {&reference};
  for (auto& v : variants) gate.push_back(v.backend.get());
  swan::bench_support::VerifyBackendsAgree(gate, swan::core::AllQueries(),
                                           ctx);
  std::printf("equivalence gate passed.\n\n");

  // Cold bytes and cold time for a query mix that touches every kernel
  // family: scan+aggregate (q1), merge-join fan-out (q2), its star variant
  // (q2*), and the two-phase self-join (q8).
  const QueryId probe[] = {QueryId::kQ1, QueryId::kQ2, QueryId::kQ2Star,
                           QueryId::kQ8};
  swan::bench::BenchJsonWriter json("ablation_compression");
  TablePrinter table({"variant", "disk MB", "logical MB", "ratio",
                      "cold MB read", "q1 (s)", "q2 (s)", "q2* (s)",
                      "q8 (s)"});
  uint64_t raw_cold_bytes = 0, auto_cold_bytes = 0;
  for (auto& v : variants) {
    std::vector<std::string> cells = {
        v.label, TablePrinter::Fixed(v.stored / 1e6, 2),
        TablePrinter::Fixed(v.logical / 1e6, 2),
        TablePrinter::Fixed(
            v.stored > 0 ? static_cast<double>(v.logical) / v.stored : 0.0,
            2)};
    uint64_t cold_bytes = 0;
    std::vector<std::string> times;
    for (QueryId id : probe) {
      const auto m = swan::bench_support::MeasureCold(v.backend.get(), id,
                                                      ctx, ectx, reps);
      cold_bytes += m.bytes_read;
      times.push_back(TablePrinter::Fixed(m.real_seconds, 4));
      json.Add(swan::core::ToString(id), v.label, m.bytes_read,
               m.real_seconds);
    }
    cells.push_back(TablePrinter::Fixed(cold_bytes / 1e6, 2));
    cells.insert(cells.end(), times.begin(), times.end());
    table.AddRow(cells);
    if (v.triple && v.codec == ColumnCodec::kRaw) raw_cold_bytes = cold_bytes;
    if (v.triple && v.codec == ColumnCodec::kAuto) {
      auto_cold_bytes = cold_bytes;
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  const double reduction =
      auto_cold_bytes > 0
          ? static_cast<double>(raw_cold_bytes) / auto_cold_bytes
          : 0.0;
  std::printf(
      "PSO triple store cold bytes: raw %.2f MB, auto %.2f MB — %.2fx "
      "fewer%s\n",
      raw_cold_bytes / 1e6, auto_cold_bytes / 1e6, reduction,
      reduction >= 2.0 ? " (>=2x target met)" : " (below 2x target!)");
  std::printf(
      "expected shape: compression shrinks the PSO-sorted triple table "
      "dramatically\n(the sorted property column RLE-compresses to ~nothing) "
      "and narrows or closes\nthe cold-run gap between the triple-store and "
      "the vertical scheme.\n");

  json.Extra("compression").BeginObject()
      .Field("raw_cold_bytes", raw_cold_bytes)
      .Field("auto_cold_bytes", auto_cold_bytes)
      .Field("reduction", reduction, 6).Field("gate", 2.0, 1)
      .Field("gates_passed", reduction >= 2.0).EndObject();
  const std::string json_path =
      swan::bench::InitJsonPath(argc, argv, "ablation_compression");
  if (!json_path.empty() && !json.WriteTo(json_path)) return 1;
  return reduction >= 2.0 ? 0 : 1;
}
