// Ablation: what the statistics-driven cost-based planner buys over the
// hand-wired textual order, with the adversarial worst order as the
// ceiling. Every benchmark BGP (q1–q8) runs under all three plan modes on
// all four backend designs; the run is equivalence-gated (every mode must
// produce identical bindings) and exits non-zero if the planner ever
// loses:
//
//   - cost-based Match calls must not exceed the as-written order's
//     (the acceptance gate: the planner matches or beats the hand-wired
//     plan), and
//   - cost-based cold bytes must stay within 2x of the as-written order
//     (an indexed probe plan may read a secondary structure a sequential
//     baseline never touches, but never unboundedly more).
//
// At the 20k-triple scale of bench/baselines/planner_heuristic_20k.csv,
// the cost-based plan must also need at most the pinned Match calls of
// the statistics-free heuristic order that shipped before the planner,
// and must not regress its cold bytes (5% + one page of slack).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_support/designs.h"
#include "bench_support/ledger.h"
#include "bench_support/query_bgps.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "exec/exec_context.h"
#include "plan/optimizer.h"
#include "plan/stats.h"

namespace {

using swan::core::Backend;
using swan::core::BgpPattern;
using swan::plan::PlanMode;
using swan::plan::PlannerOptions;

struct ModeRun {
  std::vector<std::string> vars;
  std::vector<std::vector<uint64_t>> rows;  // sorted
  uint64_t match_calls = 0;
  uint64_t cold_bytes = 0;
  double seconds = 0.0;
  bool ok = false;
};

ModeRun RunMode(Backend* backend, const std::vector<BgpPattern>& patterns,
                const PlannerOptions& options) {
  backend->DropCaches();
  const uint64_t bytes_before = backend->disk()->total_bytes_read();
  const swan::exec::ExecContext ectx(1);
  swan::CpuTimer timer;
  auto result = swan::core::ExecuteBgp(*backend, patterns, ectx, options);
  ModeRun run;
  run.seconds = timer.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "execution failed: %s\n",
                 result.status().ToString().c_str());
    return run;
  }
  run.ok = true;
  run.vars = std::move(result.value().vars);
  run.rows = std::move(result.value().rows);
  std::sort(run.rows.begin(), run.rows.end());
  run.match_calls = ectx.counters().Snap().match_calls;
  run.cold_bytes = backend->disk()->total_bytes_read() - bytes_before;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  using swan::TablePrinter;
  const auto config = swan::bench::DefaultConfig();
  const auto ectx = swan::bench::InitThreads(argc, argv);
  swan::bench::PrintHeader(
      "Ablation: cost-based planner vs hand-wired and worst orders",
      "query planning layer (join ordering + run-time scan-join), q1-q8",
      config, ectx);

  const auto barton = swan::bench_support::GenerateBarton(config);
  const auto vocab = swan::core::Vocabulary::Resolve(barton.dataset);
  if (!vocab.ok()) {
    std::fprintf(stderr, "vocabulary: %s\n", vocab.status().ToString().c_str());
    return 1;
  }
  const auto stats = swan::plan::StoreStats::Collect(barton.dataset);
  const auto pinned = swan::bench_support::LoadLedger(
      swan::bench_support::BaselinePath("planner_heuristic_20k.csv"));
  if (!pinned.ok()) {
    std::fprintf(stderr, "baseline: %s\n", pinned.status().ToString().c_str());
    return 1;
  }
  const bool pinned_applies = pinned.value().triples == config.target_triples &&
                              pinned.value().seed == config.seed;
  const auto bgps = swan::bench_support::BenchmarkBgps(vocab.value());

  std::vector<std::unique_ptr<Backend>> backends;
  for (const char* label : {"MonetDB triple PSO", "MonetDB vert. SO",
                            "DBX triple PSO", "DBX vert. SO"}) {
    backends.push_back(swan::bench_support::OpenDesign(barton.dataset, label));
  }

  swan::bench::BenchJsonWriter json("ablation_planner");
  TablePrinter table({"backend", "query", "as-written", "worst-order",
                      "cost-based", "pinned heuristic",
                      "cold KB (cost/heur)", "verdict"});
  int losses = 0;
  for (const auto& owned : backends) {
    Backend* backend = owned.get();
    PlannerOptions as_written_opts;
    as_written_opts.mode = PlanMode::kAsWritten;
    PlannerOptions worst_opts;
    worst_opts.mode = PlanMode::kWorstOrder;
    worst_opts.stats = &stats;
    worst_opts.hints = backend->PlannerHints();
    PlannerOptions cost_opts;
    cost_opts.mode = PlanMode::kCostBased;
    cost_opts.stats = &stats;
    cost_opts.hints = backend->PlannerHints();

    for (const auto& bgp : bgps) {
      const ModeRun as_written = RunMode(backend, bgp.patterns,
                                         as_written_opts);
      const ModeRun worst = RunMode(backend, bgp.patterns, worst_opts);
      const ModeRun cost = RunMode(backend, bgp.patterns, cost_opts);
      if (!as_written.ok || !worst.ok || !cost.ok) return 1;

      // Equivalence gate: conjunction is commutative, so every plan mode
      // must answer identically.
      if (cost.vars != as_written.vars || worst.vars != as_written.vars ||
          cost.rows != as_written.rows || worst.rows != as_written.rows) {
        std::fprintf(stderr, "EQUIVALENCE FAILURE: %s %s: plan modes disagree "
                             "on the bindings\n",
                     backend->name().c_str(), bgp.name.c_str());
        return 1;
      }

      bool beats_hand_wired = cost.match_calls <= as_written.match_calls;
      bool io_ok = cost.cold_bytes <= as_written.cold_bytes * 2 + 4096;
      std::string heuristic_calls = "-";
      std::string cold_kb = TablePrinter::Int(cost.cold_bytes / 1024) + "/-";
      if (pinned_applies) {
        const auto calls =
            pinned.value().Count({backend->name(), bgp.name}, "match_calls");
        const auto bytes =
            pinned.value().Count({backend->name(), bgp.name}, "cold_bytes");
        if (!calls || !bytes) {
          std::fprintf(stderr, "baseline: no pinned cell for %s %s\n",
                       backend->name().c_str(), bgp.name.c_str());
          return 1;
        }
        beats_hand_wired = beats_hand_wired && cost.match_calls <= *calls;
        io_ok = io_ok && cost.cold_bytes <= *bytes + *bytes / 20 + 4096;
        heuristic_calls = TablePrinter::Int(*calls);
        cold_kb = TablePrinter::Int(cost.cold_bytes / 1024) + "/" +
                  TablePrinter::Int(*bytes / 1024);
      }
      const char* verdict = "ok";
      if (!beats_hand_wired) {
        verdict = "LOSS (match calls)";
        ++losses;
      } else if (!io_ok) {
        verdict = "LOSS (cold bytes)";
        ++losses;
      }
      table.AddRow({backend->name(), bgp.name,
                    TablePrinter::Int(as_written.match_calls),
                    TablePrinter::Int(worst.match_calls),
                    TablePrinter::Int(cost.match_calls), heuristic_calls,
                    cold_kb, verdict});
      // The JSON cell's speedup slot carries the planner's win ratio in
      // Match calls over the as-written textual order.
      json.Add(bgp.name, backend->name(), cost.cold_bytes, cost.seconds,
               cost.match_calls > 0
                   ? static_cast<double>(as_written.match_calls) /
                         static_cast<double>(cost.match_calls)
                   : 1.0);
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "columns are Backend::Match calls per plan mode (one cold run each).\n"
      "expected shape: cost-based <= pinned heuristic <= as-written <= "
      "worst-order\neverywhere.\n");
  if (pinned_applies) {
    std::printf(
        "pinned heuristic baseline: applied (%llu triples, seed %llu)\n",
        static_cast<unsigned long long>(config.target_triples),
        static_cast<unsigned long long>(config.seed));
  } else {
    std::printf(
        "pinned heuristic baseline: does not apply at %llu triples, seed %llu "
        "(recorded at %llu, seed %llu)\n",
        static_cast<unsigned long long>(config.target_triples),
        static_cast<unsigned long long>(config.seed),
        static_cast<unsigned long long>(pinned.value().triples),
        static_cast<unsigned long long>(pinned.value().seed));
  }
  json.Extra("planner").BeginObject().Field("losses", losses)
      .Field("gates_passed", losses == 0)
      .Field("heuristic_baseline",
             pinned_applies ? "applied" : "not applicable")
      .EndObject();
  const std::string json_path =
      swan::bench::InitJsonPath(argc, argv, "ablation_planner");
  if (!json_path.empty() && !json.WriteTo(json_path)) return 1;
  if (losses > 0) {
    std::fprintf(stderr, "PLANNER LOSSES: %d (see verdict column)\n", losses);
    return 1;
  }
  std::printf("planner verdict: never loses (%zu backends x %zu queries)\n",
              backends.size(), bgps.size());
  return 0;
}
