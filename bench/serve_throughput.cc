// serve_throughput: deterministic multi-client throughput/latency harness
// for the serving layer.
//
// Four client sessions replay a fixed mix of benchmark queries (q1-q8)
// and SPARQL BGPs against each of the four updatable backends (row/column
// x triple-PSO/vertical). Per backend the script runs three times:
//
//   serial - 1 worker, result cache off: the reference completion stream;
//   cold   - 4 workers, cache on, caches dropped: every first occurrence
//            of a query misses and executes;
//   warm   - the same script again on the same service: every query hits
//            the snapshot-keyed result cache.
//
// Gates (the process aborts on violation):
//   * every completion's rows are bit-identical to the serial run, for
//     both the cold and the warm pass (the serving layer's determinism
//     contract at any worker count);
//   * warm-pass modeled throughput >= 1.5x the cold pass on this
//     repeated-query mix.
//
// Reported per backend and pass: modeled throughput and p50/p95/p99
// latency (W-server FCFS schedule over each request's modeled service
// cost) plus the service's cache hit/miss/eviction counters.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_support/designs.h"
#include "common/macros.h"
#include "common/table_printer.h"
#include "core/store.h"
#include "serve/script.h"
#include "serve/service.h"

namespace {

using swan::core::RdfStore;
using swan::serve::Completion;
using swan::serve::LatencyStats;
using swan::serve::QueryService;
using swan::serve::ScriptRunResult;
using swan::serve::ServiceOptions;

constexpr int kWorkers = 4;

const char kMix[] = R"(# deterministic 4-client serve mix: q1-q8 + SPARQL BGPs
session alice
session bob
session carol
session dave
bench alice q1
bench alice repeat=2 q5
query alice SELECT ?s WHERE { ?s <type> <Text> } LIMIT 20
bench bob q2
bench bob q6
query bob repeat=2 SELECT ?s ?o WHERE { ?s <origin> ?o } LIMIT 20
bench carol q3
bench carol q7
query carol SELECT ?s WHERE { ?s <language> <language/iso639-2b/fre> } LIMIT 20
bench dave q4
bench dave q8
query dave repeat=2 SELECT ?s ?o WHERE { ?s <records> ?o . ?o <type> <Text> } LIMIT 20
bench dave q1
)";

void CheckEquivalent(const std::vector<Completion>& reference,
                     const std::vector<Completion>& actual,
                     const std::string& what) {
  SWAN_CHECK_MSG(reference.size() == actual.size(),
                 "serve equivalence gate: completion count diverged");
  // Ticket and dispatch ids keep counting across passes of one service,
  // so the gate compares them relative to each stream's first completion.
  const uint64_t ref_ticket0 = reference.front().ticket;
  const uint64_t ref_dispatch0 = reference.front().dispatch_index;
  const uint64_t act_ticket0 = actual.front().ticket;
  const uint64_t act_dispatch0 = actual.front().dispatch_index;
  for (size_t i = 0; i < reference.size(); ++i) {
    const Completion& r = reference[i];
    const Completion& a = actual[i];
    SWAN_CHECK_MSG(
        r.ticket - ref_ticket0 == a.ticket - act_ticket0 &&
            r.dispatch_index - ref_dispatch0 ==
                a.dispatch_index - act_dispatch0 &&
            r.session_id == a.session_id,
        "serve equivalence gate: dispatch order diverged");
    if (!(r.result == a.result)) {
      std::fprintf(stderr,
                   "serve equivalence gate FAILED (%s): ticket %llu rows "
                   "differ from the serial run\n",
                   what.c_str(), static_cast<unsigned long long>(r.ticket));
      std::abort();
    }
  }
}

std::vector<std::string> StatsRow(const std::string& backend,
                                  const std::string& pass,
                                  const ScriptRunResult& run,
                                  const LatencyStats& stats) {
  return {backend,
          pass,
          std::to_string(run.completions.size()),
          std::to_string(stats.cache_hits),
          swan::TablePrinter::Fixed(stats.throughput_per_second, 1),
          swan::TablePrinter::Fixed(stats.p50_seconds * 1e3, 3),
          swan::TablePrinter::Fixed(stats.p95_seconds * 1e3, 3),
          swan::TablePrinter::Fixed(stats.p99_seconds * 1e3, 3)};
}

// Nearest-rank percentile over the raw samples — the brute-force
// reference the telemetry window snapshots are gated against.
double BruteForcePercentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  if (rank == 0) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

uint64_t SumBytes(const std::vector<swan::obs::QueryLogRecord>& records,
                  size_t begin, size_t end) {
  uint64_t bytes = 0;
  for (size_t i = begin; i < end; ++i) bytes += records[i].bytes_read;
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  const auto ectx = swan::bench::InitThreads(argc, argv);
  (void)ectx;  // session widths are per-service; the global pool backs them
  const auto config = swan::bench::DefaultConfig();
  swan::bench::PrintHeader(
      "serve_throughput: concurrent query service, 4 sessions x 4 backends",
      "serving-layer extension (not in the paper); equivalence-gated "
      "against serial execution",
      config);

  const auto barton = swan::bench_support::GenerateBarton(config);
  const auto ctx = swan::bench_support::MakeBartonContext(barton.dataset, 28);

  const auto script_result = swan::serve::ParseScript(kMix);
  SWAN_CHECK_MSG(script_result.ok(), "serve mix script failed to parse");
  const auto& script = script_result.value();

  struct Grid {
    const char* label;
    const char* design;  // its bench_support::Designs() label
  };
  const std::vector<Grid> grid = {
      {"row triple PSO", "DBX triple PSO"},
      {"row vert. SO", "DBX vert. SO"},
      {"col triple PSO", "MonetDB triple PSO"},
      {"col vert. SO", "MonetDB vert. SO"},
  };

  swan::TablePrinter table({"backend", "pass", "reqs", "hits", "req/s",
                            "p50 ms", "p95 ms", "p99 ms"});
  const std::string json_path =
      swan::bench::InitJsonPath(argc, argv, "serve_throughput");
  swan::bench::BenchJsonWriter json("serve_throughput");

  for (const Grid& point : grid) {
    std::printf("serving on %s...\n", point.label);
    auto store = RdfStore::Open(
        barton.dataset, swan::bench_support::DesignNamed(point.design).options);

    // Reference: one worker, no result cache.
    ServiceOptions serial_options;
    serial_options.workers = 1;
    serial_options.cache_bytes = 0;
    std::vector<Completion> reference;
    uint64_t serial_bytes = 0;
    {
      QueryService serial(store.get(), ctx, serial_options);
      auto run = swan::serve::RunScript(&serial, script);
      SWAN_CHECK_MSG(run.ok(), "serial serve pass failed");
      SWAN_CHECK_MSG(run.value().rejected == 0,
                     "serial serve pass rejected submissions");
      reference = std::move(run.value().completions);
      const auto serial_log = serial.telemetry().LogSnapshot();
      serial_bytes = SumBytes(serial_log, 0, serial_log.size());
      serial.Stop();
    }

    // Concurrent service: cold pass (result cache empty), then the same
    // script again as the warm pass on the same service.
    store->DropCaches();
    ServiceOptions concurrent_options;
    concurrent_options.workers = kWorkers;
    QueryService service(store.get(), ctx, concurrent_options);

    auto cold = swan::serve::RunScript(&service, script);
    SWAN_CHECK_MSG(cold.ok(), "cold serve pass failed");
    CheckEquivalent(reference, cold.value().completions, "cold");
    const LatencyStats cold_stats =
        swan::serve::ModelSchedule(cold.value().completions, kWorkers);
    const size_t cold_records = service.telemetry().LogSnapshot().size();

    auto warm = swan::serve::RunScript(&service, script);
    SWAN_CHECK_MSG(warm.ok(), "warm serve pass failed");
    CheckEquivalent(reference, warm.value().completions, "warm");
    const LatencyStats warm_stats =
        swan::serve::ModelSchedule(warm.value().completions, kWorkers);
    SWAN_CHECK_MSG(warm_stats.cache_hits == warm.value().completions.size(),
                   "warm pass was expected to hit the result cache on every "
                   "request");
    SWAN_CHECK_MSG(warm_stats.throughput_per_second >=
                       1.5 * cold_stats.throughput_per_second,
                   "warm-cache throughput gain below the 1.5x gate");

    const auto audit = store->Audit(swan::audit::AuditLevel::kQuick);
    SWAN_CHECK_MSG(audit.ok(), "post-serve store+cache audit failed");

    // Fleet-telemetry reconciliation gate: the service's windowed
    // percentile snapshots must re-derive exactly (within one virtual
    // clock tick) from the deterministic latencies in its own query log.
    const auto fleet_log = service.telemetry().LogSnapshot();
    SWAN_CHECK_MSG(fleet_log.size() == cold.value().completions.size() +
                                           warm.value().completions.size(),
                   "query log is missing executed requests");
    std::vector<double> log_latencies;
    log_latencies.reserve(fleet_log.size());
    for (const auto& record : fleet_log) {
      log_latencies.push_back(record.latency_seconds);
    }
    const auto pooled = service.telemetry().PooledWindow();
    SWAN_CHECK_MSG(pooled.count == fleet_log.size(),
                   "windowed metrics saw a different request count than the "
                   "query log");
    SWAN_CHECK_MSG(std::fabs(pooled.p99_seconds -
                             BruteForcePercentile(log_latencies, 99.0)) <=
                       1e-9,
                   "telemetry pooled p99 diverges from the query log");
    SWAN_CHECK_MSG(std::fabs(pooled.p50_seconds -
                             BruteForcePercentile(log_latencies, 50.0)) <=
                       1e-9,
                   "telemetry pooled p50 diverges from the query log");

    const LatencyStats serial_stats = swan::serve::ModelSchedule(reference, 1);
    json.Add("serial", point.label, serial_bytes, serial_stats.p99_seconds,
             1.0);
    json.Add("cold", point.label, SumBytes(fleet_log, 0, cold_records),
             cold_stats.p99_seconds, 1.0);
    json.Add("warm", point.label,
             SumBytes(fleet_log, cold_records, fleet_log.size()),
             warm_stats.p99_seconds,
             warm_stats.throughput_per_second /
                 cold_stats.throughput_per_second);

    table.AddRow(StatsRow(point.label, "serial", {reference, 0, 0},
                          serial_stats));
    table.AddRow(StatsRow(point.label, "cold", cold.value(), cold_stats));
    table.AddRow(StatsRow(point.label, "warm", warm.value(), warm_stats));
    table.AddSeparator();

    const auto snap = service.metrics().Snap();
    std::printf(
        "  cache: %llu hits, %llu misses, %llu evictions, %llu "
        "invalidations; warm/cold throughput %.1fx\n",
        static_cast<unsigned long long>(snap.counters.at("serve.cache.hits")),
        static_cast<unsigned long long>(
            snap.counters.at("serve.cache.misses")),
        static_cast<unsigned long long>(
            snap.counters.at("serve.cache.evictions")),
        static_cast<unsigned long long>(
            snap.counters.at("serve.cache.invalidations")),
        warm_stats.throughput_per_second /
            cold_stats.throughput_per_second);
    service.Stop();
  }

  std::printf("\n%s\n", table.ToString().c_str());
  std::printf(
      "modeled latency: each request's service cost (critical-path CPU + "
      "simulated disk +\nfixed handling overhead) replayed onto %d FCFS "
      "servers; all equivalence gates passed\n(including query-log vs "
      "windowed-percentile reconciliation).\n",
      kWorkers);

  if (!json_path.empty()) {
    json.Extra("triples").Value(config.target_triples);
    json.Extra("workers").Value(kWorkers);
    json.Extra("telemetry_reconciled").Value(true);
    if (!json.WriteTo(json_path)) return 1;
  }
  return 0;
}
