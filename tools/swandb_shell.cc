// swandb_shell: command-line front-end over the library.
//
//   swandb_shell [--scheme triple|vertical] [--engine row|column]
//                [--clustering spo|pso] [--nodes N]
//                [--generate N | --load FILE.nt]
//                [--query 'SPARQL...' | --file QUERIES.rq | --serve SCRIPT]
//                [--explain] [--profile[=FILE]] [--audit]
//
// With no --query/--file/--serve, reads SPARQL queries from stdin,
// separated by lines containing only ';'. Each result is printed with row
// count and timing (real = CPU + simulated I/O). Typing `audit` (followed
// by ';') instead of a query runs the deep invariant audit over the open
// store. --audit runs the audit immediately after load and exits
// (non-zero if any invariant is violated).
//
// --serve SCRIPT replays a multi-session serve script (see
// serve/script.h: `session NAME [priority=N] [threads=N]`, `query NAME
// SPARQL...`, `bench NAME qK`, `insert|delete NAME s p o`) through the
// concurrent query service and prints each completion plus the modeled
// throughput/latency table and the result-cache counters. With
// --profile=FILE each session's requests are traced onto a separate
// Chrome-trace process track in FILE. Interactively, `serve SCRIPT`
// (followed by ';') does the same.
//
// --explain prints the cost-based planner's annotated physical plan (join
// order, step extents, filter placement, estimated cardinalities, and on
// a --nodes N store each step's node and ship mode) before each query's
// rows. Interactively, `explain SELECT ...` prints just the plan (or the
// parse error, exiting 1), and `explain analyze SELECT ...` prints the
// plan followed by the profiled execution — the span tree's `est=`
// annotations sit next to the actual row counts, so estimate quality is
// readable in one place.
//
// --profile attaches a trace session to every query and prints the text
// profile (EXPLAIN ANALYZE: span tree with virtual times, rows, bytes,
// seeks, plus the metrics snapshot) after the result rows. With
// --profile=FILE the Chrome trace_event JSON of the *last* profiled query
// is also written to FILE (open in chrome://tracing or Perfetto).
// Interactively, prefixing a single query with `profile ` does the same
// for just that query.
//
// Fleet telemetry is always on: every executed query (interactive, --query,
// --file, and every request of a --serve run) lands in a shell-level
// telemetry bundle — a structured query log and a cross-query profile
// aggregator; the windowed latency percentiles are read off the log.
//   stats;            prints the windowed-metrics JSON snapshot, then the
//                     store's resident bytes by structure and its disk
//                     bytes as one JSON object
//   querylog [FILE];  prints (or writes) the query log as JSON lines
//   topops [FILE];    prints the cumulative top-operators table (and
//                     writes collapsed flamegraph stacks to FILE)
// --querylog=FILE / --flamegraph=FILE write the query-log JSONL and the
// collapsed stacks on exit.
//
//   $ ./build/tools/swandb_shell --generate 100000
//         --query 'SELECT ?s WHERE { ?s <type> <Text> } LIMIT 5'

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "audit/audit.h"
#include "bench_support/barton_generator.h"
#include "core/backend.h"
#include "core/profiling.h"
#include "core/store.h"
#include "exec/exec_context.h"
#include "obs/export.h"
#include "obs/json_writer.h"
#include "obs/querylog.h"
#include "obs/telemetry.h"
#include "rdf/ntriples.h"
#include "serve/script.h"
#include "serve/service.h"
#include "sparql/sparql.h"

namespace {

struct ShellOptions {
  bool explain = false;
  bool audit = false;
  bool profile = false;
  std::string profile_path;  // Chrome trace destination; empty = text only
  std::string querylog_path;    // query-log JSONL written on exit
  std::string flamegraph_path;  // collapsed stacks written on exit
  std::string scheme = "vertical";
  std::string engine = "column";
  std::string clustering = "pso";
  std::string codec = "raw";
  uint64_t generate = 0;
  int nodes = 1;  // scale-out topology size (column-store only)
  std::string load_path;
  std::string query;
  std::string query_file;
  std::string serve_script;
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: swandb_shell [--scheme triple|vertical]\n"
      "                    [--engine row|column] [--clustering spo|pso]\n"
      "                    [--codec raw|rle|delta|bitpack|dictbitpack|auto]\n"
      "                    [--nodes N]\n"
      "                    [--generate N | --load FILE.nt]\n"
      "                    [--query 'SPARQL' | --file QUERIES.rq |\n"
      "                     --serve SCRIPT]\n"
      "                    [--profile[=FILE]] [--audit]\n"
      "                    [--querylog=FILE] [--flamegraph=FILE]\n");
}

// Parses all of `text` as a decimal node count: "2x" or "" is rejected.
bool ParseNodes(const std::string& text, int* nodes) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *nodes);
  if (ec == std::errc() && ptr == end) return true;
  std::fprintf(stderr, "invalid --nodes '%s'\n", text.c_str());
  return false;
}

bool ParseArgs(int argc, char** argv, ShellOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--scheme" && (value = next())) {
      options->scheme = value;
    } else if (arg == "--engine" && (value = next())) {
      options->engine = value;
    } else if (arg == "--clustering" && (value = next())) {
      options->clustering = value;
    } else if (arg == "--codec" && (value = next())) {
      options->codec = value;
    } else if (arg.rfind("--codec=", 0) == 0) {
      options->codec = arg.substr(std::strlen("--codec="));
    } else if (arg == "--generate" && (value = next())) {
      options->generate = std::strtoull(value, nullptr, 10);
    } else if (arg == "--load" && (value = next())) {
      options->load_path = value;
    } else if (arg == "--query" && (value = next())) {
      options->query = value;
    } else if (arg == "--file" && (value = next())) {
      options->query_file = value;
    } else if (arg == "--serve" && (value = next())) {
      options->serve_script = value;
    } else if (arg == "--explain") {
      options->explain = true;
    } else if (arg == "--profile") {
      options->profile = true;
    } else if (arg.rfind("--profile=", 0) == 0) {
      options->profile = true;
      options->profile_path = arg.substr(std::strlen("--profile="));
    } else if (arg == "--querylog" && (value = next())) {
      options->querylog_path = value;
    } else if (arg.rfind("--querylog=", 0) == 0) {
      options->querylog_path = arg.substr(std::strlen("--querylog="));
    } else if (arg == "--flamegraph" && (value = next())) {
      options->flamegraph_path = value;
    } else if (arg.rfind("--flamegraph=", 0) == 0) {
      options->flamegraph_path = arg.substr(std::strlen("--flamegraph="));
    } else if (arg == "--audit") {
      options->audit = true;
    } else if (arg == "--nodes" && (value = next())) {
      if (!ParseNodes(value, &options->nodes)) return false;
    } else if (arg.rfind("--nodes=", 0) == 0) {
      if (!ParseNodes(arg.substr(std::strlen("--nodes=")), &options->nodes)) {
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n",
                   arg.c_str());
      return false;
    }
  }
  if ((options->generate == 0) == options->load_path.empty()) {
    std::fprintf(stderr, "exactly one of --generate or --load is required\n");
    return false;
  }
  return true;
}

// EXPLAIN: lowers the query through the logical algebra and plans it the
// way execution does (core::PlanQuery under the store's cost-based
// planner options, so a sharded store's plan carries its node and ship
// annotations), then prints the annotated physical plan — join order,
// step extents, filter placement, estimated cardinalities. A parse or
// lowering error is returned for the caller to report.
swan::Status ExplainQuery(const swan::core::RdfStore& store,
                          const swan::rdf::Dataset& dataset,
                          const std::string& query) {
  SWAN_ASSIGN_OR_RETURN(swan::sparql::ParsedQuery parsed,
                        swan::sparql::Parse(query));
  SWAN_ASSIGN_OR_RETURN(swan::plan::LogicalPlan logical,
                        swan::sparql::BuildLogicalPlan(parsed, dataset));
  const auto physical =
      swan::core::PlanQuery(store.backend(), logical, store.planner_options(),
                            swan::exec::ExecContext());
  auto term_name = [&](uint64_t id) -> std::string {
    return std::string(dataset.dict().Lookup(id));
  };
  std::printf("%s", swan::plan::ExplainText(physical, term_name).c_str());
  return swan::Status::OK();
}

// Deep invariant audit of the open store; returns 1 if anything is wrong.
int RunAudit(const swan::core::RdfStore& store) {
  const auto report = store.Audit(swan::audit::AuditLevel::kFull);
  std::printf("%s", report.ToString().c_str());
  return report.ok() ? 0 : 1;
}

std::string Trimmed(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = text.find_last_not_of(" \t\r\n");
  return text.substr(begin, end - begin + 1);
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

// `stats;` — the windowed-metrics snapshot of the shell's telemetry, then
// where the store's memory sits (core::ResidentBytes, summed over the
// nodes of a sharded store) beside its bytes on disk.
int RunStats(const swan::obs::Telemetry& fleet,
             const swan::core::Backend& backend) {
  std::printf("%s", fleet.WindowsJson().c_str());
  std::printf("-- %llu query-log records\n\n",
              static_cast<unsigned long long>(fleet.records()));
  const swan::core::ResidentBytes resident = backend.Resident();
  swan::obs::JsonWriter json;
  json.BeginObject()
      .Field("backend", backend.name())
      .Field("disk_bytes", backend.disk_bytes())
      .Key("resident_bytes")
      .BeginObject()
      .Field("page_images", resident.page_images)
      .Field("pool_frames", resident.pool_frames)
      .Field("frame_table", resident.frame_table)
      .Field("column_images", resident.column_images)
      .EndObject()
      .EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

// `querylog [FILE];` — the structured query log as JSON lines. To a file
// the export is the byte-reproducible deterministic surface; on the
// terminal the host-time fields are included for interactive reading.
int RunQuerylog(const swan::obs::Telemetry& fleet, const std::string& path) {
  if (path.empty()) {
    std::printf("%s", fleet.QueryLogJsonl(/*include_host_time=*/true).c_str());
    return 0;
  }
  if (!WriteTextFile(path, fleet.QueryLogJsonl(/*include_host_time=*/false))) {
    return 1;
  }
  std::fprintf(stderr, "wrote query log to %s\n", path.c_str());
  return 0;
}

// `topops [FILE];` — cumulative top-operators table across every profiled
// query; FILE additionally receives the collapsed flamegraph stacks.
int RunTopOps(const swan::obs::Telemetry& fleet, const std::string& path) {
  std::printf("%s\n", fleet.TopOpsTable(10).c_str());
  if (!path.empty()) {
    if (!WriteTextFile(path, fleet.CollapsedStacks())) return 1;
    std::fprintf(stderr, "wrote collapsed stacks to %s\n", path.c_str());
  }
  return 0;
}

// Exit-time dump of the --querylog / --flamegraph destinations.
int DumpTelemetry(const swan::obs::Telemetry& fleet,
                  const ShellOptions& options) {
  int status = 0;
  if (!options.querylog_path.empty()) {
    if (WriteTextFile(options.querylog_path,
                      fleet.QueryLogJsonl(/*include_host_time=*/false))) {
      std::fprintf(stderr, "wrote query log to %s\n",
                   options.querylog_path.c_str());
    } else {
      status = 1;
    }
  }
  if (!options.flamegraph_path.empty()) {
    if (WriteTextFile(options.flamegraph_path, fleet.CollapsedStacks())) {
      std::fprintf(stderr, "wrote collapsed stacks to %s\n",
                   options.flamegraph_path.c_str());
    } else {
      status = 1;
    }
  }
  return status;
}

// Replays a serve script through the concurrent query service: prints
// every completion, the modeled throughput/latency summary, and the
// result-cache counters. With --profile=FILE the per-session Chrome
// trace (one process track per session) is written to FILE.
int RunServe(swan::core::RdfStore* store, const swan::rdf::Dataset& dataset,
             const std::string& path, const ShellOptions& options,
             swan::obs::Telemetry* fleet) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  auto script = swan::serve::ParseScript(in);
  if (!script.ok()) {
    std::fprintf(stderr, "serve script error: %s\n",
                 script.status().ToString().c_str());
    return 1;
  }
  // Benchmark queries (`bench NAME qK`) need the Barton vocabulary; plain
  // SPARQL and updates work against any dataset.
  std::optional<swan::core::QueryContext> bench_ctx;
  if (swan::core::Vocabulary::Resolve(dataset).ok()) {
    bench_ctx = swan::bench_support::MakeBartonContext(dataset, 28);
  }
  swan::serve::ServiceOptions service_options;
  service_options.trace = options.profile;
  swan::serve::QueryService service(store, bench_ctx, service_options);
  auto run = swan::serve::RunScript(&service, script.value());
  if (!run.ok()) {
    std::fprintf(stderr, "serve script failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  int status = 0;
  for (const auto& c : run.value().completions) {
    if (c.status.ok()) {
      std::printf("  #%-3llu %-7s %-10s %llu rows%s, %.4fs modeled\n",
                  static_cast<unsigned long long>(c.ticket),
                  swan::serve::ToString(c.kind), c.session_id.c_str(),
                  static_cast<unsigned long long>(c.result.rows.size()),
                  c.cache_hit ? " (cache hit)" : "", c.service_seconds);
    } else {
      status = 1;
      std::printf("  #%-3llu %-7s %-10s error: %s\n",
                  static_cast<unsigned long long>(c.ticket),
                  swan::serve::ToString(c.kind), c.session_id.c_str(),
                  c.status.ToString().c_str());
    }
  }
  const auto stats = swan::serve::ModelSchedule(
      run.value().completions, service.options().workers);
  std::printf(
      "-- %llu completions (%llu rejected), %llu cache hits; modeled "
      "%.1f req/s,\n   p50 %.3f ms, p95 %.3f ms, p99 %.3f ms on %d "
      "servers\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(run.value().rejected),
      static_cast<unsigned long long>(stats.cache_hits),
      stats.throughput_per_second, stats.p50_seconds * 1e3,
      stats.p95_seconds * 1e3, stats.p99_seconds * 1e3,
      service.options().workers);
  const auto snap = service.metrics().Snap();
  auto counter = [&](const char* name) -> unsigned long long {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  std::printf("   cache: %llu hits, %llu misses, %llu evictions, %llu "
              "invalidations\n\n",
              counter("serve.cache.hits"), counter("serve.cache.misses"),
              counter("serve.cache.evictions"),
              counter("serve.cache.invalidations"));
  if (options.profile && !options.profile_path.empty()) {
    std::ofstream out(options.profile_path,
                      std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", options.profile_path.c_str());
      return 1;
    }
    out << swan::obs::ChromeTraceJsonMulti(service.SessionTracks());
    std::fprintf(stderr, "wrote multi-session Chrome trace to %s\n",
                 options.profile_path.c_str());
  }
  service.Stop();
  // Fold the service's fleet telemetry (one record per executed request,
  // dispatch order) into the shell-level bundle so `stats;`, `querylog;`
  // and the exit-time dumps see serve traffic too.
  fleet->MergeFrom(service.telemetry());
  return status;
}

int RunQuery(swan::core::RdfStore& store,
             const swan::rdf::Dataset& dataset, const std::string& query,
             const ShellOptions& options, swan::obs::Telemetry* fleet) {
  const std::string trimmed = Trimmed(query);
  if (trimmed == "audit") return RunAudit(store);
  if (trimmed.rfind("serve ", 0) == 0) {
    return RunServe(&store, dataset,
                    Trimmed(trimmed.substr(std::strlen("serve "))), options,
                    fleet);
  }
  if (trimmed == "stats") return RunStats(*fleet, store.backend());
  if (trimmed == "querylog" || trimmed.rfind("querylog ", 0) == 0) {
    return RunQuerylog(*fleet, trimmed == "querylog"
                                   ? ""
                                   : Trimmed(trimmed.substr(
                                         std::strlen("querylog "))));
  }
  if (trimmed == "topops" || trimmed.rfind("topops ", 0) == 0) {
    return RunTopOps(*fleet, trimmed == "topops"
                                 ? ""
                                 : Trimmed(trimmed.substr(
                                       std::strlen("topops "))));
  }
  bool profile = options.profile;
  bool explain = options.explain;
  std::string text = query;
  if (trimmed.rfind("profile ", 0) == 0) {
    profile = true;
    text = trimmed.substr(std::strlen("profile "));
  } else if (trimmed.rfind("explain analyze ", 0) == 0) {
    // EXPLAIN ANALYZE: the planned tree with estimates, then the profiled
    // run whose span tree carries the actual cardinalities next to them.
    explain = true;
    profile = true;
    text = trimmed.substr(std::strlen("explain analyze "));
  } else if (trimmed.rfind("explain ", 0) == 0) {
    // EXPLAIN: print the annotated plan without executing.
    const swan::Status status =
        ExplainQuery(store, dataset, trimmed.substr(std::strlen("explain ")));
    if (status.ok()) return 0;
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  // A query that fails to plan fails the same way when it runs below,
  // which reports and logs the error.
  if (explain) (void)ExplainQuery(store, dataset, text);
  const swan::core::Backend& backend = store.backend();
  const swan::exec::ExecContext ectx;
  // Profiling is always on so the fleet telemetry gets operator-level
  // estimated-vs-actual cardinalities for every query; the `profile` flag
  // only controls whether the text profile is *printed*.
  swan::core::ScopedProfile scoped("query", backend, ectx);
  const swan::core::CostMeter meter(backend, ectx);
  auto result = swan::sparql::Execute(backend, dataset, text, ectx,
                                      &store.stats());

  // One structured query-log record per executed query, its costs
  // measured over the whole store as the serve tier measures them. The
  // latency on the deterministic surface is the virtual-clock delta; the
  // modeled CPU rides along in the host-time fields only.
  swan::obs::QueryLogRecord record;
  const swan::core::ExecCost cost = meter.Fill(&record);
  std::shared_ptr<swan::obs::TraceSession> session =
      scoped.Finish(cost.cpu_seconds);
  record.seq = fleet->records();
  record.session = "shell";
  record.kind = "sparql";
  record.text = swan::sparql::CanonicalQueryText(text);
  record.text_hash = swan::obs::Fnv1a64(record.text);
  record.backend = store.name();
  record.ok = result.ok();
  if (!result.ok()) record.error = result.status().message();
  record.snapshot_version = store.snapshot_version();
  record.vt_start = meter.io_start();
  record.vt_finish = backend.VirtualSeconds();
  record.latency_seconds = cost.io_seconds;
  record.service_seconds = cost.real_seconds();
  if (result.ok()) {
    record.rows = result.value().rows.size();
    record.plan_mode = result.value().plan_note;
  }
  record.ops = swan::obs::CollectEstimatedOps(session->root());
  fleet->Record(std::move(record), session.get());

  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  for (const auto& var : result.value().vars) {
    std::printf("?%-27s", var.c_str());
  }
  std::printf("\n");
  for (const auto& row : result.value().rows) {
    for (uint64_t id : row) {
      std::printf("%-28s", swan::sparql::TermText(dataset, id).c_str());
    }
    std::printf("\n");
  }
  std::printf("-- %llu rows, real %.4fs (user %.4fs)\n\n",
              static_cast<unsigned long long>(result.value().rows.size()),
              cost.real_seconds(), cost.user_seconds);
  if (profile) {
    std::printf("%s\n", swan::obs::TextProfile(*session).c_str());
    if (!options.profile_path.empty()) {
      std::ofstream out(options.profile_path,
                        std::ios::binary | std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n",
                     options.profile_path.c_str());
        return 1;
      }
      out << swan::obs::ChromeTraceJson(*session);
      std::fprintf(stderr, "wrote Chrome trace to %s\n",
                   options.profile_path.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ShellOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }

  // Data.
  swan::rdf::Dataset owned_dataset;
  swan::bench_support::BartonDataset barton;
  const swan::rdf::Dataset* dataset = nullptr;
  if (options.generate > 0) {
    swan::bench_support::BartonConfig config;
    config.target_triples = options.generate;
    std::fprintf(stderr, "generating %llu Barton-like triples...\n",
                 static_cast<unsigned long long>(options.generate));
    barton = swan::bench_support::GenerateBarton(config);
    dataset = &barton.dataset;
  } else {
    std::ifstream in(options.load_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", options.load_path.c_str());
      return 1;
    }
    uint64_t added = 0;
    auto st = swan::rdf::ParseNTriples(in, &owned_dataset, &added);
    if (!st.ok()) {
      std::fprintf(stderr, "parse error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded %llu triples from %s\n",
                 static_cast<unsigned long long>(added),
                 options.load_path.c_str());
    dataset = &owned_dataset;
  }

  // Store.
  swan::core::StoreOptions store_options;
  if (options.scheme == "triple") {
    store_options.scheme = swan::core::StorageScheme::kTripleStore;
  } else if (options.scheme == "vertical") {
    store_options.scheme = swan::core::StorageScheme::kVerticalPartitioned;
  } else {
    std::fprintf(stderr, "unknown scheme '%s'\n", options.scheme.c_str());
    return 2;
  }
  if (options.engine == "row") {
    store_options.engine = swan::core::EngineKind::kRowStore;
  } else if (options.engine == "column") {
    store_options.engine = swan::core::EngineKind::kColumnStore;
  } else {
    std::fprintf(stderr, "unknown engine '%s'\n", options.engine.c_str());
    return 2;
  }
  if (options.clustering == "spo") {
    store_options.clustering = swan::rdf::TripleOrder::kSPO;
  } else if (options.clustering == "pso") {
    store_options.clustering = swan::rdf::TripleOrder::kPSO;
  } else {
    std::fprintf(stderr, "unknown clustering '%s'\n",
                 options.clustering.c_str());
    return 2;
  }
  if (!swan::colstore::CodecFromString(options.codec, &store_options.codec)) {
    std::fprintf(stderr, "unknown codec '%s'\n", options.codec.c_str());
    return 2;
  }
  if (options.nodes < 1) {
    std::fprintf(stderr, "--nodes must be >= 1\n");
    return 2;
  }
  if (options.nodes > 1 &&
      store_options.engine != swan::core::EngineKind::kColumnStore) {
    std::fprintf(stderr, "--nodes > 1 requires the column engine\n");
    return 2;
  }
  store_options.nodes = options.nodes;
  auto store = swan::core::RdfStore::Open(*dataset, store_options);
  std::fprintf(stderr, "store: %s (%.1f MB on simulated disk)\n\n",
               store->name().c_str(), store->disk_bytes() / 1e6);

  if (options.audit) {
    return RunAudit(*store);
  }

  // Shell-level fleet telemetry: every query executed in this process
  // (interactive, --query, --file, and serve-script requests) lands here.
  swan::obs::Telemetry fleet;

  if (!options.serve_script.empty()) {
    const int status =
        RunServe(store.get(), *dataset, options.serve_script, options, &fleet);
    return DumpTelemetry(fleet, options) | status;
  }

  // Queries.
  if (!options.query.empty()) {
    const int status = RunQuery(*store, *dataset, options.query, options,
                                &fleet);
    return DumpTelemetry(fleet, options) | status;
  }
  std::istream* in = &std::cin;
  std::ifstream file;
  if (!options.query_file.empty()) {
    file.open(options.query_file);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", options.query_file.c_str());
      return 1;
    }
    in = &file;
  } else {
    std::fprintf(stderr,
                 "enter SPARQL; finish each query with a line containing "
                 "only ';'\n");
  }

  int status = 0;
  std::string buffer, line;
  while (std::getline(*in, line)) {
    if (line == ";") {
      if (!buffer.empty()) {
        status |= RunQuery(*store, *dataset, buffer, options, &fleet);
      }
      buffer.clear();
      continue;
    }
    buffer += line;
    buffer += '\n';
  }
  if (!buffer.empty()) {
    status |= RunQuery(*store, *dataset, buffer, options, &fleet);
  }
  return DumpTelemetry(fleet, options) | status;
}
