#ifndef SWANDB_BENCH_BENCH_COMMON_H_
#define SWANDB_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>

#include "bench_support/barton_generator.h"
#include "bench_support/harness.h"
#include "colstore/compression.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"
#include "obs/json_writer.h"

namespace swan::bench {

// Default benchmark scale: ~1/100 of the Barton dump. Override with
// SWAN_TRIPLES; SWAN_SEED and SWAN_REPS are also honored.
inline bench_support::BartonConfig DefaultConfig() {
  bench_support::BartonConfig config;
  config.target_triples = bench_support::EnvU64("SWAN_TRIPLES", 400000);
  config.seed = bench_support::EnvU64("SWAN_SEED", 42);
  return config;
}

// SWAN_REPS, default 3. Zero repetitions would average nothing and print
// all-zero tables, so it exits 2 like any other invalid value.
inline int Repetitions() {
  const uint64_t reps = bench_support::EnvU64("SWAN_REPS", 3);
  if (reps == 0 || reps > static_cast<uint64_t>(INT_MAX)) {
    std::fprintf(stderr, "error: invalid SWAN_REPS value '%llu' (expected "
                         "at least 1)\n", static_cast<unsigned long long>(reps));
    std::exit(2);
  }
  return static_cast<int>(reps);
}

// Parses a --threads value. Rejects anything that is not a plain decimal
// integer (benches exit rather than silently running at a surprise width).
inline long long ParseThreadsOrDie(const char* text) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < 0) {
    std::fprintf(stderr, "error: invalid --threads value '%s' (expected a "
                         "non-negative integer)\n", text);
    std::exit(2);
  }
  return value;
}

// Configures the execution width from --threads=N (or "--threads N") on
// the command line, falling back to SWAN_THREADS, defaulting to 1 so every
// paper-reproduction bench keeps its published single-threaded shape
// unless parallelism is explicitly requested. `--threads=0` means "use
// the hardware concurrency". Returns the context benches should pass
// down; the global width is set to the same value so default-constructed
// contexts agree with it.
inline exec::ExecContext InitThreads(int argc, char** argv) {
  long long threads =
      static_cast<long long>(bench_support::EnvU64("SWAN_THREADS", 1));
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      threads = ParseThreadsOrDie(arg + 10);
    } else if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      threads = ParseThreadsOrDie(argv[++i]);
    }
  }
  const long long hw = static_cast<long long>(exec::HardwareConcurrency());
  if (threads == 0) threads = hw;
  // Lanes are virtual (timings are modeled), so the published sweep
  // widths stay meaningful on small hosts; oversubscription only gets a
  // notice. The hard cap rejects absurd widths that would flood the real
  // pool with OS threads.
  const long long cap = std::max<long long>(16, hw);
  if (threads > cap) {
    std::fprintf(stderr,
                 "warning: --threads=%lld exceeds the supported maximum %lld "
                 "(hardware concurrency %lld); capping\n", threads, cap, hw);
    threads = cap;
  } else if (threads > hw) {
    std::fprintf(stderr,
                 "note: --threads=%lld oversubscribes hardware concurrency "
                 "%lld; modeled lane times stay deterministic\n", threads, hw);
  }
  exec::SetThreads(static_cast<int>(threads));
  return exec::ExecContext(static_cast<int>(threads));
}

// Resolves the column codec from --codec=NAME (or "--codec NAME"),
// falling back to SWAN_CODEC, defaulting to raw so every bench keeps its
// published uncompressed baseline unless compressed execution is asked
// for. Unknown names exit rather than silently benchmarking the wrong
// storage format.
inline colstore::ColumnCodec InitCodec(int argc, char** argv) {
  const char* name = std::getenv("SWAN_CODEC");
  std::string text = (name != nullptr) ? name : "raw";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--codec=", 8) == 0) {
      text = arg + 8;
    } else if (std::strcmp(arg, "--codec") == 0 && i + 1 < argc) {
      text = argv[++i];
    }
  }
  colstore::ColumnCodec codec = colstore::ColumnCodec::kRaw;
  if (!colstore::CodecFromString(text, &codec)) {
    std::fprintf(stderr,
                 "error: unknown --codec value '%s' (expected raw, rle, "
                 "delta, bitpack, dictbitpack, or auto)\n", text.c_str());
    std::exit(2);
  }
  return codec;
}

// Machine-readable bench output, written when the bench is invoked with
// --json[=FILE]. One fixed schema across all benches so scripted
// consumers (CI trend lines, the EXPERIMENTS.md recipes,
// tools/validate_bench_json.py) never parse bench-specific tables:
//
//   {"bench": "<name>",
//    "workloads": {"<workload>": {"<backend>":
//        {"cold_bytes": N, "modeled_seconds": S, "speedup": X
//         [, "seeks": K, "io_seconds": S, "net_bytes": N]}}},
//    <extra top-level fields, each written through Extra(key)>}
//
// A cell added from a bench_support::Measurement also carries its
// deterministic costs (seeks, virtual I/O + network seconds, network
// bytes), which tools/check_claims.py judges the paper's cold claims on;
// modeled_seconds is then the measurement's real seconds.
//
// std::map keys make the emission order deterministic; the document is
// written through obs::JsonWriter. The exhibit runner (exhibit.h) writes it
// for its nine specs (Tables 4-7, Figures 6 and 7, scale_sensitivity and
// the buffer-pool and compression ablations); parallel_speedup,
// serve_throughput, scaleout and ablation_planner write it directly.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench_name)
      : bench_(std::move(bench_name)) {}

  void Add(const std::string& workload, const std::string& backend,
           uint64_t cold_bytes, double modeled_seconds,
           double speedup = 1.0) {
    cells_[workload][backend] =
        Cell{cold_bytes, modeled_seconds, speedup, std::nullopt};
  }
  void Add(const std::string& workload, const std::string& backend,
           const bench_support::Measurement& m, double speedup = 1.0) {
    cells_[workload][backend] =
        Cell{m.bytes_read, m.real_seconds, speedup,
             Deterministic{m.seeks, m.io_seconds, m.net_bytes}};
  }

  // Extra top-level field `key`: write its one value (a scalar, or an
  // object or array) into the returned writer.
  obs::JsonWriter& Extra(const std::string& key) { return extras_[key]; }

  std::string ToJson() const {
    obs::JsonWriter w;
    w.BeginObject().Field("bench", bench_).Key("workloads").BeginObject();
    for (const auto& [workload, backends] : cells_) {
      w.Key(workload).BeginObject();
      for (const auto& [backend, cell] : backends) {
        w.Key(backend).BeginObject().Field("cold_bytes", cell.cold_bytes)
            .Field("modeled_seconds", cell.modeled_seconds, 9)
            .Field("speedup", cell.speedup, 6);
        if (cell.deterministic) {
          w.Field("seeks", cell.deterministic->seeks)
              .Field("io_seconds", cell.deterministic->io_seconds, 9)
              .Field("net_bytes", cell.deterministic->net_bytes);
        }
        w.EndObject();
      }
      w.EndObject();
    }
    w.EndObject();
    for (const auto& [key, value] : extras_) w.Field(key, value);
    return w.EndObject().str() + "\n";
  }

  // Writes ToJson() to `path`. Returns false (with a stderr notice) on
  // I/O failure so benches can exit non-zero.
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write bench JSON to '%s'\n",
                   path.c_str());
      return false;
    }
    const std::string json = ToJson();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    std::fclose(f);
    if (ok) std::printf("bench JSON written to %s\n", path.c_str());
    return ok;
  }

 private:
  struct Deterministic {
    uint64_t seeks = 0;
    double io_seconds = 0.0;
    uint64_t net_bytes = 0;
  };
  struct Cell {
    uint64_t cold_bytes = 0;
    double modeled_seconds = 0.0;
    double speedup = 1.0;
    std::optional<Deterministic> deterministic;
  };

  std::string bench_;
  std::map<std::string, std::map<std::string, Cell>> cells_;
  std::map<std::string, obs::JsonWriter> extras_;
};

// Resolves the --json flag: `--json=FILE` names the output, a bare
// `--json` defaults to BENCH_<bench_name>.json, absence returns "" (no
// JSON emission).
inline std::string InitJsonPath(int argc, char** argv,
                                const std::string& bench_name) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--json=", 7) == 0) {
      path = arg + 7;
    } else if (std::strcmp(arg, "--json") == 0) {
      path = "BENCH_" + bench_name + ".json";
    }
  }
  return path;
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref,
                        const bench_support::BartonConfig& config,
                        const exec::ExecContext& ectx = exec::ExecContext()) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("dataset: Barton-like, %llu triples (seed %llu)\n",
              static_cast<unsigned long long>(config.target_triples),
              static_cast<unsigned long long>(config.seed));
  std::printf("threads: %d\n\n", ectx.threads());
}

}  // namespace swan::bench

#endif  // SWANDB_BENCH_BENCH_COMMON_H_
