#!/usr/bin/env bash
# Static-analysis and sanitizer driver:
#   1. swan-lint (tools/swan_lint.py) over the whole tree plus its
#      self-test corpus — always runs, needs only python3,
#   2. a clang -Wthread-safety -Werror=thread-safety build that promotes
#      the SWAN_GUARDED_BY/SWAN_REQUIRES annotations to errors (skipped
#      with a notice if clang is not installed — the container image
#      ships only gcc, where the macros compile to no-ops),
#   3. clang-tidy over src/ (skipped with a notice if clang-tidy is not
#      installed),
#   4. an ASan+UBSan build of everything, running the full test suite,
#   5. a TSan build running the concurrency-focused tests (thread pool,
#      buffer-pool/column stress) — ASan and TSan cannot share a binary.
#
# The ASan stage ends with a trace smoke (one profiled shell query writes
# a Chrome trace which tools/validate_trace.py checks for well-formed,
# monotone span events) and a serve smoke (a multi-session serve script
# replayed through `swandb_shell --serve`, whose per-session Chrome trace
# is validated the same way). The TSan stage runs the serve smoke too —
# the serving layer is the code with real cross-thread interleavings.
#
# Usage: tools/check.sh \
#   [--lint-only|--tsafety-only|--tidy-only|--asan-only|--tsan-only]
# Exits non-zero if any stage fails.
set -u

cd "$(dirname "$0")/.."
REPO_ROOT="$PWD"
JOBS="$(nproc 2>/dev/null || echo 4)"

run_lint=1
run_tsafety=1
run_tidy=1
run_asan=1
run_tsan=1
case "${1:-}" in
  --lint-only)    run_tsafety=0; run_tidy=0; run_asan=0; run_tsan=0 ;;
  --tsafety-only) run_lint=0; run_tidy=0; run_asan=0; run_tsan=0 ;;
  --tidy-only)    run_lint=0; run_tsafety=0; run_asan=0; run_tsan=0 ;;
  --asan-only)    run_lint=0; run_tsafety=0; run_tidy=0; run_tsan=0 ;;
  --tsan-only)    run_lint=0; run_tsafety=0; run_tidy=0; run_asan=0 ;;
  "") ;;
  *)
    echo "usage: tools/check.sh [--lint-only|--tsafety-only|--tidy-only|--asan-only|--tsan-only]" >&2
    exit 2
    ;;
esac

failures=0

# Small deterministic serve mix used by the ASan and TSan smoke legs (the
# same script as tools/ci.sh's, with both BGP join strategies in it).
write_serve_smoke() {
  cat > "$1" <<'EOF'
session alice threads=2
session bob
bench alice q1
bench alice repeat=2 q5
query bob SELECT ?s WHERE { ?s <type> <Text> } LIMIT 5
query bob repeat=2 SELECT ?s ?o WHERE { ?s <origin> ?o } LIMIT 5
query alice SELECT ?s ?l WHERE { ?s <type> <Text> . ?s <language> ?l }
query bob SELECT ?r ?l WHERE { <curated_0> <records> ?r OPTIONAL { ?r <language> ?l } }
bench bob q2
EOF
}

if [ "$run_lint" -eq 1 ]; then
  echo "== swan-lint (project invariants) =="
  if python3 "$REPO_ROOT/tools/swan_lint.py" &&
     python3 "$REPO_ROOT/tools/swan_lint.py" --self-test; then
    echo "swan-lint: clean"
  else
    echo "swan-lint: FINDINGS (see above)"
    failures=$((failures + 1))
  fi
fi

if [ "$run_tsafety" -eq 1 ]; then
  if command -v clang++ >/dev/null 2>&1; then
    echo "== clang -Wthread-safety (annotations as errors) =="
    TSAFETY_BUILD="$REPO_ROOT/build-tsafety"
    if cmake -B "$TSAFETY_BUILD" -S "$REPO_ROOT" \
         -DCMAKE_CXX_COMPILER=clang++ \
         -DSWAN_THREAD_SAFETY=ON >/dev/null &&
       cmake --build "$TSAFETY_BUILD" -j "$JOBS"; then
      echo "thread-safety: clean"
    else
      echo "thread-safety: FAILURES"
      failures=$((failures + 1))
    fi
  else
    echo "== thread-safety: clang not installed, skipping (gcc-only toolchain; SWAN_* annotations compile to no-ops) =="
  fi
fi

if [ "$run_tidy" -eq 1 ]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy =="
    TIDY_BUILD="$REPO_ROOT/build-tidy"
    cmake -B "$TIDY_BUILD" -S "$REPO_ROOT" \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null || exit 1
    # Library sources only: test files are gtest-macro heavy and drown the
    # signal.
    mapfile -t tidy_sources < <(find "$REPO_ROOT/src" -name '*.cc' | sort)
    if ! clang-tidy -p "$TIDY_BUILD" --quiet "${tidy_sources[@]}"; then
      echo "clang-tidy: FINDINGS (see above)"
      failures=$((failures + 1))
    else
      echo "clang-tidy: clean"
    fi
  else
    echo "== clang-tidy: not installed, skipping (gcc-only toolchain) =="
  fi
fi

if [ "$run_asan" -eq 1 ]; then
  echo "== ASan+UBSan build + ctest =="
  ASAN_BUILD="$REPO_ROOT/build-asan"
  cmake -B "$ASAN_BUILD" -S "$REPO_ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    "-DSWAN_SANITIZE=address;undefined" \
    -DSWAN_WERROR=ON >/dev/null || exit 1
  cmake --build "$ASAN_BUILD" -j "$JOBS" || exit 1
  if ! (cd "$ASAN_BUILD" && ctest --output-on-failure -j "$JOBS"); then
    echo "sanitized ctest: FAILURES"
    failures=$((failures + 1))
  else
    echo "sanitized ctest: clean"
  fi

  echo "== trace smoke (profiled shell query + Chrome JSON validation) =="
  TRACE_JSON="$ASAN_BUILD/trace-smoke.json"
  if "$ASAN_BUILD/tools/swandb_shell" --generate 20000 \
       --profile="$TRACE_JSON" \
       --query 'SELECT ?s WHERE { ?s <type> <Text> } LIMIT 5' \
       >/dev/null &&
     python3 "$REPO_ROOT/tools/validate_trace.py" "$TRACE_JSON"; then
    echo "trace smoke: clean"
  else
    echo "trace smoke: FAILURES"
    failures=$((failures + 1))
  fi

  echo "== codec smoke (raw vs auto must answer identically) =="
  CODEC_RAW_OUT="$ASAN_BUILD/codec-smoke-raw.txt"
  CODEC_AUTO_OUT="$ASAN_BUILD/codec-smoke-auto.txt"
  # The `-- N rows, real ...` footer carries wall-clock times; strip it so
  # the diff compares result rows only.
  if "$ASAN_BUILD/tools/swandb_shell" --generate 20000 --codec raw \
       --query 'SELECT ?s ?o WHERE { ?s <origin> ?o } LIMIT 20' \
       | grep -v '^-- ' > "$CODEC_RAW_OUT" &&
     "$ASAN_BUILD/tools/swandb_shell" --generate 20000 --codec auto \
       --query 'SELECT ?s ?o WHERE { ?s <origin> ?o } LIMIT 20' \
       | grep -v '^-- ' > "$CODEC_AUTO_OUT" &&
     diff -u "$CODEC_RAW_OUT" "$CODEC_AUTO_OUT"; then
    echo "codec smoke: clean"
  else
    echo "codec smoke: FAILURES"
    failures=$((failures + 1))
  fi

  echo "== planner smoke (plan modes must agree; planner must not lose) =="
  # Small scale: the adversarial worst-order mode is quadratic in the
  # dataset and the ASan build multiplies that; 8k triples still runs all
  # three modes over the full backend grid (the pinned 20k heuristic
  # baseline does not apply here; the release leg gates on it).
  if SWAN_TRIPLES=8000 "$ASAN_BUILD/bench/ablation_planner" >/dev/null; then
    echo "planner smoke: clean"
  else
    echo "planner smoke: FAILURES"
    failures=$((failures + 1))
  fi

  echo "== scaleout smoke (multi-node equivalence + scaling gates) =="
  # Small N keeps the ASan run short: the equivalence section runs 12
  # queries x 3 node counts x 2 widths x 2 schemes. The scaling gate
  # measures modeled I/O + network, which ASan's CPU cost does not touch,
  # and is scale-independent (it passes at 60k, 120k, and the default
  # 400k).
  if SWAN_TRIPLES=60000 SWAN_REPS=1 "$ASAN_BUILD/bench/scaleout" \
       >/dev/null; then
    echo "scaleout smoke: clean"
  else
    echo "scaleout smoke: FAILURES"
    failures=$((failures + 1))
  fi

  echo "== serve smoke (multi-session script + per-session trace) =="
  SERVE_SCRIPT="$ASAN_BUILD/serve-smoke.serve"
  SERVE_JSON="$ASAN_BUILD/serve-smoke.json"
  write_serve_smoke "$SERVE_SCRIPT"
  if "$ASAN_BUILD/tools/swandb_shell" --generate 20000 \
       --serve "$SERVE_SCRIPT" --profile="$SERVE_JSON" >/dev/null &&
     python3 "$REPO_ROOT/tools/validate_trace.py" "$SERVE_JSON"; then
    echo "serve smoke: clean"
  else
    echo "serve smoke: FAILURES"
    failures=$((failures + 1))
  fi

  echo "== querylog smoke (fleet telemetry JSONL + collapsed stacks) =="
  QUERYLOG_JSONL="$ASAN_BUILD/querylog-smoke.jsonl"
  QUERYLOG_FOLDED="$ASAN_BUILD/querylog-smoke.folded"
  if "$ASAN_BUILD/tools/swandb_shell" --generate 20000 \
       --serve "$SERVE_SCRIPT" --querylog="$QUERYLOG_JSONL" \
       --flamegraph="$QUERYLOG_FOLDED" >/dev/null &&
     python3 "$REPO_ROOT/tools/validate_querylog.py" \
       "$QUERYLOG_JSONL" "$QUERYLOG_FOLDED"; then
    echo "querylog smoke: clean"
  else
    echo "querylog smoke: FAILURES"
    failures=$((failures + 1))
  fi

  echo "== sharded querylog smoke (per-node dimensions on a 2-node store) =="
  SHARDED_JSONL="$ASAN_BUILD/querylog-sharded-smoke.jsonl"
  if "$ASAN_BUILD/tools/swandb_shell" --generate 20000 --nodes 2 \
       --serve "$SERVE_SCRIPT" --querylog="$SHARDED_JSONL" >/dev/null &&
     python3 "$REPO_ROOT/tools/validate_querylog.py" "$SHARDED_JSONL" &&
     python3 -c "
import json, sys
records = [json.loads(l) for l in open('$SHARDED_JSONL')]
assert all(r['nodes'] == 2 for r in records), 'nodes dimension missing'
assert len({r['node'] for r in records}) == 2, 'sessions all on one node'
print('sharded querylog: %d records over 2 nodes' % len(records))
"; then
    echo "sharded querylog smoke: clean"
  else
    echo "sharded querylog smoke: FAILURES"
    failures=$((failures + 1))
  fi
fi

if [ "$run_tsan" -eq 1 ]; then
  echo "== TSan build + concurrency tests =="
  TSAN_BUILD="$REPO_ROOT/build-tsan"
  cmake -B "$TSAN_BUILD" -S "$REPO_ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSWAN_SANITIZE=thread \
    -DSWAN_WERROR=ON >/dev/null || exit 1
  cmake --build "$TSAN_BUILD" -j "$JOBS" \
    --target thread_pool_test concurrency_stress_test serve_test \
             swandb_shell || exit 1
  if ! (cd "$TSAN_BUILD" &&
        ctest --output-on-failure -j "$JOBS" \
          -R 'ThreadPool|ConcurrencyStress|Serve|ResultCache|Admission|Script'); then
    echo "tsan ctest: FAILURES"
    failures=$((failures + 1))
  else
    echo "tsan ctest: clean"
  fi

  echo "== TSan serve smoke =="
  write_serve_smoke "$TSAN_BUILD/serve-smoke.serve"
  if "$TSAN_BUILD/tools/swandb_shell" --generate 20000 \
       --serve "$TSAN_BUILD/serve-smoke.serve" >/dev/null; then
    echo "tsan serve smoke: clean"
  else
    echo "tsan serve smoke: FAILURES"
    failures=$((failures + 1))
  fi
fi

if [ "$failures" -ne 0 ]; then
  echo "check.sh: $failures stage(s) failed"
  exit 1
fi
echo "check.sh: all stages passed"
