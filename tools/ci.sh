#!/usr/bin/env bash
# CI matrix driver, runnable locally or from .github/workflows/ci.yml:
#   release  - plain Release build, -Werror, full ctest, trace + serve
#              smokes, and every examples/ binary built and run
#   sanitize - ASan+UBSan RelWithDebInfo build, full ctest, then trace,
#              codec, planner, scaleout, serve and querylog smokes at
#              small scales
#   tsan     - ThreadSanitizer build, concurrency-focused tests + the
#              serve smoke (real client threads through the service)
#   tidy     - clang-tidy over src/ (skips with a notice if not installed)
#   lint     - swan-lint project-invariant linter + its self-test corpus
#              (pure python3: always runs, every toolchain)
#   tsafety  - clang -Wthread-safety -Werror=thread-safety build that
#              promotes the SWAN_GUARDED_BY/SWAN_REQUIRES annotations to
#              errors (skips with a notice on gcc-only toolchains, where
#              the macros compile to no-ops)
#   mutants  - every tools/mutants/*.patch on a scratch copy: the tests
#              it names must fail (not part of `all`)
#
# Usage: tools/ci.sh [release|sanitize|tsan|tidy|lint|tsafety|mutants|all]
# (default: all)
set -u

cd "$(dirname "$0")/.."
REPO_ROOT="$PWD"
JOBS="$(nproc 2>/dev/null || echo 4)"
mode="${1:-all}"

# The serve mix every serve smoke replays (both BGP join strategies in it).
SERVE_SMOKE="$REPO_ROOT/tools/serve_smoke.serve"

# Seconds one test may run: the TIMEOUT every ctest carries
# (SWAN_TEST_TIMEOUT in CMakeLists.txt), passed on so that a test without
# one fails too instead of hanging the leg.
TEST_TIMEOUT=60

build_and_test() {
  local dir="$1"; shift
  cmake -B "$dir" -S "$REPO_ROOT" "$@" || return 1
  cmake --build "$dir" -j "$JOBS" || return 1
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" \
     --timeout "$TEST_TIMEOUT") || return 1
  # Tests write the cost ledgers they measure into the build tree; the
  # committed ones in bench/baselines/ must come out of ctest untouched
  # (no change against the index, no new file).
  if ! git -C "$REPO_ROOT" diff --quiet -- bench/baselines ||
     [ -n "$(git -C "$REPO_ROOT" ls-files --others -- bench/baselines)" ]; then
    echo "ctest left bench/baselines/ modified or untracked:"
    git -C "$REPO_ROOT" status --short --untracked-files=all -- bench/baselines
    return 1
  fi
}

# Runs build tree $1's shell on 20k triples with the remaining arguments,
# profiling into $1/$2, and validates that Chrome trace (non-empty,
# per-track monotone timestamps).
shell_trace_smoke() {
  local dir="$1" trace="$1/$2"; shift 2
  "$dir/tools/swandb_shell" --generate 20000 --profile="$trace" "$@" \
    >/dev/null && python3 "$REPO_ROOT/tools/validate_trace.py" "$trace"
}

# Replays the serve mix on a 2-node store of build tree $1 into query log
# $2, which must validate and spread its sessions over both gather nodes.
sharded_serve_smoke() {
  "$1/tools/swandb_shell" --generate 20000 --nodes 2 --serve "$SERVE_SMOKE" \
    --querylog="$2" >/dev/null &&
    python3 "$REPO_ROOT/tools/validate_querylog.py" "$2" && python3 -c "
import json
records = [json.loads(l) for l in open('$2')]
assert all(r['nodes'] == 2 for r in records), 'nodes dimension missing'
assert len({r['node'] for r in records}) == 2, 'sessions all on one node'
print('sharded querylog: %d records over 2 nodes' % len(records))
"
}

# Validates bench JSON file $1 against the shared schema, then runs the
# python assertions $2 on it, parsed as `doc`.
check_bench_json() {
  python3 "$REPO_ROOT/tools/validate_bench_json.py" "$1" && python3 -c "
import json
doc = json.load(open('$1'))
$2"
}

status=0
case "$mode" in
  release|all)
    echo "=== matrix: release ==="
    RELEASE_DIR="$REPO_ROOT/build-ci-release"
    build_and_test "$RELEASE_DIR" \
      -DCMAKE_BUILD_TYPE=Release -DSWAN_WERROR=ON || status=1
    # Oracle soak: the SPARQL oracle test over 20 more seeds (gtest's
    # shuffle draws a new random seed each repetition, which the test
    # prints; `--gtest_shuffle --gtest_random_seed=N` replays seed N).
    echo "=== release: oracle soak ==="
    soak="$RELEASE_DIR/oracle-soak.log"
    "$RELEASE_DIR/tests/sparql_oracle_test" --gtest_repeat=20 \
      --gtest_shuffle >"$soak" 2>&1 ||
      { grep -E "oracle seed|Failure|^seed " "$soak" | tail -40
        echo "oracle soak failed: $soak"; status=1; }
    # Trace smoke: a profiled shell query must emit a well-formed Chrome
    # trace.
    echo "=== release: trace smoke ==="
    shell_trace_smoke "$RELEASE_DIR" trace-smoke.json \
      --query 'SELECT ?s WHERE { ?s <type> <Text> } LIMIT 5' || status=1
    # Audit smoke: the shell's full (kFull) audit, which recollects the
    # load-time statistics and compares them field by field and walks
    # every B+tree and column, on a row design, a column design and a
    # 2-node column store; it exits 1 on any finding.
    echo "=== release: audit smoke ==="
    for design in "--engine row --scheme triple --clustering pso" \
                  "--engine column --scheme vertical" \
                  "--engine column --scheme vertical --nodes 2"; do
      # $design is unquoted on purpose: it is a list of flags.
      "$RELEASE_DIR/tools/swandb_shell" --generate 20000 $design --audit \
        >/dev/null || { echo "audit failed: $design"; status=1; }
    done
    # Memory smoke: the shell's `stats;` after a query reports the store's
    # resident bytes by structure; every page image is a stored page, so
    # the page-image bytes equal the store's disk bytes, and no pool frame
    # holds page bytes apart from the disk's images (the row store's frames
    # share them; a column store's loads keep no frame). The same holds on
    # the four column designs after tools/merge_smoke.serve's writes (every
    # one must succeed: the shell exits 0) and merges: a merge drops the
    # files of the columns it replaces.
    echo "=== release: memory smoke ==="
    memory_smoke() {  # label, shell stdin, flags...
      local label="$1" input="$2" out
      shift 2
      out="$(printf '%s' "$input" |
        "$RELEASE_DIR/tools/swandb_shell" --generate 20000 "$@" \
          2>/dev/null)" ||
        { echo "memory smoke: shell exit $? ($label): $*"; return 1; }
      printf '%s\n' "$out" | tail -n 1 | python3 -c "
import json, sys
doc = json.loads(sys.stdin.read())
resident = doc['resident_bytes']
assert resident['page_images'] == doc['disk_bytes'], doc
assert resident['pool_frames'] == 0, doc
print('memory smoke (%s): %s, %d page-image bytes, %d column-image bytes'
      % ('$label', doc['backend'], resident['page_images'],
         resident['column_images']))
" || { echo "memory smoke failed ($label): $*"; return 1; }
    }
    query_stats="$(printf '%s\n;\nstats\n;\n' \
      'SELECT ?s ?l WHERE { ?s <type> <Text> . ?s <language> ?l }')"
    merge_stats="$(printf 'serve %s\n;\nstats\n;\n' \
      "$REPO_ROOT/tools/merge_smoke.serve")"
    for design in "--engine row --scheme triple --clustering pso" \
                  "--engine column --scheme vertical" \
                  "--engine column --scheme vertical --nodes 2"; do
      # $design is unquoted on purpose: it is a list of flags.
      memory_smoke query "$query_stats" $design || status=1
    done
    for design in "--engine column --scheme vertical" \
                  "--engine column --scheme vertical --nodes 2" \
                  "--engine column --scheme triple --clustering pso" \
                  "--engine column --scheme triple --clustering spo"; do
      memory_smoke merge "$merge_stats" $design || status=1
    done
    # Usage-error smoke: a bad flag value is rejected with its message
    # and exit code 2, never mapped to some other store.
    echo "=== release: usage error smoke ==="
    for bad in "--clustering sop|unknown clustering 'sop'" \
               "--nodes 2x|invalid --nodes '2x'" \
               "--scheme ptable|unknown scheme 'ptable'"; do
      flags="${bad%%|*}"
      want="${bad#*|}"
      # $flags is unquoted on purpose: it is a flag and its value.
      err="$("$RELEASE_DIR/tools/swandb_shell" --generate 100 $flags \
               2>&1 >/dev/null)"
      code=$?
      if [ "$code" -ne 2 ] || [[ "$err" != *"$want"* ]]; then
        echo "usage error not reported: $flags (exit $code): $err"
        status=1
      fi
    done
    # A bench's scale variable must be a whole number: "2e5" is not 2.
    err="$(SWAN_TRIPLES=2e5 "$RELEASE_DIR/bench/table5_query_footprint" \
             2>&1 >/dev/null)"
    code=$?
    if [ "$code" -ne 2 ] ||
       [[ "$err" != *"invalid SWAN_TRIPLES value '2e5'"* ]]; then
      echo "usage error not reported: SWAN_TRIPLES=2e5 (exit $code): $err"
      status=1
    fi
    # Serve smoke: a multi-session script through the concurrent query
    # service; the per-session Chrome trace must validate.
    echo "=== release: serve smoke ==="
    shell_trace_smoke "$RELEASE_DIR" serve-smoke.json --serve "$SERVE_SMOKE" ||
      status=1
    # Querylog smoke: the same serve script must leave a schema-valid
    # structured query log and collapsed flamegraph stacks, and the
    # replay must be byte-reproducible run to run, at 1 node and at 2.
    echo "=== release: querylog smoke ==="
    for nodes in 1 2; do
      log="$RELEASE_DIR/querylog-smoke-n$nodes"
      { "$RELEASE_DIR/tools/swandb_shell" --generate 20000 --nodes "$nodes" \
          --serve "$SERVE_SMOKE" --querylog="$log.jsonl" \
          --flamegraph="$log.folded" >/dev/null &&
        "$RELEASE_DIR/tools/swandb_shell" --generate 20000 --nodes "$nodes" \
          --serve "$SERVE_SMOKE" --querylog="$log-2.jsonl" >/dev/null &&
        cmp "$log.jsonl" "$log-2.jsonl" &&
        python3 "$REPO_ROOT/tools/validate_querylog.py" \
          "$log.jsonl" "$log.folded"; } || status=1
    done
    # Bench JSON smoke: --json emission must follow the shared bench-JSON
    # schema (tools/validate_bench_json.py: the fixed cell keys and this
    # bench's typed extras); the 20k exhibits ctest ran wrote theirs into
    # the build tree. The telemetry reconciliation must hold.
    echo "=== release: bench json smoke ==="
    python3 "$REPO_ROOT/tools/validate_bench_json.py" \
      "$RELEASE_DIR"/BENCH_{table,figure,ablation}*.json || status=1
    { SWAN_TRIPLES=20000 SWAN_REPS=1 \
        "$RELEASE_DIR/bench/serve_throughput" \
        --json="$RELEASE_DIR/BENCH_serve_throughput.json" >/dev/null &&
      check_bench_json "$RELEASE_DIR/BENCH_serve_throughput.json" \
        "assert doc['telemetry_reconciled'] is True, doc"; } || status=1
    # Every parallel_speedup cell carries the bytes of its cold 1-thread
    # run, which is never zero.
    { SWAN_TRIPLES=20000 "$RELEASE_DIR/bench/parallel_speedup" --threads=2 \
        --json="$RELEASE_DIR/BENCH_parallel_speedup.json" >/dev/null &&
      check_bench_json "$RELEASE_DIR/BENCH_parallel_speedup.json" "
zero = [(w, b) for w, cells in doc['workloads'].items()
        for b, cell in cells.items() if cell['cold_bytes'] <= 0]
assert not zero, 'cells without cold bytes: %r' % zero"; } || status=1
    # Micro-bench JSON smoke: a brief run of every micro bench must leave
    # google-benchmark JSON with a non-empty benchmark list, the B+tree
    # file must name the row engine's hot q3, the subject-set probe and
    # the Match scans, and the column-ops file q3's pair-count kernel,
    # both branches of the subject-filter merge (dense and short range),
    # the branch-free selects and marked count at their q2-q8 shapes and
    # the vertical q3 subject merge's selects.
    echo "=== release: micro bench json smoke ==="
    for micro in "$RELEASE_DIR"/bench/micro_*; do
      name="$(basename "$micro")"
      { "$micro" --benchmark_min_time=0.01 \
          --benchmark_out="$RELEASE_DIR/BENCH_$name.json" \
          --benchmark_out_format=json >/dev/null &&
        python3 -c "
import json
doc = json.load(open('$RELEASE_DIR/BENCH_$name.json'))
names = [b['name'] for b in doc['benchmarks']]
assert names, 'no benchmarks'
if '$name' == 'micro_bplus_tree':
    for want in ('BM_RowEngineQ3Hot/1/', 'BM_RowEngineQ3Hot/2/',
                 'BM_SubjectSetProbe/0', 'BM_SubjectSetProbe/1',
                 'BM_RowMatchScan/0', 'BM_RowMatchScan/1'):
        assert any(n.startswith(want) for n in names), (want, names)
if '$name' == 'micro_colstore_ops':
    for want in ('BM_CountPairsQ3/1/0', 'BM_CountPairsQ3/2/1',
                 'BM_MergeCountMatchesVertical/0',
                 'BM_MergeCountMatchesVertical/1',
                 'BM_SelectEqTypePartition', 'BM_CountMarkedByKey',
                 'BM_SelectMarkedEncoded', 'BM_MergeSelectVertical/3'):
        assert any(n.startswith(want) for n in names), (want, names)
print('micro bench json smoke: $name OK,', len(names), 'entries')
"; } || { echo "micro bench json failed: $name"; status=1; }
    done
    # Planner smoke: the planner ablation equivalence-gates all three plan
    # modes on q1-q8 across the backend grid and exits non-zero if the
    # cost-based plan ever loses to the hand-wired order or to the pinned
    # heuristic baseline (bench/baselines/), which must have applied at
    # this scale rather than been skipped.
    echo "=== release: planner smoke ==="
    { SWAN_TRIPLES=20000 "$RELEASE_DIR/bench/ablation_planner" \
        --json="$RELEASE_DIR/BENCH_ablation_planner.json" >/dev/null &&
      check_bench_json "$RELEASE_DIR/BENCH_ablation_planner.json" "
planner = doc['planner']
assert planner['gates_passed'] is True, planner
assert planner['heuristic_baseline'] == 'applied', planner"; } || status=1
    # Updates smoke: insert batches on existing and on new properties,
    # then q2*, which makes both column schemes merge their write stores;
    # every backend's rows are checked against the reference and the
    # binary exits non-zero on any disagreement.
    echo "=== release: updates smoke ==="
    SWAN_TRIPLES=20000 "$RELEASE_DIR/bench/ablation_updates" \
      >/dev/null || status=1
    # Claims (tools/check_claims.py) on Tables 4 and 6 and scale-out at
    # the default 400k triples (scale-out first checks its 12 queries at
    # nodes {1,2,4} x threads {1,8}) and the compression ablation at 40k.
    echo "=== release: claims ==="
    claims=("$RELEASE_DIR"/BENCH_{table6_cold_runs,table4_cstore_repetition}.json
            "$RELEASE_DIR"/BENCH_{ablation_compression,scaleout}.json)
    { "$RELEASE_DIR/bench/table6_cold_runs" --json="${claims[0]}" &&
      "$RELEASE_DIR/bench/table4_cstore_repetition" --json="${claims[1]}" &&
      SWAN_TRIPLES=40000 "$RELEASE_DIR/bench/ablation_compression" \
        --json="${claims[2]}" &&
      SWAN_REPS=1 "$RELEASE_DIR/bench/scaleout" --json="${claims[3]}"; } \
      >/dev/null &&
      python3 "$REPO_ROOT/tools/validate_bench_json.py" "${claims[@]}" &&
      python3 "$REPO_ROOT/tools/check_claims.py" "${claims[@]}" || status=1
    # swanbench smoke: a few seconds of every benchmark workload, each
    # answer (the 2-node store's included) checked against the reference
    # and every store audited at exit. Builds its own Release tree in
    # build-swanbench/.
    echo "=== release: swanbench smoke ==="
    bash "$REPO_ROOT/bench/swanbench/run.sh" --smoke >/dev/null || status=1
    # Sharded querylog smoke: a 2-node serve run must emit per-node
    # dimensions that validate, spread across both gather nodes. The
    # shell's own record of a 2-node one-shot query must carry the
    # topology and its BGP work, and a 2-node EXPLAIN must show where the
    # plan's steps run.
    echo "=== release: sharded querylog smoke ==="
    SHARDED_QUERY='SELECT ?s ?t WHERE { ?s <origin> <info:marcorg/DLC> .
      ?s <records> ?o2 . ?o2 <type> ?t }'
    { sharded_serve_smoke "$RELEASE_DIR" \
        "$RELEASE_DIR/querylog-sharded.jsonl" &&
      "$RELEASE_DIR/tools/swandb_shell" --generate 20000 --nodes 2 \
        --query "$SHARDED_QUERY" \
        --querylog="$RELEASE_DIR/querylog-shell-sharded.jsonl" >/dev/null &&
      python3 "$REPO_ROOT/tools/validate_querylog.py" \
        "$RELEASE_DIR/querylog-shell-sharded.jsonl" &&
      python3 -c "
import json
[record] = [json.loads(l) for l in open('$RELEASE_DIR/querylog-shell-sharded.jsonl')]
assert record['nodes'] == 2, 'shell record lost the topology: %r' % record
assert record['match_calls'] > 0, 'shell record lost the BGP work: %r' % record
print('shell sharded record: %d match calls, %d net bytes'
      % (record['match_calls'], record['net_bytes']))
" &&
      printf 'explain %s\n' "$SHARDED_QUERY" |
        "$RELEASE_DIR/tools/swandb_shell" --generate 20000 --nodes 2 \
          2>/dev/null | grep -E '\[(node [0-9]+|ship-)'; } || status=1
    # Every example must keep building and running (they double as living
    # API documentation).
    echo "=== release: examples ==="
    for example in quickstart barton_analytics schema_advisor \
                   ntriples_roundtrip sparql_demo; do
      echo "--- examples/$example ---"
      "$RELEASE_DIR/examples/$example" >/dev/null || status=1
    done
    [ "$mode" = "release" ] && exit "$status"
    ;;&
  sanitize|all)
    echo "=== matrix: sanitize (address;undefined) ==="
    ASAN_DIR="$REPO_ROOT/build-ci-asan"
    build_and_test "$ASAN_DIR" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSWAN_WERROR=ON \
      "-DSWAN_SANITIZE=address;undefined" || status=1
    # Trace smoke: a profiled shell query must emit a well-formed Chrome
    # trace.
    echo "=== sanitize: trace smoke ==="
    shell_trace_smoke "$ASAN_DIR" trace-smoke.json \
      --query 'SELECT ?s WHERE { ?s <type> <Text> } LIMIT 5' || status=1
    # Codec smoke: raw and auto columns must answer identically. The
    # `-- N rows, real ...` footer carries wall-clock times; strip it so
    # the diff compares result rows only.
    echo "=== sanitize: codec smoke ==="
    for codec in raw auto; do
      "$ASAN_DIR/tools/swandb_shell" --generate 20000 --codec "$codec" \
        --query 'SELECT ?s ?o WHERE { ?s <origin> ?o } LIMIT 20' |
        grep -v '^-- ' > "$ASAN_DIR/codec-smoke-$codec.txt" || status=1
    done
    diff -u "$ASAN_DIR/codec-smoke-raw.txt" "$ASAN_DIR/codec-smoke-auto.txt" ||
      status=1
    # Planner smoke at 8k triples: the adversarial worst-order mode is
    # quadratic in the dataset and ASan multiplies that; 8k still runs all
    # three modes over the full backend grid (the pinned 20k heuristic
    # baseline does not apply here; the release leg gates on it).
    echo "=== sanitize: planner smoke ==="
    SWAN_TRIPLES=8000 "$ASAN_DIR/bench/ablation_planner" >/dev/null ||
      status=1
    # Scale-out smoke at 60k triples: multi-node equivalence and the
    # scaling claims, which read modeled I/O + network (untouched by
    # ASan's CPU cost) and hold at any scale from 60k up.
    echo "=== sanitize: scaleout smoke ==="
    { SWAN_TRIPLES=60000 SWAN_REPS=1 "$ASAN_DIR/bench/scaleout" \
        --json="$ASAN_DIR/BENCH_scaleout.json" >/dev/null &&
      python3 "$REPO_ROOT/tools/check_claims.py" \
        "$ASAN_DIR/BENCH_scaleout.json"; } || status=1
    # Serve smoke: the multi-session script and its per-session trace.
    echo "=== sanitize: serve smoke ==="
    shell_trace_smoke "$ASAN_DIR" serve-smoke.json --serve "$SERVE_SMOKE" ||
      status=1
    # Querylog smoke: the structured query log and collapsed stacks.
    echo "=== sanitize: querylog smoke ==="
    { "$ASAN_DIR/tools/swandb_shell" --generate 20000 \
        --serve "$SERVE_SMOKE" --querylog="$ASAN_DIR/querylog-smoke.jsonl" \
        --flamegraph="$ASAN_DIR/querylog-smoke.folded" >/dev/null &&
      python3 "$REPO_ROOT/tools/validate_querylog.py" \
        "$ASAN_DIR/querylog-smoke.jsonl" \
        "$ASAN_DIR/querylog-smoke.folded"; } || status=1
    # Sharded querylog smoke: per-node dimensions on a 2-node store.
    echo "=== sanitize: sharded querylog smoke ==="
    sharded_serve_smoke "$ASAN_DIR" "$ASAN_DIR/querylog-sharded-smoke.jsonl" ||
      status=1
    [ "$mode" = "sanitize" ] && exit "$status"
    ;;&
  tsan|all)
    # TSan is incompatible with ASan, so it gets its own tree. The full
    # suite is slow under TSan; the concurrency-focused tests are the ones
    # that exercise cross-thread interleavings, so CI runs just those (the
    # buffer pool's on-demand frame table among them: its frame-growth
    # tests, and ConcurrencyStress's lanes fetching while it grows; and its
    # shared, copy-on-write page images: BufferPoolTest, and
    # ConcurrencyStress's lanes fetching while a writer write-throughs),
    # plus the scale-out equivalence suites (every column Run goes through
    # one scatter/gather routine, which only they drive at nodes > 1 and
    # 8 threads), the row engine's width suite (the triple store's chunked
    # FullScan and its per-chunk hash partials at 8 threads), the sorted
    # merge's oracle test (its per-chunk parallel path at widths 2 and 8),
    # the select kernels' oracle test (their per-morsel compaction at
    # widths 2 and 8), the vertical store's second-column test (at width
    # 8 the lane that first loads an object column depends on the
    # selection), the SPARQL oracle test at width 8 (random queries on
    # every backend, the sharded stores among them, half the graphs after
    # a batch of writes), the update suite (writes and merges on every
    # column design, the 2-node store among them) and a small
    # parallel_speedup smoke whose built-in
    # equivalence gate (same rows and cold I/O bytes as the 1-thread run)
    # aborts the process on any divergence.
    echo "=== matrix: tsan (thread) ==="
    TSAN_DIR="$REPO_ROOT/build-ci-tsan"
    { cmake -B "$TSAN_DIR" -S "$REPO_ROOT" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSWAN_WERROR=ON \
        -DSWAN_SANITIZE=thread &&
      cmake --build "$TSAN_DIR" -j "$JOBS" \
        --target thread_pool_test storage_test concurrency_stress_test \
                 bgp_parallel_test \
                 serve_test scaleout_test backend_equivalence_test \
                 merge_match_test select_oracle_test scan_filter_test \
                 sparql_test sparql_oracle_test fuzz_test update_test \
                 parallel_speedup swandb_shell &&
      (cd "$TSAN_DIR" && ctest --output-on-failure -j "$JOBS" \
        --timeout "$TEST_TIMEOUT" \
        -R 'ThreadPool|BufferPoolTest|BufferPoolFrameTable|ConcurrencyStress|BgpParallel|Serve|ResultCache|Admission|Script|ScaleoutEquivalence|ScaleoutWrites|RowEngineWidthTest|MergeMatchOracle|SelectOracle|ScanFilter|FilteredMatch|VerticalSecondColumn|SparqlOracleTest.*/w8|UpdateTest') &&
      SWAN_TRIPLES=60000 SWAN_REPS=1 \
        "$TSAN_DIR/bench/parallel_speedup" --threads=4 &&
      "$TSAN_DIR/tools/swandb_shell" --generate 20000 \
        --serve "$SERVE_SMOKE" >/dev/null; } || status=1
    [ "$mode" = "tsan" ] && exit "$status"
    ;;&
  tidy|all)
    echo "=== matrix: clang-tidy ==="
    if command -v clang-tidy >/dev/null 2>&1; then
      TIDY_DIR="$REPO_ROOT/build-tidy"
      # Library sources only: test files are gtest-macro heavy and drown
      # the signal.
      { cmake -B "$TIDY_DIR" -S "$REPO_ROOT" \
          -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null &&
        mapfile -t tidy_sources < <(find "$REPO_ROOT/src" -name '*.cc' | sort) &&
        clang-tidy -p "$TIDY_DIR" --quiet "${tidy_sources[@]}"; } || status=1
    else
      echo "clang-tidy: not installed, skipping (gcc-only toolchain)"
    fi
    [ "$mode" = "tidy" ] && exit "$status"
    ;;&
  lint|all)
    echo "=== matrix: swan-lint ==="
    { python3 "$REPO_ROOT/tools/swan_lint.py" &&
      python3 "$REPO_ROOT/tools/swan_lint.py" --self-test; } || status=1
    [ "$mode" = "lint" ] && exit "$status"
    ;;&
  tsafety|all)
    echo "=== matrix: thread-safety annotations ==="
    if command -v clang++ >/dev/null 2>&1; then
      TSAFETY_DIR="$REPO_ROOT/build-tsafety"
      { cmake -B "$TSAFETY_DIR" -S "$REPO_ROOT" \
          -DCMAKE_CXX_COMPILER=clang++ -DSWAN_THREAD_SAFETY=ON >/dev/null &&
        cmake --build "$TSAFETY_DIR" -j "$JOBS"; } || status=1
    else
      echo "thread-safety: clang not installed, skipping (gcc-only" \
           "toolchain; SWAN_* annotations compile to no-ops)"
    fi
    [ "$mode" = "tsafety" ] && exit "$status"
    ;;&
  mutants)
    # Each tools/mutants/*.patch names, on its "targets:" and "tests:"
    # lines, the build targets and the ctest regex that must kill it. The
    # patches apply in turn to one scratch copy of the tree (tracked and
    # untracked files); a mutant whose tests pass survives and fails the
    # leg, and one that does not apply or build stops it.
    echo "=== matrix: mutants ==="
    TREE="$REPO_ROOT/build-ci-mutants/tree"
    MUTANT_BUILD="$REPO_ROOT/build-ci-mutants/build"
    rm -rf "$REPO_ROOT/build-ci-mutants" && mkdir -p "$TREE" &&
      git ls-files -z -co --exclude-standard |
      tar --null --ignore-failed-read -T - -cf - | tar -C "$TREE" -xf - &&
      cmake -B "$MUTANT_BUILD" -S "$TREE" >/dev/null || exit 1
    for mutant in tools/mutants/*.patch; do
      targets="$(sed -n 's/^targets: //p' "$mutant")"
      tests="$(sed -n 's/^tests: //p' "$mutant")"
      # $targets is unquoted on purpose: it is a list of targets.
      { patch -s -d "$TREE" -p1 < "$mutant" &&
        cmake --build "$MUTANT_BUILD" -j "$JOBS" --target $targets \
          >/dev/null 2>&1; } || { echo "broken mutant: $mutant"; exit 1; }
      if (cd "$MUTANT_BUILD" && ctest -j "$JOBS" --no-tests=error \
            --timeout "$TEST_TIMEOUT" -R "$tests" >/dev/null 2>&1); then
        echo "SURVIVED: $mutant ($tests)"; status=1
      else
        echo "killed: $mutant ($tests)"
      fi
      patch -s -R -d "$TREE" -p1 < "$mutant" || exit 1
    done
    exit "$status"
    ;;
  release|sanitize|tsan|tidy|lint|tsafety|all)
    ;;
  *)
    echo "usage: tools/ci.sh" \
         "[release|sanitize|tsan|tidy|lint|tsafety|mutants|all]" >&2
    exit 2
    ;;
esac

exit "$status"
