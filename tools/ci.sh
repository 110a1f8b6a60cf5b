#!/usr/bin/env bash
# CI matrix driver, runnable locally or from .github/workflows/ci.yml:
#   release  - plain Release build, -Werror, full ctest, trace + serve
#              smokes, and every examples/ binary built and run
#   sanitize - ASan+UBSan RelWithDebInfo build, full ctest
#   tsan     - ThreadSanitizer build, concurrency-focused tests + the
#              serve smoke (real client threads through the service)
#   tidy     - clang-tidy over src/ (skips with a notice if not installed)
#   lint     - swan-lint project-invariant linter + its self-test corpus
#              (pure python3: always runs, every toolchain)
#   tsafety  - clang -Wthread-safety -Werror=thread-safety build (skips
#              with a notice on gcc-only toolchains)
#
# Usage: tools/ci.sh [release|sanitize|tsan|tidy|lint|tsafety|all]
# (default: all)
set -u

cd "$(dirname "$0")/.."
REPO_ROOT="$PWD"
JOBS="$(nproc 2>/dev/null || echo 4)"
mode="${1:-all}"

# The two multi-pattern queries put both BGP join strategies through the
# smokes: the star probes <type> once and scan-joins <language>; the
# OPTIONAL probes its inner step once per (single) outer row.
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

build_and_test() {
  local dir="$1"; shift
  cmake -B "$dir" -S "$REPO_ROOT" "$@" || return 1
  cmake --build "$dir" -j "$JOBS" || return 1
  (cd "$dir" && ctest --output-on-failure -j "$JOBS") || return 1
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

status=0
case "$mode" in
  release|all)
    echo "=== matrix: release ==="
    RELEASE_DIR="$REPO_ROOT/build-ci-release"
    build_and_test "$RELEASE_DIR" \
      -DCMAKE_BUILD_TYPE=Release -DSWAN_WERROR=ON || status=1
    # Trace smoke: a profiled shell query must emit a well-formed Chrome
    # trace (non-empty, per-track monotone timestamps).
    echo "=== release: trace smoke ==="
    { "$RELEASE_DIR/tools/swandb_shell" --generate 20000 \
        --profile="$RELEASE_DIR/trace-smoke.json" \
        --query 'SELECT ?s WHERE { ?s <type> <Text> } LIMIT 5' >/dev/null &&
      python3 "$REPO_ROOT/tools/validate_trace.py" \
        "$RELEASE_DIR/trace-smoke.json"; } || status=1
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
    # Serve smoke: a multi-session script through the concurrent query
    # service; the per-session Chrome trace must validate.
    echo "=== release: serve smoke ==="
    write_serve_smoke "$RELEASE_DIR/serve-smoke.serve"
    { "$RELEASE_DIR/tools/swandb_shell" --generate 20000 \
        --serve "$RELEASE_DIR/serve-smoke.serve" \
        --profile="$RELEASE_DIR/serve-smoke.json" >/dev/null &&
      python3 "$REPO_ROOT/tools/validate_trace.py" \
        "$RELEASE_DIR/serve-smoke.json"; } || status=1
    # Querylog smoke: the same serve script must leave a schema-valid
    # structured query log and collapsed flamegraph stacks, and the
    # replay must be byte-reproducible run to run.
    echo "=== release: querylog smoke ==="
    { "$RELEASE_DIR/tools/swandb_shell" --generate 20000 \
        --serve "$RELEASE_DIR/serve-smoke.serve" \
        --querylog="$RELEASE_DIR/querylog-smoke.jsonl" \
        --flamegraph="$RELEASE_DIR/querylog-smoke.folded" >/dev/null &&
      "$RELEASE_DIR/tools/swandb_shell" --generate 20000 \
        --serve "$RELEASE_DIR/serve-smoke.serve" \
        --querylog="$RELEASE_DIR/querylog-smoke-2.jsonl" >/dev/null &&
      cmp "$RELEASE_DIR/querylog-smoke.jsonl" \
        "$RELEASE_DIR/querylog-smoke-2.jsonl" &&
      python3 "$REPO_ROOT/tools/validate_querylog.py" \
        "$RELEASE_DIR/querylog-smoke.jsonl" \
        "$RELEASE_DIR/querylog-smoke.folded"; } || status=1
    # Bench JSON smoke: --json emission must be schema-stable enough for
    # the validator-adjacent consumers (a dict with the fixed cell keys).
    echo "=== release: bench json smoke ==="
    { SWAN_TRIPLES=20000 SWAN_REPS=1 \
        "$RELEASE_DIR/bench/serve_throughput" \
        --json="$RELEASE_DIR/BENCH_serve_throughput.json" >/dev/null &&
      python3 -c "
import json, sys
doc = json.load(open('$RELEASE_DIR/BENCH_serve_throughput.json'))
assert doc['bench'] == 'serve_throughput', doc
assert doc['workloads'], 'no workloads'
for backend_map in doc['workloads'].values():
    for cell in backend_map.values():
        assert set(cell) == {'cold_bytes', 'modeled_seconds', 'speedup'}, cell
assert doc.get('telemetry_reconciled') is True, doc
print('bench json smoke: OK')
"; } || status=1
    # Micro-bench JSON smoke: a brief run of the row engine's hot q3, the
    # subject-set probe and the Match scans must leave google-benchmark
    # JSON naming all three.
    echo "=== release: micro bench json smoke ==="
    { "$RELEASE_DIR/bench/micro_bplus_tree" \
        --benchmark_filter='RowEngineQ3Hot|SubjectSetProbe|RowMatchScan' \
        --benchmark_min_time=0.01 \
        --benchmark_out="$RELEASE_DIR/BENCH_micro_rowstore.json" \
        --benchmark_out_format=json >/dev/null &&
      python3 -c "
import json
doc = json.load(open('$RELEASE_DIR/BENCH_micro_rowstore.json'))
names = [b['name'] for b in doc['benchmarks']]
for want in ('BM_RowEngineQ3Hot/1/', 'BM_RowEngineQ3Hot/2/',
             'BM_SubjectSetProbe/0', 'BM_SubjectSetProbe/1',
             'BM_RowMatchScan/0', 'BM_RowMatchScan/1'):
    assert any(n.startswith(want) for n in names), (want, names)
print('micro bench json smoke: OK')
"; } || status=1
    # Codec-equivalence smoke: the compression ablation verifies every
    # codec against the row reference on all 12 queries and gates on the
    # cold-bytes reduction, at a scale small enough for CI.
    echo "=== release: codec smoke ==="
    SWAN_TRIPLES=40000 "$RELEASE_DIR/bench/ablation_compression" \
      >/dev/null || status=1
    # Planner smoke: the planner ablation equivalence-gates all three plan
    # modes on q1-q8 across the backend grid and exits non-zero if the
    # cost-based plan ever loses to the hand-wired order or to the pinned
    # heuristic baseline (bench/baselines/), which must have applied at
    # this scale rather than been skipped.
    echo "=== release: planner smoke ==="
    { SWAN_TRIPLES=20000 "$RELEASE_DIR/bench/ablation_planner" \
        --json="$RELEASE_DIR/BENCH_ablation_planner.json" >/dev/null &&
      python3 -c "
import json
doc = json.load(open('$RELEASE_DIR/BENCH_ablation_planner.json'))
planner = doc['planner']
assert planner['gates_passed'] is True, planner
assert planner['heuristic_baseline'] == 'applied', planner
print('planner smoke: OK')
"; } || status=1
    # Updates smoke: insert batches on existing and on new properties,
    # then q2*, which makes both column schemes merge their write stores;
    # every backend's rows are checked against the reference and the
    # binary exits non-zero on any disagreement.
    echo "=== release: updates smoke ==="
    SWAN_TRIPLES=20000 "$RELEASE_DIR/bench/ablation_updates" \
      >/dev/null || status=1
    # Row-design smoke: the only bench that checks all three row designs
    # (triple PSO, vertical, property table) against the reference on
    # all 12 queries; it exits non-zero on any disagreement.
    echo "=== release: row designs smoke ==="
    SWAN_TRIPLES=20000 SWAN_REPS=1 "$RELEASE_DIR/bench/beyond_property_table" \
      >/dev/null || status=1
    # Scale-out smoke, at the full default scale (release is fast
    # enough): 12-query equivalence at nodes {1,2,4} x threads {1,8},
    # the >=1.7x / >=3.0x cold-throughput gates, and the
    # cross-partition attribution gate all live inside the binary.
    echo "=== release: scaleout smoke ==="
    { SWAN_REPS=1 "$RELEASE_DIR/bench/scaleout" \
        --json="$RELEASE_DIR/BENCH_scaleout.json" >/dev/null &&
      python3 -c "
import json
doc = json.load(open('$RELEASE_DIR/BENCH_scaleout.json'))
assert doc['bench'] == 'scaleout', doc
gates = doc['scaleout']
assert gates['gates_passed'] is True, gates
assert gates['speedup_2_nodes'] >= gates['gate_2_nodes'], gates
assert gates['speedup_4_nodes'] >= gates['gate_4_nodes'], gates
assert gates['cross_net_bytes'] > 0, gates
print('scaleout json smoke: OK')
"; } || status=1
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
    { "$RELEASE_DIR/tools/swandb_shell" --generate 20000 --nodes 2 \
        --serve "$RELEASE_DIR/serve-smoke.serve" \
        --querylog="$RELEASE_DIR/querylog-sharded.jsonl" >/dev/null &&
      python3 "$REPO_ROOT/tools/validate_querylog.py" \
        "$RELEASE_DIR/querylog-sharded.jsonl" &&
      python3 -c "
import json
records = [json.loads(l) for l in open('$RELEASE_DIR/querylog-sharded.jsonl')]
assert all(r['nodes'] == 2 for r in records), 'nodes dimension missing'
assert len({r['node'] for r in records}) == 2, 'sessions all on one node'
print('sharded querylog: %d records over 2 nodes' % len(records))
" &&
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
    build_and_test "$REPO_ROOT/build-ci-asan" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSWAN_WERROR=ON \
      "-DSWAN_SANITIZE=address;undefined" || status=1
    [ "$mode" = "sanitize" ] && exit "$status"
    ;;&
  tsan|all)
    # TSan is incompatible with ASan, so it gets its own tree. The full
    # suite is slow under TSan; the concurrency-focused tests are the ones
    # that exercise cross-thread interleavings, so CI runs just those,
    # plus the scale-out equivalence suites (every column Run goes through
    # one scatter/gather routine, which only they drive at nodes > 1 and
    # 8 threads) and a small parallel_speedup smoke whose built-in
    # equivalence gate (same rows and cold I/O bytes as the 1-thread run)
    # aborts the process on any divergence.
    echo "=== matrix: tsan (thread) ==="
    TSAN_DIR="$REPO_ROOT/build-ci-tsan"
    { cmake -B "$TSAN_DIR" -S "$REPO_ROOT" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSWAN_WERROR=ON \
        -DSWAN_SANITIZE=thread &&
      cmake --build "$TSAN_DIR" -j "$JOBS" \
        --target thread_pool_test concurrency_stress_test bgp_parallel_test \
                 serve_test scaleout_test parallel_speedup swandb_shell &&
      (cd "$TSAN_DIR" && ctest --output-on-failure -j "$JOBS" \
        -R 'ThreadPool|ConcurrencyStress|BgpParallel|Serve|ResultCache|Admission|Script|ScaleoutEquivalence|ScaleoutWrites') &&
      SWAN_TRIPLES=60000 SWAN_REPS=1 \
        "$TSAN_DIR/bench/parallel_speedup" --threads=4 &&
      write_serve_smoke "$TSAN_DIR/serve-smoke.serve" &&
      "$TSAN_DIR/tools/swandb_shell" --generate 20000 \
        --serve "$TSAN_DIR/serve-smoke.serve" >/dev/null; } || status=1
    [ "$mode" = "tsan" ] && exit "$status"
    ;;&
  tidy|all)
    echo "=== matrix: clang-tidy ==="
    bash "$REPO_ROOT/tools/check.sh" --tidy-only || status=1
    [ "$mode" = "tidy" ] && exit "$status"
    ;;&
  lint|all)
    echo "=== matrix: swan-lint ==="
    bash "$REPO_ROOT/tools/check.sh" --lint-only || status=1
    [ "$mode" = "lint" ] && exit "$status"
    ;;&
  tsafety|all)
    echo "=== matrix: thread-safety annotations ==="
    bash "$REPO_ROOT/tools/check.sh" --tsafety-only || status=1
    [ "$mode" = "tsafety" ] && exit "$status"
    ;;&
  release|sanitize|tsan|tidy|lint|tsafety|all)
    ;;
  *)
    echo "usage: tools/ci.sh [release|sanitize|tsan|tidy|lint|tsafety|all]" >&2
    exit 2
    ;;
esac

exit "$status"
