#!/usr/bin/env python3
"""Validate the bench JSON documents written by `<bench> --json[=FILE]`.

Every bench writes one shared schema (bench::BenchJsonWriter):

  {"bench": "<name>",
   "workloads": {"<workload>": {"<backend>":
       {"cold_bytes": N, "modeled_seconds": S, "speedup": X
        [, "seeks": K, "io_seconds": S, "net_bytes": N]}}},
   <extra top-level fields>}

Checks, per file:
  1. the file parses as JSON and is an object with a string `bench` that
     names a known bench;
  2. `workloads` is a non-empty object of non-empty backend objects, and
     every cell has exactly cold_bytes (integer >= 0), modeled_seconds
     (number >= 0) and speedup (number >= 0), plus either all or none of
     the deterministic costs a measured cell carries: seeks (integer
     >= 0), io_seconds (number >= 0) and net_bytes (integer >= 0);
  3. the extra top-level fields are exactly the ones that bench writes,
     each of its declared type (EXTRAS below).

Usage: validate_bench_json.py BENCH.json [BENCH.json ...]
Exits 0 when every file passes, 1 with a diagnostic on the first
violation, 2 on usage error. Stdlib only.
"""

import json
import sys

# Type specs: int, float (any number), bool, str, [spec] (a list of
# spec), {key: spec} (an object with exactly those keys) and
# ("map", spec) (an object whose keys are free and whose values are spec).
# The exhibit runner (bench/exhibit.h) writes "hot" only when an exhibit
# runs one mode, "codec" only when its points share one codec, and
# "triples" only when no point sets its own scale.
GRID = {"triples": int, "codec": str, "hot": bool}
EXTRAS = {
    "table4_cstore_repetition": {"triples": int, "codec": str},
    "table5_query_footprint": GRID,
    "table6_cold_runs": GRID,
    "table7_hot_runs": GRID,
    "figure6_property_sweep": GRID,
    "figure7_scaleup": GRID,
    "scale_sensitivity": {"codec": str},
    "ablation_buffer_pool": {"triples": int, "codec": str},
    "parallel_speedup": {
        "triples": int,
        "threads": [int],
        "equivalent": bool,
        "geomean_speedup": ("map", ("map", float)),
    },
    "serve_throughput": {
        "triples": int,
        "workers": int,
        "telemetry_reconciled": bool,
    },
    "scaleout": {
        "triples": int,
        "scaleout": {
            "speedup_2_nodes": float,
            "speedup_4_nodes": float,
            "cross_net_bytes": int,
        },
    },
    "ablation_planner": {
        "planner": {"losses": int, "gates_passed": bool,
                    "heuristic_baseline": str},
    },
    "ablation_compression": {"triples": int, "hot": bool},
}
CELL = {"cold_bytes": int, "modeled_seconds": float, "speedup": float}
MEASURED_CELL = dict(CELL, seeks=int, io_seconds=float, net_bytes=int)


class Invalid(Exception):
    pass


def check(value, spec, where):
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise Invalid("%s: expected an object, got %r" % (where, value))
        if set(value) != set(spec):
            raise Invalid("%s: keys %s, expected %s"
                          % (where, sorted(value), sorted(spec)))
        for key, sub in spec.items():
            check(value[key], sub, "%s.%s" % (where, key))
    elif isinstance(spec, list):
        if not isinstance(value, list):
            raise Invalid("%s: expected a list, got %r" % (where, value))
        for i, item in enumerate(value):
            check(item, spec[0], "%s[%d]" % (where, i))
    elif isinstance(spec, tuple):
        if not isinstance(value, dict):
            raise Invalid("%s: expected an object, got %r" % (where, value))
        for key, item in value.items():
            check(item, spec[1], "%s.%s" % (where, key))
    elif spec is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise Invalid("%s: expected a number, got %r" % (where, value))
    elif spec is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise Invalid("%s: expected an integer, got %r" % (where, value))
    elif not isinstance(value, spec):
        raise Invalid("%s: expected %s, got %r"
                      % (where, spec.__name__, value))


def validate(doc):
    if not isinstance(doc, dict):
        raise Invalid("document is not an object")
    bench = doc.get("bench")
    if bench not in EXTRAS:
        raise Invalid("unknown bench %r (known: %s)"
                      % (bench, ", ".join(sorted(EXTRAS))))
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        raise Invalid("workloads missing or empty")
    for workload, backends in workloads.items():
        if not isinstance(backends, dict) or not backends:
            raise Invalid("workload %r has no backends" % workload)
        for backend, cell in backends.items():
            where = "workloads[%r][%r]" % (workload, backend)
            spec = MEASURED_CELL if isinstance(cell, dict) and \
                "seeks" in cell else CELL
            check(cell, spec, where)
            for key in spec:
                if cell[key] < 0:
                    raise Invalid("%s.%s is negative" % (where, key))
    extras = {k: v for k, v in doc.items() if k not in ("bench", "workloads")}
    check(extras, EXTRAS[bench], bench)
    return bench, sum(len(b) for b in workloads.values())


def main():
    if len(sys.argv) < 2:
        print("usage: validate_bench_json.py BENCH.json [BENCH.json ...]",
              file=sys.stderr)
        return 2
    for path in sys.argv[1:]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                bench, cells = validate(json.load(handle))
        except (OSError, ValueError, Invalid) as err:
            print("validate_bench_json: FAIL: %s: %s" % (path, err),
                  file=sys.stderr)
            return 1
        print("validate_bench_json: OK: %s (%s, %d cells)"
              % (path, bench, cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
