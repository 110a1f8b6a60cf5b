#!/usr/bin/env python3
"""Check the paper's claims against bench JSON written by `<bench> --json`.

Usage: check_claims.py BENCH.json [BENCH.json ...]

Every claim below names the benches whose cells it reads, the run mode
(cold or hot), the largest dataset scale where it is asserted and a
predicate over the cells of one (scale, mode) group of a file. For each
claim that applies to a file's `bench` the checker prints one line per
group: claim id, EXPERIMENTS.md section, both sides' values and PASS,
FAIL or SKIP (the group's scale is above the claim's). EXPERIMENTS.md
names each gated verdict by its claim id.

Cold claims read only deterministic cell fields: cold_bytes, seeks,
io_seconds (virtual disk + network seconds) and net_bytes. The one hot
claim reads host seconds (modeled_seconds) and states its margin.

A workload label is `<query>[ @ <point>][ <mode>]` (bench/exhibit.h); a
point label `N triples` sets the group's scale, otherwise the file's
`triples` field does. The mode is the label's, else the file's `hot`
field, else cold.

Exits 0 when every claim passes, 1 on any FAIL, 2 on an error: an
unreadable file, a bench no claim covers, or a cell a claim needs that
the file lacks. Stdlib only.
"""

import collections
import json
import math
import re
import sys

IO, BYTES, HOST = "io_seconds", "cold_bytes", "modeled_seconds"
G_QUERIES = ("q1", "q2", "q3", "q4", "q5", "q6", "q7")
ALL_QUERIES = G_QUERIES + ("q2*", "q3*", "q4*", "q6*", "q8")
GRID_COLD = ("table6_cold_runs", "scale_sensitivity")
GRID_HOT = ("table7_hot_runs", "scale_sensitivity")
DBX_SPO, DBX_PSO, DBX_VERT = ("DBX triple SPO", "DBX triple PSO",
                              "DBX vert. SO")
COL_SPO, COL_PSO, COL_VERT = ("MonetDB triple SPO", "MonetDB triple PSO",
                              "MonetDB vert. SO")


class ClaimError(Exception):
    pass


class Group:
    """The cells of one (scale, mode) group of a bench file, keyed by
    (point label without its scale, query, backend)."""

    def __init__(self, triples, mode):
        self.triples, self.mode = triples, mode
        self.cells = {}

    def get(self, key, query, backend, at=""):
        cell = self.cells.get((at, query, backend))
        if cell is None:
            raise ClaimError("no cell for %s on %r%s" % (
                query, backend, " @ " + at if at else ""))
        value = cell.get(key) if isinstance(cell, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ClaimError("cell %s on %r has no numeric %r"
                             % (query, backend, key))
        return value

    def sum(self, key, queries, backend, at=""):
        return sum(self.get(key, q, backend, at) for q in queries)

    def gmean(self, key, queries, backend, at=""):
        values = [self.get(key, q, backend, at) for q in queries]
        if min(values) <= 0:
            raise ClaimError("non-positive %s on %r" % (key, backend))
        return math.exp(sum(map(math.log, values)) / len(values))

    def blowup(self, key, backend):
        """G*/G: the geometric mean over all 12 queries over q1-q7's."""
        return (self.gmean(key, ALL_QUERIES, backend) /
                self.gmean(key, G_QUERIES, backend))


Claim = collections.namedtuple(
    "Claim", "id section benches mode max_triples text predicate")


def below(lhs, rhs):
    return lhs, rhs, lhs < rhs


def above(lhs, rhs, factor=1.0):
    return lhs, rhs, lhs > factor * rhs


def at_least(lhs, rhs, factor):
    return lhs, rhs, lhs >= factor * rhs


def scaleout_speedup(nodes, need):
    local = ["local/" + q for q in ("q2*", "q3*", "q4*", "q6*")]
    return lambda g: at_least(g.sum(IO, local, "x1 nodes"),
                              g.sum(IO, local, "x%d nodes" % nodes), need)


def column_swan(query):
    return Claim(
        "t6.col-swan-" + query, "Table 6", GRID_COLD, "cold", 2_000_000,
        "column %s: triple PSO io_seconds < vert. SO's" % query,
        lambda g: below(g.get(IO, query, COL_PSO), g.get(IO, query, COL_VERT)))


def row_pso_bytes(query):
    return Claim(
        "t6.row-pso-bytes-" + query, "Table 6", GRID_COLD, "cold",
        2_000_000,
        "row %s: triple PSO cold_bytes < triple SPO's" % query,
        lambda g: below(g.get(BYTES, query, DBX_PSO),
                        g.get(BYTES, query, DBX_SPO)))


# Each claim's max_triples is the largest scale where it was measured to
# hold: Table 6's at 2M triples, the others at the benches' default 400k.
# Past 2M the column black swans q2* and q6* invert, and the row G* margin
# on I/O is down to 10% at 2M (0.094 vs 0.104 s). "Vertical wins column
# G" is not gated: on I/O it fails at 40k and holds at 2M.
CLAIMS = [
    Claim("t6.row-gstar", "Table 6", GRID_COLD, "cold", 2_000_000,
          "row G* io_seconds: triple PSO < vert. SO",
          lambda g: below(g.gmean(IO, ALL_QUERIES, DBX_PSO),
                          g.gmean(IO, ALL_QUERIES, DBX_VERT))),
    Claim("t6.col-blowup", "Table 6", GRID_COLD, "cold", 2_000_000,
          "column G*/G io_seconds: vert. SO > max(triple SPO, PSO)",
          lambda g: above(g.blowup(IO, COL_VERT),
                          max(g.blowup(IO, COL_SPO), g.blowup(IO, COL_PSO)))),
    *[column_swan(q) for q in ("q2*", "q3*", "q6*", "q8")],
    *[row_pso_bytes(q) for q in ("q1", "q5", "q7")],
    Claim("t4.b-gain", "Table 4", ("table4_cstore_repetition",),
          "cold", 400_000,
          "C-Store cold G io_seconds: machine B > 0.8 x machine A",
          lambda g: above(g.gmean(IO, G_QUERIES, "C-Store vert. SO",
                                  "390 MB/s"),
                          g.gmean(IO, G_QUERIES, "C-Store vert. SO",
                                  "100 MB/s"), 0.8)),
    Claim("codec.auto-bytes", "Compression recipe", ("ablation_compression",),
          "cold", 400_000,
          "triple PSO cold_bytes over q1/q2/q2*/q8: raw >= 2 x auto",
          lambda g: at_least(
              g.sum(BYTES, ("q1", "q2", "q2*", "q8"), COL_PSO, "raw"),
              g.sum(BYTES, ("q1", "q2", "q2*", "q8"), COL_PSO, "auto"), 2.0)),
    Claim("scaleout.2-nodes", "Scale-out recipe", ("scaleout",), "cold",
          400_000,
          "local io_seconds: 1 node >= 1.7 x 2 nodes",
          scaleout_speedup(2, 1.7)),
    Claim("scaleout.4-nodes", "Scale-out recipe", ("scaleout",), "cold",
          400_000,
          "local io_seconds: 1 node >= 3.0 x 4 nodes",
          scaleout_speedup(4, 3.0)),
    Claim("scaleout.net-attributed", "Scale-out recipe", ("scaleout",),
          "cold", 400_000, "cross q5/q7/q8 net_bytes at 4 nodes > 0",
          lambda g: above(g.sum("net_bytes",
                                ("cross/q5", "cross/q7", "cross/q8"),
                                "x4 nodes"), 0)),
    # Host time, so a margin: three 20k runs measured 3.49x-4.21x and the
    # 400k runs 3.2x-4.1x.
    Claim("t7.row-gstar", "Table 7", GRID_HOT, "hot", 400_000,
          "hot row G* host seconds: vert. SO >= 2 x triple PSO",
          lambda g: at_least(g.gmean(HOST, ALL_QUERIES, DBX_VERT),
                             g.gmean(HOST, ALL_QUERIES, DBX_PSO), 2.0)),
]
BENCHES = {bench for claim in CLAIMS for bench in claim.benches}
SCALE = re.compile(r"(?:^|, )(\d+) triples(?:$|, )")


def groups(doc):
    """Splits a bench document's cells into (scale, mode) groups."""
    if not isinstance(doc, dict) or doc.get("bench") not in BENCHES:
        raise ClaimError("no claims for bench %r (claimed: %s)" % (
            doc.get("bench") if isinstance(doc, dict) else None,
            ", ".join(sorted(BENCHES))))
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict):
        raise ClaimError("workloads missing")
    out = {}
    for label, backends in workloads.items():
        mode = "hot" if doc.get("hot") else "cold"
        for suffix in ("hot", "cold"):
            if label.endswith(" " + suffix):
                label, mode = label[:-len(suffix) - 1], suffix
        query, _, point = label.partition(" @ ")
        scale = SCALE.search(point)
        if scale:
            triples = int(scale.group(1))
            point = (point[:scale.start()] + ", " +
                     point[scale.end():]).strip(", ")
        elif isinstance(doc.get("triples"), int):
            triples = doc["triples"]
        else:
            raise ClaimError("workload %r has no scale" % label)
        if not isinstance(backends, dict):
            raise ClaimError("workload %r is not an object" % label)
        group = out.setdefault((triples, mode), Group(triples, mode))
        for backend, cell in backends.items():
            group.cells[(point, query, backend)] = cell
    return out


def check(doc, write=print):
    """Checks every claim on `doc`; returns the number of FAILs."""
    failures = 0
    found = groups(doc)
    for claim in CLAIMS:
        if doc["bench"] not in claim.benches:
            continue
        matching = [g for (_, mode), g in sorted(found.items())
                    if mode == claim.mode]
        if not matching:
            raise ClaimError("%s needs %s cells" % (claim.id, claim.mode))
        for g in matching:
            head = "%-28s [%s] %s @ %d triples %s:" % (
                claim.id, claim.section, claim.text, g.triples, g.mode)
            if g.triples > claim.max_triples:
                write("%s asserted up to %d triples SKIP"
                      % (head, claim.max_triples))
                continue
            lhs, rhs, ok = claim.predicate(g)
            write("%s %.6g vs %.6g %s" % (head, lhs, rhs,
                                          "PASS" if ok else "FAIL"))
            failures += not ok
    return failures


def main(paths):
    if not paths:
        print("usage: check_claims.py BENCH.json [BENCH.json ...]",
              file=sys.stderr)
        return 2
    failures = 0
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                failures += check(json.load(handle))
        except (OSError, ValueError, ClaimError) as err:
            print("check_claims: ERROR: %s: %s" % (path, err),
                  file=sys.stderr)
            return 2
    print("check_claims: %s" % ("%d FAIL" % failures if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
