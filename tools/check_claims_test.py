#!/usr/bin/env python3
"""Tests of tools/check_claims.py over a real Table 6 bench JSON.

Usage: check_claims_test.py BENCH_table6_cold_runs.json

The file is the one `table6_cold_runs --json` wrote (ctest passes the
20k-triple fixture's). Each test edits a copy of it: swapping two
designs' cells must fail the claims that compare them, a cell or field
a claim reads must be an error when it is missing, and so must a bench
no claim covers. Stdlib only.
"""

import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_claims  # noqa: E402

TABLE6 = None  # the parsed file named on the command line


def run(doc):
    """Checks `doc`; returns {claim id: PASS/FAIL/SKIP} and the FAILs."""
    lines = []
    failures = check_claims.check(doc, lines.append)
    return {line.split()[0]: line.split()[-1] for line in lines}, failures


def swap(doc, a, b):
    for backends in doc["workloads"].values():
        backends[a], backends[b] = backends[b], backends[a]


class CheckClaimsTest(unittest.TestCase):

    def setUp(self):
        self.doc = copy.deepcopy(TABLE6)

    def test_real_file_passes_every_table6_claim(self):
        verdicts, failures = run(self.doc)
        self.assertEqual(failures, 0, verdicts)
        self.assertIn("t6.row-gstar", verdicts)
        self.assertIn("t6.row-pso-bytes-q1", verdicts)
        self.assertNotIn("t7.row-gstar", verdicts)

    def test_swapped_row_clusterings_fail_the_bytes_claims(self):
        swap(self.doc, "DBX triple PSO", "DBX triple SPO")
        verdicts, failures = run(self.doc)
        for query in ("q1", "q5", "q7"):
            self.assertEqual(verdicts["t6.row-pso-bytes-" + query], "FAIL")
        self.assertGreaterEqual(failures, 3)

    def test_swapped_column_schemes_fail_the_black_swans(self):
        swap(self.doc, "MonetDB triple PSO", "MonetDB vert. SO")
        verdicts, _ = run(self.doc)
        for query in ("q2*", "q3*", "q6*", "q8"):
            self.assertEqual(verdicts["t6.col-swan-" + query], "FAIL")
        self.assertEqual(verdicts["t6.col-blowup"], "FAIL")

    def test_missing_cell_is_an_error(self):
        del self.doc["workloads"]["q8"]["MonetDB vert. SO"]
        with self.assertRaisesRegex(check_claims.ClaimError, "no cell"):
            run(self.doc)

    def test_cell_without_a_needed_field_is_an_error(self):
        del self.doc["workloads"]["q3*"]["DBX vert. SO"]["io_seconds"]
        with self.assertRaisesRegex(check_claims.ClaimError, "io_seconds"):
            run(self.doc)
        self.doc["workloads"]["q3*"]["DBX vert. SO"]["io_seconds"] = "1"
        with self.assertRaisesRegex(check_claims.ClaimError, "io_seconds"):
            run(self.doc)

    def test_unknown_bench_is_an_error(self):
        self.doc["bench"] = "table5_query_footprint"
        with self.assertRaisesRegex(check_claims.ClaimError, "no claims"):
            run(self.doc)

    def test_scale_above_a_claim_skips_it(self):
        self.doc["triples"] = 4_000_000
        swap(self.doc, "DBX triple PSO", "DBX triple SPO")
        verdicts, failures = run(self.doc)
        self.assertEqual(verdicts["t6.row-pso-bytes-q1"], "SKIP")
        self.assertEqual(failures, 0)

    def test_point_label_sets_scale_and_mode(self):
        doc = {"bench": "scale_sensitivity", "codec": "raw", "workloads": {
            "q1 @ 100000 triples cold": {"x": {}},
            "q1 @ 200000 triples hot": {"x": {}},
            "q1 @ 100 MB/s": {"x": {}}}}
        with self.assertRaisesRegex(check_claims.ClaimError, "no scale"):
            check_claims.groups(doc)
        del doc["workloads"]["q1 @ 100 MB/s"]
        self.assertEqual(sorted(check_claims.groups(doc)),
                         [(100000, "cold"), (200000, "hot")])

    def test_exit_status(self):
        swapped = copy.deepcopy(self.doc)
        swap(swapped, "DBX triple PSO", "DBX triple SPO")
        unknown = dict(self.doc, bench="nope")
        for doc, status in ((self.doc, 0), (swapped, 1), (unknown, 2)):
            with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
                json.dump(doc, f)
                f.flush()
                out, err = io.StringIO(), io.StringIO()
                saved = sys.stdout, sys.stderr
                sys.stdout, sys.stderr = out, err
                try:
                    got = check_claims.main([f.name])
                finally:
                    sys.stdout, sys.stderr = saved
                self.assertEqual(got, status, out.getvalue() + err.getvalue())


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print("usage: check_claims_test.py BENCH_table6_cold_runs.json",
              file=sys.stderr)
        sys.exit(2)
    with open(sys.argv.pop(1), "r", encoding="utf-8") as handle:
        TABLE6 = json.load(handle)
    unittest.main()
