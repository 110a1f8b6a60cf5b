#!/usr/bin/env python3
"""swan-lint: project-invariant linter for the swandb tree.

Enforces repo-specific rules that clang-tidy cannot express:

  raw-mutex         No raw std::mutex / lock_guard / unique_lock /
                    condition_variable outside the swan::Mutex wrapper
                    (src/common/mutex.{h,cc}). Everything must go through
                    the annotated, rank-checked wrapper.
  exec-threads      exec::Threads() may only be called inside src/exec;
                    other layers receive parallelism via ExecContext.
  discarded-status  A call to a Status- or Result-returning function used
                    as a bare statement (or cast to (void)) silently drops
                    the error. Handle it, return it, or SWAN_CHECK it.
  const-cast        const_cast is banned; fix the constness model instead.
  include-locks     Includes-what-it-locks: a file that names swan::Mutex,
                    MutexLock, CondVar or LockRank must include
                    "common/mutex.h" directly, and a file that uses the
                    SWAN_* thread-safety macros must include
                    "common/thread_annotations.h" or "common/mutex.h"
                    directly — not transitively.
  serve-telemetry   No ad-hoc stdout/stderr telemetry (printf, fprintf,
                    puts, std::cout, std::cerr) inside src/serve/ or
                    src/obs/: those layers report through the structured
                    observability surface (query log, metrics registry,
                    trace exporters), never by printing. Formatting into
                    buffers/strings (snprintf, vsnprintf) stays allowed —
                    that is how the exporters are built.
  node-disk         No direct construction of storage::SimulatedDisk or
                    storage::BufferPool outside src/storage/. Scale-out
                    made "a disk and its pool" a per-node unit stamped out
                    by storage::MakeNodeStorage (used by net::Topology); a
                    disk built anywhere else has a virtual clock no
                    topology aggregates, which silently corrupts the
                    max-over-nodes timing model. Holding a pointer or
                    reference to an existing disk/pool is fine.
  json-by-hand      No hand-built JSON: a string literal holding a JSON key
                    (`\"name\":`) passed to AppendF or to the printf
                    family (printf, fprintf, sprintf, snprintf, vsnprintf)
                    outside src/obs/json_writer.* and tests/. JSON is
                    written through obs::JsonWriter, which owns escaping,
                    separators and number formatting; a format string
                    escapes nothing and AppendF cuts each call at 511 bytes,
                    so a long value leaves an invalid document.
  query-switch      No `switch` over core::QueryId (its expression calls
                    BaseOf, or its first case label names QueryId::)
                    outside src/core/query.cc, the q1–q8 skeleton
                    (src/core/phased_backend.cc), the C-Store baseline and
                    the reference oracle. Every other engine answers the
                    12 queries through the skeleton's phases; a per-engine
                    switch is a second copy of the logical plans.
  post-filter       No whole-triple scan-filter test (`filter.Passes(`,
                    the rdf::PatternFilter every Match takes) in src/
                    outside src/rdf/, the reference oracle and the C-Store
                    baseline. Every other store applies the filter inside
                    its scan, before a triple is materialized or shipped;
                    a write store's overlay of unmerged rows carries an
                    allow(post-filter).
  backend-list      No std::make_unique of an engine backend (the row,
                    column, C-Store and sharded backend classes) in
                    tests/ or bench/. Suites and benches open their designs
                    from bench_support::Designs() through
                    core::OpenBackend, so every design list is one list;
                    the reference oracle (ReferenceBackend) stays built by
                    hand.

Suppression: append `// swan-lint: allow(<rule>)` to the offending line,
or place it alone on the line directly above. Suppressions are per-rule;
`allow(raw-mutex)` does not silence `const-cast`.

Self-test: `swan_lint.py --self-test` runs the linter over the seeded
bad-snippet corpus in tools/lint_corpus/ and verifies that every
`// expect(<rule>)` marker fired exactly where expected and nothing else
fired. Corpus files may begin with `// swan-lint-corpus-path: <path>` to
be linted as if they lived at <path> (for path-scoped rules).

Exit status: 0 when clean (or self-test passes), 1 when findings exist
(or self-test fails), 2 on usage error.
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_ROOTS = ["src", "tests", "bench", "tools"]
CORPUS_DIR = os.path.join("tools", "lint_corpus")
SOURCE_EXTS = (".h", ".hpp", ".cc", ".cpp")

RULES = [
    "raw-mutex",
    "exec-threads",
    "discarded-status",
    "const-cast",
    "include-locks",
    "serve-telemetry",
    "node-disk",
    "json-by-hand",
    "query-switch",
    "post-filter",
    "backend-list",
]

# The only directory allowed to construct the per-node storage stack; the
# factory storage::MakeNodeStorage lives here and net::Topology calls it.
NODE_DISK_ALLOWED_PREFIX = "src/storage/"

# Layers that must never print: everything they observe flows through the
# structured telemetry surface.
SERVE_TELEMETRY_PREFIXES = ("src/serve/", "src/obs/")

# Files allowed to touch the raw std::mutex machinery: the wrapper itself.
RAW_MUTEX_ALLOWLIST = {
    "src/common/mutex.h",
    "src/common/mutex.cc",
}

# Files exempt from include-locks: the two headers that *define* the
# vocabulary mention it in comments and cannot include themselves.
INCLUDE_LOCKS_EXEMPT = {
    "src/common/mutex.h",
    "src/common/mutex.cc",
    "src/common/thread_annotations.h",
}

RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"
    r"|\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|\bstd::condition_variable(?:_any)?\b"
)
EXEC_THREADS_RE = re.compile(r"\bexec::Threads\s*\(")
CONST_CAST_RE = re.compile(r"\bconst_cast\s*<")
# Direct stream output only: snprintf/vsnprintf (buffer formatting) do not
# match — `\b` cannot split the identifier — and neither does the
# `format(printf, ...)` attribute (no opening paren after the name).
SERVE_TELEMETRY_RE = re.compile(
    r"\b(?:std::)?(?:printf|fprintf|puts|fputs)\s*\("
    r"|\bstd::(?:cout|cerr)\b"
)
# Construction only: make_unique<...>, new, or a by-value declaration
# (`SimulatedDisk d;`, `BufferPool p(&d, 16);`). A `*` or `&` between the
# type and the name breaks the declaration branch, so parameters, members
# that point, and accessor return types never fire.
NODE_DISK_RE = re.compile(
    r"\bmake_unique<\s*(?:swan::)?(?:storage::)?(?:SimulatedDisk|BufferPool)\b"
    r"|\bnew\s+(?:swan::)?(?:storage::)?(?:SimulatedDisk|BufferPool)\b"
    r"|\b(?:swan::)?(?:storage::)?(?:SimulatedDisk|BufferPool)\s+"
    r"[A-Za-z_]\w*\s*[{(;=]"
)
# The writer itself and the tests (which pin its output) may spell JSON out.
JSON_BY_HAND_EXEMPT_PREFIXES = ("src/obs/json_writer.", "tests/")
JSON_BY_HAND_CALL_RE = re.compile(
    r"\b(?:AppendF|printf|fprintf|sprintf|snprintf|vsnprintf)\s*\(")
# A JSON key as it appears inside a C++ string literal: \"name\":
JSON_KEY_LITERAL_RE = re.compile(r'\\"[A-Za-z_][\w.-]*\\":')
# The files that may spell the 12 queries out case by case: the query
# metadata, the one skeleton, and the two hand-built engines kept by design.
QUERY_SWITCH_ALLOWED = {
    "src/core/query.cc",
    "src/core/phased_backend.cc",
    "src/core/cstore_backend.cc",
    "src/core/reference_backend.cc",
}
# The stores kept post-filtering by design: the oracle and the baseline.
POST_FILTER_ALLOWED = {
    "src/core/reference_backend.cc",
    "src/core/cstore_backend.cc",
}
POST_FILTER_RE = re.compile(r"(?<![\w.>])filter\s*\.\s*Passes\s*\(")
# Engine backends built by hand where the design list should be used.
BACKEND_LIST_PREFIXES = ("tests/", "bench/")
BACKEND_LIST_RE = re.compile(
    r"\bmake_unique<\s*(?:swan::)?(?:core::|shard::)?"
    r"(?:RowTriple|RowVertical|ColTriple|ColVertical|CStore|Sharded)Backend\b")
SWITCH_RE = re.compile(r"\bswitch\s*\(")
BASE_OF_RE = re.compile(r"\bBaseOf\s*\(")
CASE_RE = re.compile(r"\bcase\b")
QUERY_CASE_RE = re.compile(r"\bcase\s+(?:swan::)?(?:core::)?QueryId::")
SUPPRESS_RE = re.compile(r"//\s*swan-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
EXPECT_RE = re.compile(r"//\s*expect\(([a-z-]+)\)")
CORPUS_PATH_RE = re.compile(r"^//\s*swan-lint-corpus-path:\s*(\S+)")

# Declarations of error-carrying return types, harvested from headers:
#   Status Foo(...);   Result<T> Bar(...);   [[nodiscard]] static Status ...
STATUS_DECL_RE = re.compile(
    r"(?:\[\[nodiscard\]\]\s+)?"
    r"(?:(?:static|virtual|inline|constexpr|friend|explicit)\s+)*"
    r"(?:swan::)?(?:Status|Result<[^;{}=()]*>)\s+"
    r"([A-Za-z_]\w*)\s*\("
)

# Names that return Status/Result but whose bare-statement use is fine or
# whose name is too generic to match reliably.
STATUS_NAME_EXEMPT = {
    "OK",  # Status::OK() factory; never useful as a bare statement anyway
}

# The analysis is name-based, not type-resolved: a name that is ALSO
# declared somewhere with a plain (non-Status) return type is ambiguous
# and must be dropped, or every ThreadPool::Submit would be blamed for
# QueryService::Submit's Result. Soundness over completeness.
PLAIN_DECL_RE = re.compile(
    r"(?:(?:static|virtual|inline|constexpr|explicit)\s+)*"
    r"(?:void|bool|auto|int|int\d+_t|uint\d+_t|size_t|float|double|char)\s+"
    r"([A-Za-z_]\w*)\s*\("
)

MUTEX_VOCAB_RE = re.compile(r"\b(?:swan::)?(?:MutexLock|CondVar|LockRank)\b"
                            r"|\bswan::Mutex\b|\bMutex\s+\w+_?\s*\{?\s*LockRank")
ANNOTATION_VOCAB_RE = re.compile(
    r"\bSWAN_(?:CAPABILITY|SCOPED_CAPABILITY|GUARDED_BY|PT_GUARDED_BY|"
    r"REQUIRES(?:_SHARED)?|EXCLUDES|ACQUIRE(?:_SHARED)?|RELEASE(?:_SHARED)?|"
    r"TRY_ACQUIRE|ACQUIRED_(?:BEFORE|AFTER)|ASSERT_CAPABILITY|"
    r"RETURN_CAPABILITY|NO_THREAD_SAFETY_ANALYSIS)\b"
)
INCLUDE_MUTEX_RE = re.compile(r'#include\s+"common/mutex\.h"')
INCLUDE_ANNOT_RE = re.compile(
    r'#include\s+"common/(?:mutex|thread_annotations)\.h"')


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line):
    """Blank out string/char literals and // comments so rule regexes do
    not fire on prose. Keeps column positions stable."""
    out = []
    i, n = 0, len(line)
    in_str = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
                continue
            out.append(" " if c != in_str else c)
            if c == in_str:
                in_str = None
            i += 1
            continue
        if c in "\"'":
            in_str = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break  # rest of line is a comment
        out.append(c)
        i += 1
    return "".join(out)


def string_literals(line):
    """The raw (still escaped) bodies of the "..." literals on a line,
    ignoring char literals and anything after a // comment."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and line[i + 1:i + 2] == "/":
            break
        if c in "\"'":
            j = i + 1
            while j < n and line[j] != c:
                j += 2 if line[j] == "\\" else 1
            if c == '"':
                out.append(line[i + 1:j])
            i = j + 1
            continue
        i += 1
    return out


def call_line_span(lines, idx, start):
    """Indices of the lines a call spans, from its opening paren at column
    `start` of lines[idx] to the balancing close (at most 20 lines)."""
    depth = 0
    for j in range(idx, min(idx + 20, len(lines))):
        code = strip_comments_and_strings(lines[j])
        for c in code[start if j == idx else 0:]:
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    return range(idx, j + 1)
    return range(idx, min(idx + 20, len(lines)))


def builds_json_by_hand(lines, idx, code):
    """True when a printf-family/AppendF call starting on lines[idx] is
    given a string literal that holds a JSON key."""
    for m in JSON_BY_HAND_CALL_RE.finditer(code):
        for j in call_line_span(lines, idx, m.end() - 1):
            if any(JSON_KEY_LITERAL_RE.search(body)
                   for body in string_literals(lines[j])):
                return True
    return False


def switches_over_query(lines, idx, code):
    """True when a `switch` starting on lines[idx] dispatches on a QueryId:
    its expression calls BaseOf, or its first case label (within 40 lines
    of the expression's end) names QueryId::."""
    m = SWITCH_RE.search(code)
    if not m:
        return False
    span = call_line_span(lines, idx, m.end() - 1)
    expr = " ".join(strip_comments_and_strings(lines[j]) for j in span)
    if BASE_OF_RE.search(expr):
        return True
    for j in range(span[-1], min(span[-1] + 40, len(lines))):
        later = strip_comments_and_strings(lines[j])
        if CASE_RE.search(later):
            return bool(QUERY_CASE_RE.search(later))
    return False


def suppressions_for(lines, idx):
    """Rules suppressed for lines[idx] (same line, or the line above when
    that line is only a suppression comment)."""
    rules = set()
    m = SUPPRESS_RE.search(lines[idx])
    if m:
        rules.update(r.strip() for r in m.group(1).split(","))
    if idx > 0:
        prev = lines[idx - 1].strip()
        m = SUPPRESS_RE.search(prev)
        if m and prev.startswith("//"):
            rules.update(r.strip() for r in m.group(1).split(","))
    return rules


def harvest_status_names(files):
    """Collect names of Status/Result-returning functions from headers
    (and corpus files, which declare their own)."""
    names = set()
    ambiguous = set()
    for path, lines in files:
        from_decls = path.endswith((".h", ".hpp")) or CORPUS_DIR in path
        for line in lines:
            code = strip_comments_and_strings(line)
            if from_decls:
                for m in STATUS_DECL_RE.finditer(code):
                    name = m.group(1)
                    if name not in STATUS_NAME_EXEMPT:
                        names.add(name)
            for m in PLAIN_DECL_RE.finditer(code):
                ambiguous.add(m.group(1))
    return names - ambiguous


def starts_statement(lines, idx):
    """False when lines[idx] continues a prior statement (e.g. the RHS of
    a multi-line assignment), judged by how the nearest preceding code
    line ends."""
    for j in range(idx - 1, -1, -1):
        code = strip_comments_and_strings(lines[j]).strip()
        if not code:
            continue
        if code.startswith("#"):  # preprocessor line, not a statement
            return True
        return code.endswith((";", "{", "}", ":"))
    return True


def find_bare_call(lines, idx, name):
    """True if lines[idx] begins a statement that is exactly a call to
    `name` (possibly through a receiver chain) whose value is discarded:
    the statement ends in `;` right after the call's closing paren."""
    if not starts_statement(lines, idx):
        return False
    code = strip_comments_and_strings(lines[idx])
    m = re.match(
        r"^\s*(?:\(void\)\s*)?(?:[A-Za-z_]\w*(?:\.|->|::))*"
        + re.escape(name) + r"\s*\(",
        code,
    )
    if not m:
        return False
    # Balance parens from the call's opening paren, possibly across lines.
    depth = 0
    i = code.index("(", m.end() - 1)
    j = idx
    pos = i
    line = code
    scanned = 0
    while j < len(lines) and scanned < 20:  # bail on absurdly long stmts
        while pos < len(line):
            c = line[pos]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    rest = line[pos + 1:].strip()
                    return rest == ";"
            pos += 1
        j += 1
        scanned += 1
        if j < len(lines):
            line = strip_comments_and_strings(lines[j])
            pos = 0
    return False


def lint_file(path, display_path, lines, status_names):
    findings = []
    in_exec = display_path.startswith("src/exec/")
    is_header = display_path.endswith((".h", ".hpp"))

    def report(idx, rule, message):
        if rule not in suppressions_for(lines, idx):
            findings.append(Finding(display_path, idx + 1, rule, message))

    uses_mutex_vocab_at = None
    uses_annot_vocab_at = None
    has_mutex_include = False
    has_annot_include = False

    for idx, raw in enumerate(lines):
        code = strip_comments_and_strings(raw)

        if INCLUDE_MUTEX_RE.search(raw):
            has_mutex_include = True
            has_annot_include = True
        elif INCLUDE_ANNOT_RE.search(raw):
            has_annot_include = True

        if display_path not in RAW_MUTEX_ALLOWLIST:
            m = RAW_MUTEX_RE.search(code)
            if m:
                report(idx, "raw-mutex",
                       f"raw `{m.group(0)}`; use swan::Mutex / MutexLock / "
                       "CondVar from common/mutex.h")

        if not in_exec and EXEC_THREADS_RE.search(code):
            report(idx, "exec-threads",
                   "exec::Threads() outside src/exec; thread the value "
                   "through ExecContext instead")

        if CONST_CAST_RE.search(code):
            report(idx, "const-cast",
                   "const_cast is banned; fix the constness model")

        if (display_path.startswith(SERVE_TELEMETRY_PREFIXES)
                and SERVE_TELEMETRY_RE.search(code)):
            report(idx, "serve-telemetry",
                   "ad-hoc stdout/stderr telemetry in the serve/obs layers; "
                   "report through the query log, the metrics registry, or "
                   "a trace exporter instead")

        if (not display_path.startswith(NODE_DISK_ALLOWED_PREFIX)
                and NODE_DISK_RE.search(code)):
            report(idx, "node-disk",
                   "direct SimulatedDisk/BufferPool construction outside "
                   "src/storage/; stamp the node's stack out through "
                   "storage::MakeNodeStorage (net::Topology) so every disk "
                   "belongs to exactly one node")

        if (not display_path.startswith(JSON_BY_HAND_EXEMPT_PREFIXES)
                and builds_json_by_hand(lines, idx, code)):
            report(idx, "json-by-hand",
                   "JSON key in a printf-family/AppendF format; write JSON "
                   "through obs::JsonWriter (it escapes, separates and has "
                   "no length cap)")

        if (display_path not in QUERY_SWITCH_ALLOWED
                and switches_over_query(lines, idx, code)):
            report(idx, "query-switch",
                   "switch over QueryId outside the q1–q8 skeleton "
                   "(src/core/phased_backend.cc); implement the engine's "
                   "phases instead of another per-query plan")

        if (display_path.startswith("src/")
                and not display_path.startswith("src/rdf/")
                and display_path not in POST_FILTER_ALLOWED
                and POST_FILTER_RE.search(code)):
            report(idx, "post-filter",
                   "whole-triple scan-filter test outside the scan; pass "
                   "the PatternFilter into the scan (Match) instead")

        if (display_path.startswith(BACKEND_LIST_PREFIXES)
                and BACKEND_LIST_RE.search(code)):
            report(idx, "backend-list",
                   "engine backend built by hand; open it from "
                   "bench_support::Designs() (OpenDesigns / OpenDesign) "
                   "so every suite selects from the one design list")

        for name in status_names:
            if name in code and find_bare_call(lines, idx, name):
                report(idx, "discarded-status",
                       f"result of Status/Result-returning `{name}()` is "
                       "discarded; handle, return, or SWAN_CHECK it")
                break

        if uses_mutex_vocab_at is None and MUTEX_VOCAB_RE.search(code):
            uses_mutex_vocab_at = idx
        if uses_annot_vocab_at is None and ANNOTATION_VOCAB_RE.search(code):
            uses_annot_vocab_at = idx

    if display_path not in INCLUDE_LOCKS_EXEMPT and not path.endswith(".py"):
        if uses_mutex_vocab_at is not None and not has_mutex_include:
            report(uses_mutex_vocab_at, "include-locks",
                   "uses swan::Mutex vocabulary without directly including "
                   '"common/mutex.h"')
        elif uses_annot_vocab_at is not None and not has_annot_include:
            report(uses_annot_vocab_at, "include-locks",
                   "uses SWAN_* thread-safety macros without directly "
                   'including "common/thread_annotations.h"')
    _ = is_header
    return findings


def collect_files(roots, include_corpus=False):
    out = []
    for root in roots:
        abs_root = root if os.path.isabs(root) else os.path.join(REPO_ROOT, root)
        if os.path.isfile(abs_root):
            out.append(abs_root)
            continue
        for dirpath, dirnames, filenames in os.walk(abs_root):
            rel = os.path.relpath(dirpath, REPO_ROOT)
            if not include_corpus and rel.startswith(CORPUS_DIR):
                dirnames[:] = []
                continue
            for fn in sorted(filenames):
                if fn.endswith(SOURCE_EXTS):
                    out.append(os.path.join(dirpath, fn))
    return sorted(set(out))


def display_path_for(path, lines):
    rel = os.path.relpath(path, REPO_ROOT)
    if lines:
        m = CORPUS_PATH_RE.match(lines[0])
        if m:
            return m.group(1)
    return rel


def run_lint(roots, include_corpus=False):
    paths = collect_files(roots, include_corpus=include_corpus)
    loaded = []
    for p in paths:
        try:
            with open(p, encoding="utf-8", errors="replace") as f:
                loaded.append((p, f.read().splitlines()))
        except OSError as e:
            print(f"swan-lint: cannot read {p}: {e}", file=sys.stderr)
            return None
    status_names = harvest_status_names(
        [(display_path_for(p, ls), ls) for p, ls in loaded])
    findings = []
    for p, ls in loaded:
        findings.extend(lint_file(p, display_path_for(p, ls), ls, status_names))
    return findings


def self_test():
    corpus_abs = os.path.join(REPO_ROOT, CORPUS_DIR)
    if not os.path.isdir(corpus_abs):
        print(f"swan-lint: missing corpus dir {CORPUS_DIR}", file=sys.stderr)
        return 1
    findings = run_lint([CORPUS_DIR], include_corpus=True)
    if findings is None:
        return 1

    expected = {}  # (display_path, line) -> set(rules)
    for p in collect_files([CORPUS_DIR], include_corpus=True):
        with open(p, encoding="utf-8") as f:
            lines = f.read().splitlines()
        dp = display_path_for(p, lines)
        for idx, line in enumerate(lines):
            for m in EXPECT_RE.finditer(line):
                expected.setdefault((dp, idx + 1), set()).add(m.group(1))

    actual = {}
    for f in findings:
        actual.setdefault((f.path, f.line), set()).add(f.rule)

    ok = True
    for key, rules in sorted(expected.items()):
        got = actual.get(key, set())
        for rule in sorted(rules - got):
            print(f"self-test FAIL: {key[0]}:{key[1]} expected [{rule}] "
                  "but it did not fire")
            ok = False
    for key, rules in sorted(actual.items()):
        exp = expected.get(key, set())
        for rule in sorted(rules - exp):
            print(f"self-test FAIL: {key[0]}:{key[1]} unexpected [{rule}]")
            ok = False
    if ok:
        n = sum(len(v) for v in expected.values())
        print(f"swan-lint self-test: {n} expected findings, all fired "
              "exactly where seeded; no extras.")
        return 0
    return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help=f"files or directories (default: {DEFAULT_ROOTS})")
    parser.add_argument("--self-test", action="store_true",
                        help="run over tools/lint_corpus and verify markers")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0
    if args.self_test:
        return self_test()

    roots = args.paths or DEFAULT_ROOTS
    include_corpus = any(CORPUS_DIR in os.path.normpath(r) for r in roots)
    findings = run_lint(roots, include_corpus=include_corpus)
    if findings is None:
        return 2
    for f in findings:
        print(f)
    if findings:
        print(f"swan-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"swan-lint: clean ({', '.join(RULES)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
