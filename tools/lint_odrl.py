#!/usr/bin/env python3
"""Project-specific lint rules for the ODRL hot path.

Eight rules -- five aimed at the zero-allocation span/SoA epoch data path
(DESIGN.md "Epoch data path" / "Correctness tooling"), three at the
concurrency/determinism contracts (DESIGN.md "Thread-safety model &
static analysis"); generic static analysis is clang-tidy's job
(.clang-tidy), this script enforces what no off-the-shelf check can
express:

  std-function-hot-path
      `std::function` type-erases through a heap allocation and an
      indirect call; it must not appear in src/ or bench/ outside the
      explicit allowlist of cold-path registration sites.

  controller-must-decide-into
      Every sim::Controller subclass must implement decide_into() (the
      in-place hot path and the only decision entry point), in the class
      body itself, so the per-epoch contract is visible where the
      controller is defined.

  heap-in-hot-path
      Function definitions named *_into (step_into, decide_into,
      reallocate_budget_into, ...) and the runner's run_epoch lambda are
      the per-epoch hot path: no `new`, make_unique/make_shared, or local
      std::vector/std::string declarations inside them. Reused-capacity
      calls (resize/assign on members) are fine and not flagged.

  raw-loop-reduction
      A scalar accumulator (`double x = 0;` ... `x += ...`) inside a
      *_into body folds in whatever order the surrounding loop takes.
      Hot-path reductions must fold in a tree fixed by the code alone:
      a materialized column in canonical index order (util::ordered_sum),
      or a serial block tree whose shape depends only on the core count,
      the lane width and the block size (DESIGN.md "Vectorized kernels").
      A block fold carries a reasoned allow marker naming it as the
      golden summation order.

  raw-thread
      All worker threads belong to the task runtime
      (src/task/runtime.hpp): it owns the shared queue, parking and
      exception propagation. New code spawning `std::thread`,
      or launching through `std::async` or `pthread_create` forks that
      ownership and escapes the runtime's counters and shutdown drain --
      the service layer (src/service/) in particular must post sessions
      onto the runtime, never side-spawn. Allowlist: the runtime's own
      implementation.
      `std::thread::hardware_concurrency()` and other static member
      accesses never trip this.

  raw-mutex
      All locking goes through the annotated util::Mutex / MutexLock /
      CondVar (src/util/mutex.hpp): they carry the Clang Thread Safety
      Analysis capability the -Wthread-safety CI build checks, and the
      ODRL_CHECKED lock-rank checker that catches lock-order inversions
      at runtime. A raw std::mutex / lock_guard / condition_variable is
      invisible to both. Allowlist: the wrapper's own implementation.

  nondeterminism
      std::random_device, the std::chrono clocks, time()/rand()/srand()
      inject run-to-run variation; every simulated quantity must come
      from the seeded util RNG streams or the golden digests (and the
      bit-identical resume/threads contracts) die. bench/ is allowlisted
      (timing harnesses measure wall time by definition); observational
      timing elsewhere (telemetry decide_s, fleet wall_s) carries a
      reasoned allow marker at the use site.

  unguarded-capability
      In a file that uses the thread-annotation vocabulary (includes
      thread_annotations.hpp or util/mutex.hpp), a `mutable` member is a
      cross-thread mutation point: it must either be a synchronization
      primitive itself (util::Mutex/CondVar, std::atomic), carry an
      ODRL_GUARDED_BY/ODRL_PT_GUARDED_BY annotation, or carry a reasoned
      allow marker saying why it needs no guard. `mutable` without one of
      those is exactly the implicit single-writer convention this layer
      exists to retire.

Suppression: append `// lint: allow(<rule>): <reason>` to the offending
line, or place it on its own line directly above (for statements the
column limit would otherwise wrap). Naked suppressions (no reason) are
themselves findings.

Usage:  python3 tools/lint_odrl.py [--root DIR]
Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Cold-path sites where std::function is the right tool: factory
# registration (startup-only) and benchmark harness wiring.
STD_FUNCTION_ALLOWLIST = {
    "src/sim/controller_registry.hpp",
    "bench/bench_common.hpp",
}

# The one place allowed to own threads.
RAW_THREAD_ALLOWLIST = {
    "src/task/runtime.hpp",
    "src/task/runtime.cpp",
}

# The annotated wrapper's own implementation: the only files allowed to
# touch the raw std primitives it wraps.
RAW_MUTEX_ALLOWLIST = {
    "src/util/mutex.hpp",
    "src/util/mutex.cpp",
}

# Wall-clock timing is the product in benchmark harnesses; everywhere
# else a clock/RNG-device use needs a reasoned allow marker.
NONDET_ALLOW_PREFIXES = ("bench/",)

SCAN_DIRS = ("src", "bench", "examples")
HOT_SUFFIX = "_into"

ALLOW_RE = re.compile(r"//\s*lint:\s*allow\((?P<rule>[\w-]+)\)(?P<reason>.*)")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving offsets
    and newlines so byte positions still map to line numbers."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            for k in range(i, j):
                if out[k] != "\n":
                    out[k] = " "
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j = j + 2 if text[j] == "\\" else j + 1
            j = min(j + 1, n)
            for k in range(i + 1, j - 1):
                if out[k] != "\n":
                    out[k] = " "
            i = j
        else:
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def suppressed(raw_lines: list[str], line: int, rule: str,
               findings: list[Finding], path: Path) -> bool:
    """True if `line` (or the line directly above it) carries a reasoned
    allow marker for `rule`."""
    for cand in (line, line - 1):
        if cand < 1 or cand > len(raw_lines):
            continue
        m = ALLOW_RE.search(raw_lines[cand - 1])
        if not m or m.group("rule") != rule:
            continue
        if not m.group("reason").strip(" :"):
            findings.append(Finding(path, cand, rule,
                                    "suppression without a reason"))
        return True
    return False


def match_brace_block(text: str, open_brace: int) -> int:
    """Returns the offset just past the brace block opened at open_brace
    (text must already be comment/string-stripped)."""
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def check_std_function(path: Path, rel: str, text: str,
                       raw_lines: list[str], findings: list[Finding]):
    if rel in STD_FUNCTION_ALLOWLIST:
        return
    for m in re.finditer(r"\bstd::function\b", text):
        line = line_of(text, m.start())
        if suppressed(raw_lines, line, "std-function-hot-path", findings,
                      path):
            continue
        findings.append(Finding(
            path, line, "std-function-hot-path",
            "std::function heap-allocates and indirect-calls; use "
            "util::FunctionRef or a template parameter (allowlist: "
            + ", ".join(sorted(STD_FUNCTION_ALLOWLIST)) + ")"))


CONTROLLER_BASE_RE = re.compile(
    r"\bclass\s+(?P<name>\w+)[^;{]*?:\s*(?:public\s+)?"
    r"(?:odrl::)?(?:sim|os)?(?:::)?\s*(?:sim::)?Controller\b[^;{]*\{")


def check_decide_into(path: Path, text: str, raw_lines: list[str],
                      findings: list[Finding]):
    for m in CONTROLLER_BASE_RE.finditer(text):
        name = m.group("name")
        if name == "Controller":
            continue
        body_start = m.end() - 1
        body = text[body_start:match_brace_block(text, body_start)]
        if re.search(r"\bdecide_into\s*\(", body):
            continue
        line = line_of(text, m.start())
        if suppressed(raw_lines, line, "controller-must-decide-into",
                      findings, path):
            continue
        findings.append(Finding(
            path, line, "controller-must-decide-into",
            f"{name} derives from sim::Controller but does not implement "
            "decide_into(), the only decision entry point"))


HOT_DEF_RE = re.compile(
    r"\b[\w:~]*" + HOT_SUFFIX + r"\s*\([^;{)]*(?:\([^)]*\)[^;{)]*)*\)"
    r"[^;{]*\{")
RUN_EPOCH_RE = re.compile(r"\brun_epoch\s*=\s*\[")

HEAP_PATTERNS = (
    (re.compile(r"(?<!:)\bnew\b(?!\w)"), "raw new"),
    (re.compile(r"\bstd::make_unique\b"), "std::make_unique"),
    (re.compile(r"\bstd::make_shared\b"), "std::make_shared"),
    (re.compile(r"\bstd::vector<[^;]*>\s+\w+\s*[({;=]"),
     "local std::vector"),
    (re.compile(r"\bstd::string\s+\w+\s*[({;=]"), "local std::string"),
)


def hot_regions(text: str):
    """Yields (label, start, end) offsets of hot-path function bodies."""
    for m in HOT_DEF_RE.finditer(text):
        open_brace = text.index("{", m.end() - 1)
        label = m.group(0).split("(")[0].strip().split()[-1]
        yield label, open_brace, match_brace_block(text, open_brace)
    for m in RUN_EPOCH_RE.finditer(text):
        open_brace = text.index("{", m.end())
        yield "run_epoch lambda", open_brace, match_brace_block(
            text, open_brace)


def check_heap_in_hot_path(path: Path, text: str, raw_lines: list[str],
                           findings: list[Finding]):
    for label, start, end in hot_regions(text):
        body = text[start:end]
        for pattern, what in HEAP_PATTERNS:
            for hit in pattern.finditer(body):
                line = line_of(text, start + hit.start())
                if suppressed(raw_lines, line, "heap-in-hot-path",
                              findings, path):
                    continue
                findings.append(Finding(
                    path, line, "heap-in-hot-path",
                    f"{what} inside {label}: the per-epoch hot path must "
                    "not allocate; keep scratch in members and reuse "
                    "capacity"))


# Flags std::thread/std::jthread uses that are not static member accesses
# (hardware_concurrency() is fine everywhere) and the side-door spawners: std::async launches an unmanaged thread per call
# and pthread_create bypasses C++ entirely -- both escape the runtime's
# counters and shutdown drain just as thoroughly as a raw std::thread.
RAW_THREAD_RE = re.compile(r"\bstd::j?thread\b(?!\s*::)")
ASYNC_RE = re.compile(r"\bstd::async\s*[(<]")
PTHREAD_CREATE_RE = re.compile(r"\bpthread_create\s*\(")


def check_raw_thread(path: Path, rel: str, text: str,
                     raw_lines: list[str], findings: list[Finding]):
    if rel in RAW_THREAD_ALLOWLIST:
        return
    hits = [(m, "raw std::thread") for m in RAW_THREAD_RE.finditer(text)]
    hits += [(m, "std::async") for m in ASYNC_RE.finditer(text)]
    hits += [(m, "pthread_create") for m in PTHREAD_CREATE_RE.finditer(text)]
    for m, what in sorted(hits, key=lambda h: h[0].start()):
        line = line_of(text, m.start())
        if suppressed(raw_lines, line, "raw-thread", findings, path):
            continue
        findings.append(Finding(
            path, line, "raw-thread",
            f"{what}: worker threads belong to the task runtime "
            "(task/runtime.hpp), whose one queue, parking and shutdown "
            "drain they would bypass -- submit work through "
            "Runtime::submit instead of spawning threads "
            "(allowlist: " + ", ".join(sorted(RAW_THREAD_ALLOWLIST)) + ")"))


# Raw locking primitives the annotated wrapper supersedes. Catching the
# types (not just the lock sites) also flags member declarations.
RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b")


def check_raw_mutex(path: Path, rel: str, text: str,
                    raw_lines: list[str], findings: list[Finding]):
    if rel in RAW_MUTEX_ALLOWLIST:
        return
    for m in RAW_MUTEX_RE.finditer(text):
        line = line_of(text, m.start())
        if suppressed(raw_lines, line, "raw-mutex", findings, path):
            continue
        findings.append(Finding(
            path, line, "raw-mutex",
            f"{m.group(0)}: locking goes through the annotated util::Mutex"
            " / util::MutexLock / util::CondVar (util/mutex.hpp) so the"
            " -Wthread-safety build and the lock-rank checker can see it"
            " (allowlist: " + ", ".join(sorted(RAW_MUTEX_ALLOWLIST)) + ")"))


# Sources of run-to-run variation. The clock *types* are matched (not just
# ::now()) so `using Clock = std::chrono::steady_clock;` is flagged at the
# alias, where the marker documents why the timing is determinism-safe.
# The lookbehind on time( / rand( skips member calls and qualified names
# (sim.time(...), util::rand(...)).
NONDET_PATTERNS = (
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bstd::chrono::(?:system_clock|steady_clock|"
                r"high_resolution_clock)\b"), "a std::chrono clock"),
    (re.compile(r"(?<![\w.:>])time\s*\("), "time()"),
    (re.compile(r"(?<![\w.:>])s?rand\s*\("), "rand()/srand()"),
)


def check_nondeterminism(path: Path, rel: str, text: str,
                         raw_lines: list[str], findings: list[Finding]):
    if rel.startswith(NONDET_ALLOW_PREFIXES):
        return
    for pattern, what in NONDET_PATTERNS:
        for m in pattern.finditer(text):
            line = line_of(text, m.start())
            if suppressed(raw_lines, line, "nondeterminism", findings, path):
                continue
            findings.append(Finding(
                path, line, "nondeterminism",
                f"{what} injects run-to-run variation: simulated behavior "
                "must come from the seeded util RNG streams (golden digests"
                " and resume bit-identity depend on it); observational "
                "timing needs a reasoned allow marker"))


# A mutable member that is itself a synchronization primitive never needs
# a guard annotation; everything else in an annotation-aware file does.
MUTABLE_MEMBER_RE = re.compile(r"^\s*(?:mutable)\s+(?P<decl>[^;{]*);",
                               re.MULTILINE)
SYNC_PRIMITIVE_RE = re.compile(
    r"\b(?:util::)?(?:Mutex|CondVar)\b|\bstd::atomic\b")
GUARD_ANNOTATION_RE = re.compile(r"\bODRL_(?:PT_)?GUARDED_BY\s*\(")
ANNOTATION_AWARE_RE = re.compile(
    r'#\s*include\s+"util/(?:thread_annotations|mutex)\.hpp"')


def check_unguarded_capability(path: Path, raw: str, text: str,
                               raw_lines: list[str],
                               findings: list[Finding]):
    if not ANNOTATION_AWARE_RE.search(raw):
        return
    for m in MUTABLE_MEMBER_RE.finditer(text):
        decl = m.group("decl")
        if SYNC_PRIMITIVE_RE.search(decl):
            continue
        if GUARD_ANNOTATION_RE.search(decl):
            continue
        line = line_of(text, m.start("decl"))
        if suppressed(raw_lines, line, "unguarded-capability", findings,
                      path):
            continue
        findings.append(Finding(
            path, line, "unguarded-capability",
            "mutable member without ODRL_GUARDED_BY in an annotation-aware"
            " file: mutable means cross-thread mutation from const paths;"
            " guard it, or add a reasoned allow marker explaining why it"
            " is confined to one thread"))


REDUCTION_DECL_RE = re.compile(r"\bdouble\s+(?P<name>\w+)\s*=\s*0(?:\.0*)?\s*;")


def check_raw_loop_reduction(path: Path, text: str, raw_lines: list[str],
                             findings: list[Finding]):
    for label, start, end in hot_regions(text):
        body = text[start:end]
        for decl in REDUCTION_DECL_RE.finditer(body):
            name = decl.group("name")
            acc_re = re.compile(r"\b" + re.escape(name) + r"\s*\+=")
            for hit in acc_re.finditer(body):
                line = line_of(text, start + hit.start())
                if suppressed(raw_lines, line, "raw-loop-reduction",
                              findings, path):
                    continue
                findings.append(Finding(
                    path, line, "raw-loop-reduction",
                    f"raw '+=' reduction onto {name} inside {label}: fold "
                    "a materialized column with util::ordered_sum, or add "
                    "a reasoned allow marker pinning the fold order"))


def lint_file(path: Path, root: Path, findings: list[Finding]):
    raw = path.read_text(encoding="utf-8")
    raw_lines = raw.splitlines()
    text = strip_comments_and_strings(raw)
    rel = path.relative_to(root).as_posix()
    check_std_function(path.relative_to(root), rel, text, raw_lines,
                       findings)
    check_decide_into(path.relative_to(root), text, raw_lines, findings)
    check_raw_thread(path.relative_to(root), rel, text, raw_lines, findings)
    check_raw_mutex(path.relative_to(root), rel, text, raw_lines, findings)
    check_nondeterminism(path.relative_to(root), rel, text, raw_lines,
                         findings)
    check_unguarded_capability(path.relative_to(root), raw, text, raw_lines,
                               findings)
    if path.suffix in (".cpp", ".cc", ".hpp"):
        check_heap_in_hot_path(path.relative_to(root), text, raw_lines,
                               findings)
        check_raw_loop_reduction(path.relative_to(root), text, raw_lines,
                                 findings)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    args = parser.parse_args()
    root = Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"lint_odrl: no src/ under {root}", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    n_files = 0
    for d in SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".hpp", ".cpp", ".h", ".cc"):
                n_files += 1
                lint_file(path, root, findings)

    for f in findings:
        print(f)
    print(f"lint_odrl: {n_files} files scanned, {len(findings)} finding(s)",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
