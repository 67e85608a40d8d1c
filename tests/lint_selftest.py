#!/usr/bin/env python3
"""Self-test for tools/lint_odrl.py: rules must fire on the dirty fixture
tree, stay quiet on the clean one, and the real repository must lint
clean. Registered as the `lint_selftest` ctest case so a rule that rots
(stops firing, or starts over-triggering) fails the suite, not a code
review.

Usage: python3 tests/lint_selftest.py [--repo-root DIR]
Exit status: 0 on success, 1 on any self-test failure.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

# Every rule the dirty fixture deliberately violates, and the naked-marker
# diagnostic (the clean fixture, in turn, pins that names of deleted APIs
# -- decide(), ThreadPool -- are no longer findings). A new lint rule (or a new pattern under an existing rule --
# the std::async/pthread_create spawners live under raw-thread) lands with
# a fixture violation + an entry here, or the self-test will not protect
# it. Entries are matched as substrings of the lint output, so finding
# *messages* work as well as rule names.
EXPECTED_DIRTY_RULES = (
    "controller-must-decide-into",
    "heap-in-hot-path",
    "raw-loop-reduction",
    "raw-mutex",
    "unguarded-capability",
    "nondeterminism",
    "raw-thread",
    "std::async",
    "pthread_create",
    "std-function-hot-path",
    "suppression without a reason",
)


def run_lint(lint: Path, root: Path) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(lint), "--root", str(root)],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo-root",
                        default=str(Path(__file__).resolve().parent.parent),
                        help="repository root (default: this script's ../)")
    args = parser.parse_args()
    repo = Path(args.repo_root).resolve()
    lint = repo / "tools" / "lint_odrl.py"
    fixtures = repo / "tests" / "lint_fixtures"
    failures: list[str] = []

    rc, out = run_lint(lint, fixtures / "clean")
    if rc != 0:
        failures.append(
            f"clean fixture tree: expected exit 0, got {rc}:\n{out}")

    rc, out = run_lint(lint, fixtures / "dirty")
    if rc != 1:
        failures.append(
            f"dirty fixture tree: expected exit 1, got {rc}:\n{out}")
    for rule in EXPECTED_DIRTY_RULES:
        if rule not in out:
            failures.append(
                f"dirty fixture tree: expected a '{rule}' finding; output:\n"
                f"{out}")

    rc, out = run_lint(lint, repo)
    if rc != 0:
        failures.append(
            f"real repository: expected exit 0 (lint-clean), got {rc}:\n"
            f"{out}")

    for failure in failures:
        print(f"lint_selftest: FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("lint_selftest: ok (clean passes, dirty fires "
              f"{len(EXPECTED_DIRTY_RULES)} expected rules, repo clean)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
