#!/usr/bin/env python
"""One-shot local gate: ruff + mypy + ``repro lint`` + the tier-1 suite.

Runs the same checks CI runs, in the same order, from one command:

    python scripts/check.py

Tools that are not installed in the current environment (ruff and mypy
are optional developer installs) are *skipped with a notice* rather
than failing the gate -- the offline evaluation container has neither,
while CI installs both.  The invariant linter and the tier-1 test
suite are always available (they only need the package itself) and are
always run.

Exit status is non-zero iff any executed step failed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: each step: (label, argv, required_tool or None)
STEPS: list[tuple[str, list[str], str | None]] = [
    (
        "ruff (style + imports + bugbear)",
        ["ruff", "check", "src", "tests", "benchmarks", "scripts"],
        "ruff",
    ),
    (
        "mypy (typed core: repro.core, repro.cloud, repro.obs)",
        ["mypy"],
        "mypy",
    ),
    (
        # picks up new rules automatically; gates on severity>=error
        "repro lint (invariants R1-R4, R6-R8: imports, names, locks, "
        "hot path, taint, async, protocol)",
        [
            sys.executable,
            "-m",
            "repro",
            "lint",
            "src",
            "tests",
            "benchmarks",
            "--fail-on",
            "error",
        ],
        None,
    ),
    (
        "tier-1 test suite",
        [sys.executable, "-m", "pytest", "-x", "-q"],
        None,
    ),
]


def main() -> int:
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    failures: list[str] = []
    skipped: list[str] = []
    for label, argv, tool in STEPS:
        print(f"==> {label}")
        if tool is not None and shutil.which(tool) is None:
            print(f"    skipped: {tool!r} is not installed\n")
            skipped.append(label)
            continue
        proc = subprocess.run(argv, cwd=REPO, env=env)
        if proc.returncode != 0:
            print(f"    FAILED (exit {proc.returncode})\n")
            failures.append(label)
        else:
            print("    ok\n")

    ran = len(STEPS) - len(skipped)
    if failures:
        print(f"check: {len(failures)}/{ran} step(s) failed:")
        for label in failures:
            print(f"  - {label}")
        return 1
    note = f" ({len(skipped)} skipped)" if skipped else ""
    print(f"check: all {ran} step(s) passed{note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
