"""Smoke test of the e2e benchmark (not part of tier-1's ``testpaths``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (< 30 s):
all four workloads at ~1 s each on tiny inputs, end to end and per
layer, through the same command the driver uses.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _serve_processes() -> list[str]:
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
            except OSError:
                continue
            if "repro serve" in cmdline and str(HERE) in cmdline:
                found.append(cmdline)
    return found


def test_smoke_all_workloads(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "set.json"
    run = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--traced", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    report = json.loads(out.read_text())

    assert report["provenance"]["cores"] >= 1
    assert {"python", "numpy", "vec_backend", "commit", "seed", "seconds"} <= set(
        report["provenance"]
    )
    for workload in (w["name"] for w in spec["workloads"]):
        for section in ("end_to_end", "per_layer"):
            result = report["workloads"][workload][section]
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1  # the sample count beside the metrics
            assert set(result["metrics"]) == {m["name"] for m in spec[section]}
            for metric in spec[section]:
                cell = result["metrics"][metric["name"]]
                assert NAME.fullmatch(metric["name"])
                assert cell["unit"] == metric["unit"]
                assert math.isfinite(cell["value"])
                if section == "end_to_end":
                    assert cell["value"] > 0
                # every metric is also printed by name with its unit
                assert re.search(
                    rf"{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}", run.stdout
                )

    assert not _serve_processes(), "a repro serve subprocess outlived the run"
    assert not list(HERE.glob("work-*")), "a scratch directory was left behind"

    # a set agrees with itself under compare.py
    same = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out), str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert same.returncode == 0, same.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json + benchmarks/e2e: no result, non-zero exit."""
    bare = tmp_path / "checkout"
    (bare / "benchmarks" / "e2e").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for source in HERE.glob("*.py"):
        (bare / "benchmarks" / "e2e" / source.name).write_text(source.read_text())
    run = subprocess.run(
        [
            sys.executable, "benchmarks/e2e/run.py", "--workload", "selective",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode != 0
    assert not run.stdout.strip()
