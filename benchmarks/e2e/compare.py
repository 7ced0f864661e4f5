"""Repeatability check: ``compare.py A.json B.json``.

``A`` and ``B`` are sets written by ``run.py --out``.  For every
workload x end-to-end metric this prints both values, how much worse
``B`` is than ``A`` (relative, in the metric's own direction) and the
bound from ``BENCHMARK.json``; it exits non-zero when any metric is
worse by more than its bound, when an exact count differs, or when
either set had a failed operation.  Per-layer metrics carry no bound
and are listed for information when both sets have them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Byte counts per operation are a function of the inputs alone for
#: the in-process workloads: same seed, same value, to the last digit.
EXACT = {
    ("selective", "wire_kb_per_op"),
    ("dense", "wire_kb_per_op"),
    ("publish", "wire_kb_per_op"),
}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def compare(first: dict, second: dict, spec: dict) -> int:
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    same_inputs = all(
        first["provenance"][key] == second["provenance"][key]
        for key in ("seed", "seconds", "smoke")
    )
    status = 0
    print(
        f"{'workload':10s} {'metric':16s} {'A':>14s} {'B':>14s} {'B worse by':>11s} {'bound':>6s}"
    )
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [side["workloads"].get(workload, {}).get("end_to_end") for side in (first, second)]
        if None in runs:
            print(f"{workload:10s} missing from one set")
            status = 1
            continue
        for side, run in zip("AB", runs):
            if run["failed"] or not run["correct"]:
                print(f"{workload:10s} set {side}: {run['failed']} of {run['attempted']} failed")
                status = 1
        for name, (better, bound) in bounds.items():
            a, b = (run["metrics"][name]["value"] for run in runs)
            worse = worse_by(a, b, better)
            verdict = ""
            if same_inputs and (workload, name) in EXACT and a != b:
                verdict = "  EXACT COUNT DIFFERS"
            elif worse > bound:
                verdict = "  BEYOND BOUND"
            if verdict:
                status = 1
            print(
                f"{workload:10s} {name:16s} {a:14.6g} {b:14.6g} "
                f"{worse:+11.1%} {bound:6.0%}{verdict}"
            )
    for workload in (w["name"] for w in spec["workloads"]):
        layers = [side["workloads"].get(workload, {}).get("per_layer") for side in (first, second)]
        if None in layers:
            continue
        for name, cell in layers[0]["metrics"].items():
            other = layers[1]["metrics"][name]["value"]
            print(f"{workload:10s} {name:34s} {cell['value']:14.6g} {other:14.6g} {cell['unit']}")
    return status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    first, second = (json.loads(Path(path).read_text()) for path in argv)
    return compare(first, second, json.loads(SPEC_PATH.read_text()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
