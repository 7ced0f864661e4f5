"""One end-to-end benchmark: selective / dense / publish / gateway.

Two ways to call it, both from the repository root:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process.  The last line of standard output is
    one JSON object ``{"correct", "attempted", "failed", "metrics"}``
    holding every end-to-end metric (``--trace 0``) or every per-layer
    metric (``--trace 1``) named in ``BENCHMARK.json``.

``python3 benchmarks/e2e/run.py [--seed N] [--traced] [--smoke] [--out F]``
    Every workload, each in a fresh subprocess of the form above;
    prints every metric by name with its unit and writes the set, with
    a provenance block, to ``F`` (input of ``compare.py``).

Exit status is non-zero when any answer was wrong or any operation
failed, and when the program (``src/repro``) is not there to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def provenance(args: argparse.Namespace) -> dict:
    from repro.matching import vec

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "vec_backend": vec.backend(),
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def run_one(args: argparse.Namespace) -> int:
    """Driver form: one workload, here, result on the last line."""
    import measure
    import stepped
    from workloads import WORKLOADS

    spec = load_spec()
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[section]}

    workdir = tempfile.mkdtemp(prefix="work-", dir=HERE)  # inside the checkout
    started = time.perf_counter()
    try:
        workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
        generated = time.perf_counter() - started
        if args.trace:
            values, tally = stepped.run(workload, args.seconds, workdir, args.spans_out)
        else:
            values, tally = measure.run(workload, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    broken = sorted(n for n in units if n in values and not math.isfinite(values[n]))
    for name in missing + broken:
        tally.fail(f"metric {name} missing or not finite")
    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"inputs={generated:.2f}s wall={time.perf_counter() - started:.1f}s "
        f"deployments={len(workload.deployments)} "
        f"queries={sum(len(d.queries) for d in workload.deployments)}"
    )
    for reason in tally.reasons:
        print(f"# FAILED: {reason}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }
    if args.detail_out:
        Path(args.detail_out).write_text(
            json.dumps({"provenance": provenance(args), "result": result})
        )
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own subprocess; print and save the set."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    report: dict = {"provenance": None, "workloads": {}}
    status = 0
    for name in names:
        for trace in (0, 1) if args.traced else (0,):
            with tempfile.NamedTemporaryFile(dir=HERE, prefix="detail-", suffix=".json") as tmp:
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--detail-out", tmp.name,
                ] + (["--smoke"] if args.smoke else [])
                child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
                sys.stderr.write(child.stderr)
                detail = json.loads(Path(tmp.name).read_text() or "null")
            if detail is None:
                print(f"{name} (trace {trace}): no result, exit {child.returncode}")
                status = 1
                continue
            result = detail["result"]
            report["provenance"] = detail["provenance"]
            entry = report["workloads"].setdefault(name, {})
            entry["per_layer" if trace else "end_to_end"] = result
            status |= child.returncode
            print(
                f"== {name} ({'per layer' if trace else 'end to end'}): "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"correct={result['correct']}"
            )
            for line in child.stdout.splitlines():
                if line.startswith("#"):
                    print(f"   {line}")
            for metric, cell in result["metrics"].items():
                print(f"   {metric:34s} {cell['value']:>16.6g} {cell['unit']}")
    print(f"provenance: {json.dumps(report['provenance'])}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="all-workloads form: also per-layer")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, ~1 s per workload")
    parser.add_argument("--out", help="all-workloads form: write the set here")
    parser.add_argument("--detail-out", help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", help="with --trace 1: dump the raw spans here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2e benchmark: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(load_spec()["run_seconds"])
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
