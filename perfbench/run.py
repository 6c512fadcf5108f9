#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile_cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that wraps the ``repro`` layers and
reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

import pb_workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench-tmp"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(pb_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still stops its servers and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    SCRATCH.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        report = pb_workloads.WORKLOADS[args.workload](
            pb_workloads.Context(args.seed, args.seconds, bool(args.trace), env, work_dir)
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is still using it

    units = pb_workloads.PER_LAYER_UNITS if args.trace else pb_workloads.E2E_UNITS
    if set(report.metrics) != set(units):
        print(
            f"perfbench: {args.workload} reported {sorted(report.metrics)}, "
            f"expected {sorted(units)}",
            file=sys.stderr,
        )
        return 1
    for note in report.notes:
        print(f"# {note}")
    for problem in report.problems:
        print(f"! {problem}")
    for name, value in report.metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(
        json.dumps(
            {
                "correct": report.correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in report.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
