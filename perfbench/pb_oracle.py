"""Correctness oracle: committed fingerprints and modelled cycles.

``expected.json`` holds, for every (model, hardware, options) the
benchmark compiles, the program's ``fingerprint()`` and
``end_to_end_cycles`` as recorded from a reference revision of the
compiler.  Every program a workload obtains — local compile, daemon
response or remote warm start — is checked against it.

Re-record (only when a change is *meant* to alter programs)::

    PYTHONPATH=src python3 perfbench/pb_oracle.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Optional

EXPECTED_PATH = Path(__file__).with_name("expected.json")
HARDWARE = "dynaplasia"

#: Benchmark job name -> (registered model, Workload keyword arguments).
JOBS: Dict[str, tuple] = {
    "mobilenet": ("mobilenet", {}),
    "resnet18": ("resnet18", {}),
    "bert": ("bert", {"batch_size": 1, "seq_len": 32}),
    "tiny-cnn": ("tiny-cnn", {}),
    "tiny-mlp": ("tiny-mlp", {}),
    "llama2-7b": ("llama2-7b", {}),
}


def options():
    from repro.core import CompilerOptions

    return CompilerOptions(generate_code=False)


def workload(name: str):
    from repro.models.workload import Workload

    return Workload(**JOBS[name][1])


def compile_job(name: str):
    """The daemon request for a benchmark job (same inputs as local)."""
    from repro.service import CompileJob

    return CompileJob(
        JOBS[name][0], workload=workload(name), hardware=HARDWARE, options=options()
    )


def load_expected() -> Dict[str, Dict]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        document = json.load(handle)
    return document["programs"]


def mismatch(expected: Dict[str, Dict], name: str, program) -> Optional[str]:
    """None when ``program`` matches the record for job ``name``."""
    want = expected[name]
    got_fp = program.fingerprint()
    if got_fp != want["fingerprint"]:
        return f"{name}: fingerprint {got_fp} != expected {want['fingerprint']}"
    if program.end_to_end_cycles != want["end_to_end_cycles"]:
        return (
            f"{name}: end_to_end_cycles {program.end_to_end_cycles!r} "
            f"!= expected {want['end_to_end_cycles']!r}"
        )
    return None


def record() -> None:
    from repro.api import Session

    programs = {}
    for name, (model, kwargs) in JOBS.items():
        program = Session(hardware=HARDWARE).compile(
            model, workload(name), options=options()
        )
        programs[name] = {
            "model": model,
            "workload": kwargs,
            "fingerprint": program.fingerprint(),
            "end_to_end_cycles": program.end_to_end_cycles,
        }
    document = {
        "hardware": HARDWARE,
        "options": {"generate_code": False},
        "programs": programs,
    }
    EXPECTED_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: pb_oracle.py --record")
    record()
