#!/usr/bin/env python
"""Smoke run of the repository benchmark: one workload, untraced then traced.

Runs ``perfbench/run.py`` for one workload with ``--trace 0`` and then
``--trace 1``, echoing each run's JSON line.  Timings are not judged.
The smoke fails when a run exits non-zero, reports ``"correct": false``
or a failed operation, or warns that a layer entry point it wraps is
gone — a renamed ``kosaraju_scc`` would otherwise read as an
``inmemory_ms`` of zero.

    python scripts/perfbench_smoke.py --workload webspam-1pb --seed 1 --seconds 3

Exit 0 when both runs pass; 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: What ``perfbench`` prints to stderr when a wrapped function is gone.
MISSING_LAYERS = "layer entry points not found"


def check_run(workload: str, seed: int, seconds: float, trace: int) -> List[str]:
    """Run the benchmark once; return what is wrong with the run."""
    command = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    print("$", " ".join(command[1:]), flush=True)
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}"]
    line = proc.stdout.strip().splitlines()[-1]
    print(line, flush=True)
    result = json.loads(line)
    problems = []
    if result["correct"] is not True:
        problems.append('"correct" is not true')
    if result["failed"] > 0:
        problems.append(f"{result['failed']} failed operations")
    if MISSING_LAYERS in proc.stderr:
        problems.append(MISSING_LAYERS)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args(argv)

    failures = []
    for trace in (0, 1):
        for problem in check_run(args.workload, args.seed, args.seconds, trace):
            failures.append(f"{args.workload} --trace {trace}: {problem}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
