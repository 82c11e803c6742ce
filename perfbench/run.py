"""The repository benchmark: one workload per invocation, one JSON line out.

Usage, from the repository root::

    python3 perfbench/run.py --workload webspam-1pb --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``webspam-1pb`` — 1PB-SCC on graphs with a giant SCC.
* ``citation-1p`` — 1P-SCC on near-acyclic citation graphs.
* ``service`` — a reachability/membership query mix against the daemon.

Each run builds its inputs from ``--seed``, sets them up several times
(timed), then measures operations for ``--seconds``.  With ``--trace 0``
the last stdout line reports the end-to-end metrics; with ``--trace 1``
it reports per-layer metrics from a separately instrumented run.
Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("webspam-1pb", "citation-1p", "service")

#: Least operations and wall time in one window of a run.
WINDOW_OPS = 20
WINDOW_SECONDS = 0.1


def _declared_units(section: str) -> dict:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[section]}


def _environment(workdir: str) -> dict:
    """Run settings the program reads from the environment, pinned."""
    env = dict(os.environ)
    for name in ("REPRO_FAULT_PLAN", "REPRO_CHECK_INVARIANTS", "REPRO_LOG"):
        env.pop(name, None)
    # No simulated per-block latency: time is the program's own CPU and
    # real file I/O.
    env["REPRO_SIM_SEEK_MS"] = "0"
    env["REPRO_SIM_TRANSFER_MS"] = "0"
    env["TMPDIR"] = workdir
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _end_to_end(result: dict) -> dict:
    if "latency_ms" in result:  # a workload with its own statistic
        latency_ms = result["latency_ms"]
    else:
        latency_ms = _best_window_median(result["timeline"])
    return {
        "latency_ms": latency_ms,
        "setup_s": statistics.median(result["setups"]),
    }


def _best_window_median(timeline) -> float:
    """Median operation latency in the quietest spell of the run.

    On a shared host, other tenants slow everything down for spells of
    seconds, which moves a whole run's median far more than the
    program's own cost does.  Like ``timeit``'s best of several repeats,
    the run is cut into consecutive windows of at least
    ``WINDOW_OPS`` operations and ``WINDOW_SECONDS`` of wall time, and the
    lowest per-window median is reported.
    """
    medians = []
    window: list = []
    opened = timeline[0][0]
    for start, latency in timeline:
        if len(window) >= WINDOW_OPS and start - opened >= WINDOW_SECONDS:
            medians.append(statistics.median(window))
            window, opened = [], start
        window.append(latency)
    if not medians:
        medians.append(statistics.median(window))
    return min(medians) * 1000.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources at {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    env = _environment(workdir)
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, SRC)
    try:
        if args.workload == "service":
            import service

            result = service.run(args.seed, args.seconds, bool(args.trace), workdir, env)
        else:
            import compute

            result = compute.run(
                args.workload, args.seed, args.seconds, bool(args.trace), workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run's scratch is still there
            pass

    if args.trace:
        units = _declared_units("per_layer")
        values = {name: result["layers"].get(name, 0.0) for name in units}
    else:
        units = _declared_units("end_to_end")
        values = _end_to_end(result)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
