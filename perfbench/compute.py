"""Batch workloads: whole semi-external SCC computations.

One operation is one ``compute_sccs`` call on a graph already stored on
disk — what ``repro-scc compute`` does after loading a stored graph.
Every result is checked against the reference partition.
"""

from __future__ import annotations

import contextlib
import gc
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

import graphs
from layers import LayerClock

#: 8 KiB blocks: dozens of blocks per scan at these sizes, so block
#: reads, batch dispatch and scratch-file rewrites all do real work.
BLOCK_SIZE = 8192


@dataclass(frozen=True)
class ComputeWorkload:
    algorithm: str
    num_nodes: int
    avg_degree: float
    generate: Callable[[int, float, int], np.ndarray]


WORKLOADS: Dict[str, ComputeWorkload] = {
    "webspam-1pb": ComputeWorkload("1PB-SCC", 2600, 8.0, graphs.webspam_like),
    "citation-1p": ComputeWorkload("1P-SCC", 2000, 4.37, graphs.citation_like),
}

#: Graphs per run, each from its own seed derived from ``--seed``: one
#: unusual graph moves a run's figures by only a share of its deviation.
GRAPHS = 3

#: Set-ups per graph: each stores the graph afresh and computes once.
SETUPS_PER_GRAPH = 5


_NO_CLOCK = contextlib.nullcontext()


def _counters(tracer) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for span in tracer.spans:
        for key, value in span.counters.items():
            totals[key] = totals.get(key, 0) + int(value)
    return totals


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """Measure one batch workload, cycling over its graphs."""
    from repro import DiskGraph, Digraph, Tracer, compute_sccs

    spec = WORKLOADS[name]
    setups: List[float] = []
    attempted = failed = 0
    correct = True
    layer_busy: Dict[str, float] = {}
    op_seconds = 0.0
    counts: Dict[str, float] = {}
    missing: List[str] = []

    def one(disk, expected, counted: bool) -> float:
        nonlocal attempted, failed, correct, op_seconds
        tracer = Tracer() if trace else None
        clock = LayerClock()
        gc.collect()
        attempted += 1
        with clock if trace else _NO_CLOCK:
            start = time.perf_counter()
            try:
                result = compute_sccs(disk, algorithm=spec.algorithm, tracer=tracer)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                print(f"{spec.algorithm} failed: {exc!r}", file=sys.stderr)
                failed += 1
                return time.perf_counter() - start
            elapsed = time.perf_counter() - start
        if not np.array_equal(graphs.canonical(result.labels), expected):
            correct = False
        if counted and trace:
            for layer, busy in clock.busy.items():
                layer_busy[layer] = layer_busy.get(layer, 0.0) + busy
            op_seconds += elapsed
            for missed in clock.missing:
                if missed not in missing:
                    missing.append(missed)
            totals = _counters(tracer)
            for key, value in (
                ("blocks_read", result.stats.io.reads),
                ("blocks_written", result.stats.io.writes),
                ("scans", result.stats.iterations),
                ("edges_classified", totals.get("edges-classified", 0)),
                ("fast_path", totals.get("kernel-fast-path", 0)),
                ("fallbacks", totals.get("kernel-fallbacks", 0)),
                ("oracle_rebuilds", totals.get("oracle-rebuilds", 0)),
                ("ops", 1),
            ):
                counts[key] = counts.get(key, 0) + value
        return elapsed

    inputs = []
    for index in range(GRAPHS):
        edges = spec.generate(spec.num_nodes, spec.avg_degree, seed * 1000 + index)
        expected = graphs.canonical(graphs.scc_labels(spec.num_nodes, edges))
        inputs.append([Digraph(spec.num_nodes, edges), expected, None])

    # Set-ups are spread over the run, and operations cycle over the
    # graphs, so both see the same share of the host's quiet and busy
    # spells in every run.
    timeline: List[Tuple[float, float]] = []
    begin = time.perf_counter()
    for phase in range(SETUPS_PER_GRAPH):
        for index, entry in enumerate(inputs):
            graph, expected, disk = entry
            if disk is not None:
                disk.unlink()
            path = os.path.join(workdir, f"{name}-{index}-{phase}.bin")
            # Set-up: store the graph, then its first computation.
            start = time.perf_counter()
            disk = DiskGraph.from_digraph(graph, path, block_size=BLOCK_SIZE)
            one(disk, expected, counted=False)
            setups.append(time.perf_counter() - start)
            entry[2] = disk
        stop_at = begin + seconds * (phase + 1) / SETUPS_PER_GRAPH
        while True:
            for _, expected, disk in inputs:
                start = time.perf_counter()
                timeline.append((start, one(disk, expected, counted=True)))
            if time.perf_counter() >= stop_at:
                break
    for _, _, disk in inputs:
        disk.unlink()

    if missing:
        print(f"layer entry points not found: {missing}", file=sys.stderr)
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "timeline": timeline,
        "setups": setups,
        "layers": _layer_metrics(layer_busy, op_seconds, counts) if trace else {},
    }


def _layer_metrics(
    busy: Dict[str, float], op_seconds: float, counts: Dict[str, float]
) -> Dict[str, float]:
    ops = counts["ops"]
    metrics = {f"{layer}_ms": seconds * 1000.0 / ops for layer, seconds in busy.items()}
    metrics["loop_ms"] = (op_seconds - sum(busy.values())) * 1000.0 / ops
    metrics["traced_op_ms"] = op_seconds * 1000.0 / ops
    for key in ("blocks_read", "blocks_written", "scans",
                "edges_classified", "oracle_rebuilds"):
        metrics[key] = counts[key] / ops
    looked_up = counts["fast_path"] + counts["fallbacks"]
    metrics["fast_path_pct"] = (
        100.0 * counts["fast_path"] / looked_up if looked_up else 0.0
    )
    return metrics
