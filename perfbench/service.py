"""Serving workload: concurrent reachability queries against ``repro-scc serve``.

The traffic is the steady phase of ``benchmarks/bench_service.py``, the
repository's own load harness for the daemon: ``CLIENTS`` callers, each
on its own connection, send ``reach`` requests on uniformly random node
pairs, each waiting for its answer before sending the next (a closed
loop).  The graph is that harness's graph: the WEBSPAM-UK2007 SCC
profile at scale 2.5e-4 (26,474 nodes), average degree 8, generated
from one fixed seed; ``--seed`` draws the query pairs.  With four
requests in flight against the daemon's four query workers, a round trip
crosses the dispatch thread, the bounded queue and the worker pool while
the workers contend for the interpreter lock.

The daemon runs as its own process, as an operator would start it; the
clients are threads of this process, as in the harness.  One operation
is one request.  Every answer is checked against a transitive closure
computed here from SciPy's SCC labels.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from typing import Dict, List, Optional, Tuple

import numpy as np

import graphs

NUM_NODES = 26474
AVG_DEGREE = 8.0
#: One graph for every run, as in the harness.  How many DAG nodes a
#: ``reach`` traversal visits depends on the graph: across five random
#: graphs of this shape, the requests answered in a run differed
#: sixfold, which would hide any change to the daemon.
GRAPH_SEED = 0
CLIENTS = 4
SETUPS = 5
READY_TIMEOUT_S = 120.0

_SERVING = re.compile(r"^serving .+ on ([\w.\-]+):(\d+)\s*$")
_METRICS = re.compile(r"^metrics: http://([\w.\-]+):(\d+)/metrics")


class Daemon:
    """One ``repro-scc serve`` process and the two lines it announces."""

    def __init__(self, argv: List[str], env: Dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            argv, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        self.address: Optional[Tuple[str, int]] = None
        self.metrics: Optional[Tuple[str, int]] = None
        self.output: List[str] = []
        self._announced = threading.Condition()
        self._readers = [
            threading.Thread(target=self._drain, args=(stream,), daemon=True)
            for stream in (self.proc.stdout, self.proc.stderr)
        ]
        for reader in self._readers:
            reader.start()

    def _drain(self, stream) -> None:
        for line in stream:
            with self._announced:
                self.output.append(line.rstrip("\n"))
                serving = _SERVING.match(line)
                metrics = _METRICS.match(line)
                if serving:
                    self.address = (serving.group(1), int(serving.group(2)))
                if metrics:
                    self.metrics = (metrics.group(1), int(metrics.group(2)))
                self._announced.notify_all()

    def wait_announced(self, timeout: float) -> None:
        end = time.monotonic() + timeout
        with self._announced:
            while self.address is None or self.metrics is None:
                remaining = end - time.monotonic()
                if remaining <= 0 or self.proc.poll() is not None:
                    raise RuntimeError(
                        "daemon did not announce itself:\n" + "\n".join(self.output)
                    )
                self._announced.wait(min(remaining, 0.5))

    def stop(self) -> None:
        """Ask for a clean shutdown; kill if it does not come."""
        if self.proc.poll() is None:
            try:
                from repro.service import ServiceClient

                with ServiceClient(*self.address, timeout=10.0) as client:
                    client.shutdown()
            except (OSError, TypeError):  # gone, or never announced
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for reader in self._readers:
            reader.join(timeout=10)


def _wait_ready(address: Tuple[str, int], timeout: float) -> None:
    # Not repro.service.wait_until_ready: it reconnects every 50 ms,
    # which would add up to 50 ms of polling to each set-up time.
    from repro.service import ServiceClient

    end = time.monotonic() + timeout
    with ServiceClient(*address, timeout=10.0) as client:
        while not client.health().get("ready"):
            if time.monotonic() > end:
                raise RuntimeError("daemon never became ready")
            time.sleep(0.005)


def _scrape(address: Tuple[str, int]) -> Dict[str, float]:
    """Sum the daemon's exposition samples by series name."""
    url = f"http://{address[0]}:{address[1]}/metrics"
    with urllib.request.urlopen(url, timeout=10) as response:
        text = response.read().decode("utf-8")
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, value = line.rsplit(" ", 1)
        name = series.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


class Client(threading.Thread):
    """One caller: a closed loop of ``reach`` requests until ``stop_at``."""

    def __init__(self, address, seed, stop_at: float, labels, closure) -> None:
        super().__init__(daemon=True)
        self.address = address
        self.rng = np.random.default_rng(seed)
        self.stop_at = stop_at
        self.labels = labels
        self.closure = closure
        #: ``(start, latency)`` of every answered request.
        self.timeline: List[Tuple[float, float]] = []
        self.attempted = self.failed = self.wrong = 0

    def run(self) -> None:
        from repro.service import ServiceClient

        labels, closure = self.labels, self.closure
        clock = time.perf_counter
        try:
            with ServiceClient(*self.address, timeout=30.0) as client:
                while clock() < self.stop_at:
                    u, v = self.rng.integers(0, len(labels), size=2).tolist()
                    want = bool((closure[int(labels[u])] >> int(labels[v])) & 1)
                    self.attempted += 1
                    start = clock()
                    response = client.request("reach", u=u, v=v)
                    self.timeline.append((start, clock() - start))
                    if not response.get("ok"):
                        self.failed += 1
                    elif response["result"]["reachable"] != want:
                        self.wrong += 1
        except (OSError, ValueError, KeyError) as exc:
            # A broken connection or malformed answer fails the run's check.
            print(f"client failed: {exc!r}", file=sys.stderr)
            self.failed += 1


def run(seed: int, seconds: float, trace: bool, workdir: str, env: Dict[str, str]) -> dict:
    """Start the daemon ``SETUPS`` times (timed), querying each in turn."""
    from repro.graph import Digraph
    from repro.graph.storage import save_graph

    edges = graphs.webspam_like(NUM_NODES, AVG_DEGREE, GRAPH_SEED)
    labels = graphs.scc_labels(NUM_NODES, edges)
    closure, _ = graphs.reachability(NUM_NODES, edges, labels)
    path = os.path.join(workdir, "service.rgr")
    save_graph(Digraph(NUM_NODES, edges), path)

    setups: List[float] = []
    timeline: List[Tuple[float, float]] = []
    attempted = failed = wrong = 0
    scraped: Dict[str, float] = {}
    for attempt in range(SETUPS):
        argv = [
            sys.executable, "-m", "repro.cli", "serve", path,
            "--port", "0",
            "--metrics-port", "0",
            "--service-root", os.path.join(workdir, f"root-{attempt}"),
            "--no-auto-rebuild",
            "--default-deadline-ms", "10000",
            "--seed", "0",
        ]
        # Set-up: process start, imports, initial build, until ready.
        start = time.perf_counter()
        daemon = Daemon(argv, env)
        try:
            daemon.wait_announced(READY_TIMEOUT_S)
            _wait_ready(daemon.address, READY_TIMEOUT_S)
            setups.append(time.perf_counter() - start)
            stop_at = time.perf_counter() + seconds / SETUPS
            clients = [
                Client(daemon.address, (seed, attempt, index), stop_at, labels, closure)
                for index in range(CLIENTS)
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join()
                timeline += client.timeline
                attempted += client.attempted
                failed += client.failed
                wrong += client.wrong
            for name, value in _scrape(daemon.metrics).items():
                scraped[name] = scraped.get(name, 0.0) + value
        finally:
            daemon.stop()

    layers: Dict[str, float] = {}
    if trace:
        mean_ms = statistics.fmean(latency for _, latency in timeline) * 1000.0
        server_ms = (
            scraped["repro_service_request_seconds_sum"] * 1000.0
            / scraped["repro_service_request_seconds_count"]
        )
        layers = {
            "traced_op_ms": mean_ms,
            "server_ms": server_ms,
            "wire_ms": mean_ms - server_ms,
            "build_blocks": (
                scraped.get("repro_io_read_blocks_total", 0.0)
                + scraped.get("repro_io_write_blocks_total", 0.0)
            ) / SETUPS,
        }
    return {
        "correct": failed == 0 and wrong == 0,
        "attempted": attempted,
        "failed": failed,
        # The mean, not the quietest window's median: with four requests
        # in flight, round trips split into those answered at once and
        # those waiting for the interpreter lock behind another worker's
        # traversal, and the window median jumped between the two by up
        # to 50 % from run to run while the mean moved by a few per cent.
        "latency_ms": statistics.fmean(latency for _, latency in timeline) * 1000.0,
        "timeline": sorted(timeline),
        "setups": setups,
        "layers": layers,
    }
