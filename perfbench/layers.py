"""Exclusive busy time per program layer, measured from outside.

The program's own tracer records scan spans and counts, but not where
time goes inside a scan.  :class:`LayerClock` wraps each layer's entry
points (listed in :data:`ENTRY_POINTS`) for the duration of a traced
run and charges every call's wall time to its layer, minus the time of
wrapped calls nested inside it, so the layers' totals never overlap.
Whatever an operation spends outside every wrapped call is the
algorithm's own scan loop in ``repro.core``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Tuple

#: The ScanKernels interface: one method per scan-loop shape.
_KERNEL_METHODS = (
    "one_phase_scan", "construction_scan", "search_scan",
    "dfs_scan", "absorb_members", "compact_pairs",
)

#: Layer name -> ``module:attribute`` entry points.  Chosen at the batch
#: or block granularity, so wrapping adds a few calls per block, never
#: one per edge.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "read": ("repro.io.blocks:BlockDevice.read_block",),
    "write": (
        "repro.io.blocks:BlockDevice.append_block",
        "repro.io.blocks:BlockDevice.write_block",
        "repro.io.atomic:replace_file",
    ),
    "kernel": tuple(
        f"repro.kernels.{module}:{cls}.{method}"
        for module, cls in (("vector", "VectorKernels"), ("scalar", "ScalarKernels"))
        for method in _KERNEL_METHODS
    ),
    "oracle": ("repro.kernels.oracle:AncestorOracle.refresh",),
    "tree": (
        "repro.spanning.brtree:BRPlusTree.update_drank",
        "repro.spanning.tree:ContractibleTree.find_many",
        "repro.spanning.unionfind:DisjointSet.find_many",
        "repro.spanning.unionfind:DisjointSet.union_many_into",
    ),
    "inmemory": (
        "repro.inmemory.kosaraju:kosaraju_scc",
        "repro.inmemory.tarjan:tarjan_scc",
    ),
}


class LayerClock:
    """Install with ``with clock:``; read :attr:`busy` afterwards."""

    def __init__(self) -> None:
        #: Layer name -> exclusive seconds.
        self.busy: Dict[str, float] = {layer: 0.0 for layer in ENTRY_POINTS}
        #: Entry points that no longer exist in the program.
        self.missing: List[str] = []
        self._nested: List[float] = []
        self._undo: List[Callable[[], None]] = []

    def _timed(self, layer: str, fn: Callable) -> Callable:
        nested = self._nested
        busy = self.busy
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            nested.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                busy[layer] += elapsed - nested.pop()
                if nested:
                    nested[-1] += elapsed

        return timed

    def _patch_method(self, layer: str, module, path: str) -> None:
        owner_name, method = path.rsplit(".", 1)
        owner = getattr(module, owner_name)
        had_own = method in owner.__dict__
        original = owner.__dict__.get(method)
        setattr(owner, method, self._timed(layer, getattr(owner, method)))
        if had_own:
            self._undo.append(lambda: setattr(owner, method, original))
        else:
            self._undo.append(lambda: delattr(owner, method))

    def _patch_function(self, layer: str, original: Callable) -> None:
        # Modules bind imported functions by name, so every module
        # holding the same object gets the wrapper.
        wrapped = self._timed(layer, original)
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, original)
                    )

    def __enter__(self) -> "LayerClock":
        for layer, targets in ENTRY_POINTS.items():
            for target in targets:
                module_name, path = target.split(":")
                try:
                    module = importlib.import_module(module_name)
                    if "." in path:
                        self._patch_method(layer, module, path)
                    else:
                        self._patch_function(layer, getattr(module, path))
                except (ImportError, AttributeError):
                    self.missing.append(target)
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._undo:
            self._undo.pop()()
