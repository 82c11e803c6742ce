"""Kosaraju-Sharir SCC algorithm (iterative, two DFS passes).

This is the in-memory algorithm the paper's DFS-SCC baseline
semi-externalizes, and the one Algorithm 8 (1PB-SCC) runs on each
in-memory batch.  Implemented from scratch with explicit stacks.

Both passes run on Python lists: the CSR arrays are converted once with
``.tolist()``, because every element read from a numpy array boxes a
fresh scalar object, which costs several times a list read in a loop
that touches each edge (see "CPU cost model" in ``docs/algorithms.md``).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.digraph import Digraph


def _finish_order(indptr: List[int], indices: List[int]) -> List[int]:
    """Nodes in increasing DFS finish time (the first pass).

    Roots are tried in id order and successors in CSR order; the stack
    holds ``(node, cursor)`` pairs, ``cursor`` being the index into
    ``indices`` of the next successor to try.
    """
    n = len(indptr) - 1
    visited = [False] * n
    order: List[int] = []
    finish = order.append
    stack: List[Tuple[int, int]] = []
    push = stack.append
    pop = stack.pop
    for root in range(n):
        if visited[root]:
            continue
        visited[root] = True
        push((root, indptr[root]))
        while stack:
            v, cursor = pop()
            end = indptr[v + 1]
            while cursor < end:
                w = indices[cursor]
                cursor += 1
                if not visited[w]:
                    visited[w] = True
                    push((v, cursor))
                    push((w, indptr[w]))
                    break
            else:
                finish(v)
    return order


def kosaraju_scc(graph: Digraph) -> Tuple[np.ndarray, int]:
    """Compute SCC labels via Kosaraju-Sharir.

    Returns ``(labels, num_sccs)`` with labels in ``0 .. num_sccs - 1``.
    Labels are assigned in decreasing finish order of the first DFS,
    which is a *topological* order of the condensation (the reverse of
    Tarjan's labelling convention).
    """
    order = _finish_order(graph.indptr.tolist(), graph.indices.tolist())
    reverse = graph.reverse()
    indptr = reverse.indptr.tolist()
    indices = reverse.indices.tolist()

    labels = [-1] * graph.num_nodes
    scc_count = 0
    stack: List[int] = []
    push = stack.append
    pop = stack.pop
    for v in reversed(order):
        if labels[v] != -1:
            continue
        labels[v] = scc_count
        push(v)
        while stack:
            u = pop()
            for w in indices[indptr[u] : indptr[u + 1]]:
                if labels[w] == -1:
                    labels[w] = scc_count
                    push(w)
        scc_count += 1
    return np.array(labels, dtype=np.int64), scc_count
