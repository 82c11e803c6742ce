"""Seeded input graphs and independent reference answers.

The generators live here, not in ``repro.workloads``, so a change to the
program cannot change the benchmark's inputs.  They follow the shapes of
the paper's datasets (Zhang et al., SIGMOD 2013, Table 3):

* ``webspam_like`` plants one giant SCC of 64.8 % of the nodes, a second
  of 0.22 % and a tail of 2-20 node SCCs until 79.8 % of the nodes are
  covered; every other edge follows a hidden topological order, so the
  graph holds no other cycle.
* ``citation_like`` is a citation DAG (each paper cites older ones) plus
  10 % uniformly random edges, which is what gives it SCCs.

Reference answers come from SciPy's strongly-connected-components
routine, which shares no code with the program.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


def webspam_like(num_nodes: int, avg_degree: float, seed: int) -> np.ndarray:
    """Edges of a graph with the WEBSPAM-UK2007 SCC profile."""
    rng = np.random.default_rng(seed)
    sizes = [round(num_nodes * 0.648), max(4, round(num_nodes * 0.00222))]
    covered = sum(sizes)
    target = round(num_nodes * 0.798)
    while covered < target:
        size = min(int(rng.integers(2, 21)), num_nodes - covered)
        if size < 2:
            break
        sizes.append(size)
        covered += size
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes_arr)))
    perm = rng.permutation(num_nodes)

    # Component of every node: planted ones first, then singletons.
    comp_of_slot = np.concatenate((
        np.repeat(np.arange(sizes_arr.size), sizes_arr),
        np.arange(sizes_arr.size, sizes_arr.size + num_nodes - covered),
    ))
    comp = np.empty(num_nodes, dtype=np.int64)
    comp[perm] = comp_of_slot
    rank = rng.permutation(sizes_arr.size + num_nodes - covered)[comp]

    # A Hamiltonian cycle through each planted component.
    slots = np.arange(covered)
    successor = slots + 1
    successor[offsets[1:] - 1] = offsets[:-1]
    cycles = np.column_stack((perm[slots], perm[successor]))

    extra = max(0, round(avg_degree * num_nodes) - covered)
    intra_count = round(extra * 0.7)
    owner = rng.choice(sizes_arr.size, size=intra_count, p=sizes_arr / covered)
    picks = offsets[owner][:, None] + (
        rng.random((intra_count, 2)) * sizes_arr[owner][:, None]
    ).astype(np.int64)
    intra = perm[picks]
    intra = intra[intra[:, 0] != intra[:, 1]]

    cross = rng.integers(0, num_nodes, size=(int((extra - intra_count) * 1.3) + 16, 2))
    cross = cross[comp[cross[:, 0]] != comp[cross[:, 1]]][: extra - intra_count]
    forward = rank[cross[:, 0]] < rank[cross[:, 1]]
    cross = np.where(forward[:, None], cross, cross[:, ::-1])
    return np.concatenate((cycles, intra, cross)).astype(np.int64)


def citation_like(num_nodes: int, avg_degree: float, seed: int) -> np.ndarray:
    """Edges of a citation DAG plus 10 % random edges."""
    rng = np.random.default_rng(seed)
    count = round(num_nodes * avg_degree)
    sources = rng.integers(1, num_nodes, size=count)
    targets = (rng.random(count) ** 2.0 * sources).astype(np.int64)
    extra = rng.integers(0, num_nodes, size=(round(count * 0.1), 2))
    extra = extra[extra[:, 0] != extra[:, 1]]
    return np.concatenate((np.column_stack((sources, targets)), extra))


def scc_labels(num_nodes: int, edges: np.ndarray) -> np.ndarray:
    """Reference SCC label of every node."""
    matrix = csr_matrix(
        (np.ones(len(edges), dtype=np.int8), (edges[:, 0], edges[:, 1])),
        shape=(num_nodes, num_nodes),
    )
    _, labels = connected_components(matrix, directed=True, connection="strong")
    return labels.astype(np.int64)


def canonical(labels: np.ndarray) -> np.ndarray:
    """Relabel a partition by the first node of each group.

    Two labelings describe the same partition exactly when their
    canonical forms are equal.
    """
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return first[inverse]


def reachability(
    num_nodes: int, edges: np.ndarray, labels: np.ndarray
) -> Tuple[Dict[int, int], np.ndarray]:
    """Transitive closure of the condensation, as one bitset per SCC.

    Returns ``(closure, sizes)``: bit ``b`` of ``closure[a]`` is set when
    SCC ``a`` reaches SCC ``b``; ``sizes[a]`` is SCC ``a``'s node count.
    """
    count = int(labels.max()) + 1
    dag = np.unique(labels[edges], axis=0)
    dag = dag[dag[:, 0] != dag[:, 1]]
    successors = [[] for _ in range(count)]
    indegree = np.zeros(count, dtype=np.int64)
    for a, b in dag.tolist():
        successors[a].append(b)
        indegree[b] += 1
    order = []
    ready = np.flatnonzero(indegree == 0).tolist()
    while ready:
        node = ready.pop()
        order.append(node)
        for succ in successors[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    closure: Dict[int, int] = {}
    for node in reversed(order):
        bits = 1 << node
        for succ in successors[node]:
            bits |= closure[succ]
        closure[node] = bits
    return closure, np.bincount(labels, minlength=count)
