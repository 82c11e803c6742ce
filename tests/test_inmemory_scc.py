"""Tests for the three in-memory SCC algorithms (Tarjan/Kosaraju/Gabow).

The three implementations rest on different invariants; their agreement
on random graphs is the foundation the rest of the test suite builds on.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.core.validate import partitions_equal
from repro.graph.digraph import Digraph
from repro.inmemory.kosaraju import kosaraju_scc
from repro.inmemory.pathbased import gabow_scc
from repro.inmemory.tarjan import tarjan_scc

from tests.conftest import FIGURE1_SCCS, labels_to_sets, random_digraphs

ALGORITHMS = [tarjan_scc, kosaraju_scc, gabow_scc]


@pytest.mark.parametrize("scc", ALGORITHMS)
class TestKnownGraphs:
    def test_empty(self, scc):
        labels, count = scc(Digraph(0))
        assert count == 0 and labels.shape == (0,)

    def test_single_node(self, scc):
        labels, count = scc(Digraph(1))
        assert count == 1 and labels[0] == 0

    def test_self_loop_is_singleton_scc(self, scc):
        labels, count = scc(Digraph(1, np.array([[0, 0]])))
        assert count == 1

    def test_two_cycle(self, scc):
        labels, count = scc(Digraph(2, np.array([[0, 1], [1, 0]])))
        assert count == 1
        assert labels[0] == labels[1]

    def test_chain_is_all_singletons(self, scc):
        g = Digraph(5, np.array([[i, i + 1] for i in range(4)]))
        labels, count = scc(g)
        assert count == 5
        assert len(set(labels.tolist())) == 5

    def test_figure1(self, scc, figure1_graph):
        labels, count = scc(figure1_graph)
        assert count == 6
        assert labels_to_sets(labels) == set(FIGURE1_SCCS)

    def test_two_cycles_bridged(self, scc):
        # 0<->1 -> 2<->3 : two SCCs, a bridge between them.
        g = Digraph(4, np.array([[0, 1], [1, 0], [1, 2], [2, 3], [3, 2]]))
        labels, count = scc(g)
        assert count == 2
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_parallel_edges_ignored(self, scc):
        g = Digraph(2, np.array([[0, 1], [0, 1], [0, 1]]))
        labels, count = scc(g)
        assert count == 2

    def test_long_cycle(self, scc):
        n = 500  # exercises the iterative (non-recursive) DFS stacks
        edges = np.array([[i, (i + 1) % n] for i in range(n)])
        labels, count = scc(Digraph(n, edges))
        assert count == 1


class TestLabelOrderConventions:
    def test_tarjan_labels_reverse_topological(self):
        g = Digraph(3, np.array([[0, 1], [1, 2]]))
        labels, _ = tarjan_scc(g)
        # Downstream SCCs complete first: label(2) < label(1) < label(0).
        assert labels[2] < labels[1] < labels[0]

    def test_kosaraju_labels_topological(self):
        g = Digraph(3, np.array([[0, 1], [1, 2]]))
        labels, _ = kosaraju_scc(g)
        assert labels[0] < labels[1] < labels[2]

    def test_kosaraju_topological_property_random(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            g = Digraph(n, rng.integers(0, n, size=(3 * n, 2)))
            labels, _ = kosaraju_scc(g)
            # Every edge goes from a lower (or equal) label to a higher.
            mapped = labels[g.edges.astype(np.int64)]
            assert (mapped[:, 0] <= mapped[:, 1]).all()


def reference_kosaraju(graph):
    """Textbook recursive Kosaraju, the label contract spelled out.

    Roots in id order, successors in CSR order, and SCC labels handed
    out in decreasing finish order of the first pass.  Recursion limits
    it to small graphs.
    """
    n = graph.num_nodes
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    successors = [indices[indptr[v] : indptr[v + 1]] for v in range(n)]
    predecessors = [[] for _ in range(n)]
    for v in range(n):
        for w in successors[v]:
            predecessors[w].append(v)

    visited = [False] * n
    finished = []

    def visit(v):
        visited[v] = True
        for w in successors[v]:
            if not visited[w]:
                visit(w)
        finished.append(v)

    for v in range(n):
        if not visited[v]:
            visit(v)

    labels = np.full(n, -1, dtype=np.int64)

    def assign(v, label):
        labels[v] = label
        for u in predecessors[v]:
            if labels[u] == -1:
                assign(u, label)

    count = 0
    for v in reversed(finished):
        if labels[v] == -1:
            assign(v, count)
            count += 1
    return labels, count


class TestKosarajuExactLabels:
    """The labels themselves are a contract, not just the partition.

    1PB-SCC rebuilds its tree by a DP sweep in label order and EM-SCC
    groups members by label, so a relabelling could change counted I/O.
    """

    @settings(max_examples=150, deadline=None)
    @given(graph=random_digraphs())
    @example(graph=Digraph(0))
    @example(graph=Digraph(1))
    @example(graph=Digraph(1, np.array([[0, 0]])))
    @example(graph=Digraph(4, np.array([[0, 1], [0, 1], [1, 0], [2, 2]])))
    def test_matches_recursive_reference(self, graph):
        labels, count = kosaraju_scc(graph)
        expected, expected_count = reference_kosaraju(graph)
        assert count == expected_count
        assert labels.dtype == np.int64
        assert np.array_equal(labels, expected)

    def test_long_path_stays_iterative(self):
        n = 50_000
        edges = np.column_stack((np.arange(n - 1), np.arange(1, n)))
        labels, count = kosaraju_scc(Digraph(n, edges))
        assert count == n
        assert np.array_equal(labels, np.arange(n))

    def test_long_cycle_stays_iterative(self):
        n = 50_000
        edges = np.column_stack((np.arange(n), (np.arange(n) + 1) % n))
        labels, count = kosaraju_scc(Digraph(n, edges))
        assert count == 1
        assert not labels.any()


class TestCrossAgreement:
    @settings(max_examples=80, deadline=None)
    @given(graph=random_digraphs())
    def test_all_three_agree(self, graph):
        tarjan_labels, tarjan_count = tarjan_scc(graph)
        kosaraju_labels, kosaraju_count = kosaraju_scc(graph)
        gabow_labels, gabow_count = gabow_scc(graph)
        assert tarjan_count == kosaraju_count == gabow_count
        assert partitions_equal(tarjan_labels, kosaraju_labels)
        assert partitions_equal(tarjan_labels, gabow_labels)

    @settings(max_examples=40, deadline=None)
    @given(graph=random_digraphs())
    def test_scc_counts_bounded(self, graph):
        labels, count = tarjan_scc(graph)
        assert 1 <= count <= graph.num_nodes
        assert labels.min() == 0 and labels.max() == count - 1
