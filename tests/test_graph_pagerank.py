"""Tests for PageRank, validated against NetworkX."""

import networkx as nx
import numpy as np
import pytest

from repro.graph.graphs import WeightedDigraph
from repro.graph.pagerank import (
    pagerank,
    pagerank_matrix,
    personalized_pagerank,
)
from repro.obs.trace import Tracer


def _random_adjacency(seed: int, n: int = 12) -> np.ndarray:
    rng = np.random.default_rng(seed)
    matrix = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    np.fill_diagonal(matrix, 0.0)
    return matrix


def _networkx_scores(matrix, personalization=None):
    graph = nx.DiGraph()
    n = matrix.shape[0]
    graph.add_nodes_from(range(n))
    for i in range(n):
        for j in range(n):
            if matrix[i, j] > 0:
                graph.add_edge(i, j, weight=matrix[i, j])
    pers = None
    if personalization is not None:
        pers = {i: personalization[i] for i in range(n)}
    scores = nx.pagerank(
        graph, alpha=0.85, personalization=pers, weight="weight",
        max_iter=200, tol=1e-12,
    )
    return np.array([scores[i] for i in range(n)])


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_uniform_matches_networkx(self, seed):
        matrix = _random_adjacency(seed)
        ours = pagerank_matrix(matrix)
        theirs = _networkx_scores(matrix)
        assert np.allclose(ours, theirs, atol=1e-8)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_personalized_matches_networkx(self, seed):
        matrix = _random_adjacency(seed)
        rng = np.random.default_rng(seed + 100)
        personalization = rng.random(matrix.shape[0]) + 0.01
        ours = pagerank_matrix(matrix, personalization=personalization)
        theirs = _networkx_scores(matrix, personalization)
        assert np.allclose(ours, theirs, atol=1e-8)

    def test_with_dangling_nodes(self):
        matrix = np.zeros((4, 4))
        matrix[0, 1] = 1.0
        matrix[1, 2] = 1.0  # node 2 and 3 dangle
        ours = pagerank_matrix(matrix)
        theirs = _networkx_scores(matrix)
        assert np.allclose(ours, theirs, atol=1e-8)


class TestInvariants:
    def test_scores_sum_to_one(self):
        matrix = _random_adjacency(7)
        assert pagerank_matrix(matrix).sum() == pytest.approx(1.0)

    def test_scores_non_negative(self):
        assert (pagerank_matrix(_random_adjacency(8)) >= 0).all()

    def test_empty_graph(self):
        assert pagerank_matrix(np.zeros((0, 0))).shape == (0,)

    def test_single_node(self):
        assert pagerank_matrix(np.zeros((1, 1)))[0] == pytest.approx(1.0)

    def test_symmetric_star_center_wins(self):
        # Star: all leaves point to the hub.
        matrix = np.zeros((5, 5))
        matrix[1:, 0] = 1.0
        scores = pagerank_matrix(matrix)
        assert scores[0] == max(scores)

    def test_personalization_shifts_mass(self):
        matrix = np.zeros((3, 3))  # no edges: restart dominates
        personalization = np.array([0.0, 0.0, 1.0])
        scores = pagerank_matrix(matrix, personalization=personalization)
        assert scores[2] == pytest.approx(1.0)


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            pagerank_matrix(np.zeros((2, 3)))

    def test_rejects_negative_weights(self):
        matrix = np.zeros((2, 2))
        matrix[0, 1] = -1.0
        with pytest.raises(ValueError):
            pagerank_matrix(matrix)

    def test_rejects_bad_damping(self):
        with pytest.raises(ValueError):
            pagerank_matrix(np.zeros((2, 2)), damping=1.5)

    def test_rejects_zero_personalization(self):
        with pytest.raises(ValueError):
            pagerank_matrix(
                np.zeros((2, 2)), personalization=np.zeros(2)
            )

    def test_rejects_negative_personalization(self):
        with pytest.raises(ValueError):
            pagerank_matrix(
                np.zeros((2, 2)),
                personalization=np.array([1.0, -0.5]),
            )

    def test_rejects_wrong_shape_personalization(self):
        with pytest.raises(ValueError):
            pagerank_matrix(
                np.zeros((2, 2)), personalization=np.ones(3)
            )


class TestPersonalizationBlock:
    """A ``(K, n)`` personalization is K restart vectors in one call."""

    def test_rows_match_one_call_per_row(self):
        matrix = _random_adjacency(4)
        rng = np.random.default_rng(4)
        block = rng.random((5, 12)) * 3.0  # rows normalised separately
        block[1, :6] = 0.0
        rows = pagerank_matrix(matrix, personalization=block)
        assert rows.shape == (5, 12)
        for row, vector in zip(rows, block):
            assert np.array_equal(
                row, pagerank_matrix(matrix, personalization=vector)
            )

    def test_counts_one_run_per_row(self):
        matrix = _random_adjacency(6)
        block = np.random.default_rng(6).random((4, 12))
        batched, single = Tracer(), Tracer()
        pagerank_matrix(
            matrix, personalization=block, tracer=batched,
            counter_prefix="p",
        )
        for vector in block:
            pagerank_matrix(
                matrix, personalization=vector, tracer=single,
                counter_prefix="p",
            )
        assert batched.counters["p_runs"] == 4
        assert batched.counters == single.counters

    def test_rejects_wrong_trailing_size(self):
        with pytest.raises(ValueError):
            pagerank_matrix(
                np.ones((3, 3)), personalization=np.ones((2, 4))
            )

    def test_rejects_negative_entry(self):
        block = np.ones((2, 3))
        block[1, 2] = -0.1
        with pytest.raises(ValueError):
            pagerank_matrix(np.ones((3, 3)), personalization=block)

    def test_rejects_one_zero_sum_row(self):
        block = np.ones((3, 3))
        block[1] = 0.0
        with pytest.raises(ValueError):
            pagerank_matrix(np.ones((3, 3)), personalization=block)

    def test_rejects_more_than_two_dimensions(self):
        with pytest.raises(ValueError):
            pagerank_matrix(
                np.ones((3, 3)), personalization=np.ones((2, 2, 3))
            )

    def test_empty_graph_keeps_the_block_shape(self):
        assert pagerank_matrix(
            np.zeros((0, 0)), personalization=np.ones((3, 0))
        ).shape == (3, 0)


class TestGraphInterface:
    def test_pagerank_on_digraph(self):
        graph = WeightedDigraph()
        graph.add_edge("a", "hub", 1.0)
        graph.add_edge("b", "hub", 1.0)
        graph.add_edge("c", "hub", 1.0)
        scores = pagerank(graph)
        assert scores["hub"] == max(scores.values())
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_personalized_wrapper(self):
        graph = WeightedDigraph()
        graph.add_node("a")
        graph.add_node("b")
        scores = personalized_pagerank(graph, {"a": 1.0, "b": 0.0})
        assert scores["a"] > scores["b"]

    def test_missing_personalization_keys_default_zero(self):
        graph = WeightedDigraph()
        graph.add_node("a")
        graph.add_node("b")
        scores = pagerank(graph, personalization={"a": 1.0})
        assert scores["a"] > scores["b"]
