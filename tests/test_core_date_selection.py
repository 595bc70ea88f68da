"""Tests for explicit date selection (Section 2.2)."""

import datetime

import numpy as np
import pytest

from repro import kernels
from repro.core import date_selection
from repro.core.date_selection import (
    DateReferenceGraph,
    DateSelector,
    EdgeWeight,
    uniformity,
)
from repro.graph.pagerank import pagerank_matrix
from repro.obs.trace import Tracer
from repro.tlsdata.types import DatedSentence
from tests.conftest import d


class TestEdgeWeightEnum:
    def test_parse_string(self):
        assert EdgeWeight.parse("w3") is EdgeWeight.W3
        assert EdgeWeight.parse("W1") is EdgeWeight.W1

    def test_parse_enum_passthrough(self):
        assert EdgeWeight.parse(EdgeWeight.W2) is EdgeWeight.W2

    def test_parse_invalid(self):
        with pytest.raises(ValueError):
            EdgeWeight.parse("W9")


class TestUniformity:
    def test_fewer_than_two_dates(self):
        assert uniformity([]) == 0.0
        assert uniformity([d("2020-01-01")]) == 0.0

    def test_evenly_spaced_is_zero(self):
        dates = [d("2020-01-01"), d("2020-01-08"), d("2020-01-15")]
        assert uniformity(dates) == 0.0

    def test_unevenly_spaced_positive(self):
        dates = [d("2020-01-01"), d("2020-01-02"), d("2020-02-01")]
        assert uniformity(dates) > 0.0

    def test_order_invariant(self):
        dates = [d("2020-01-10"), d("2020-01-01"), d("2020-02-01")]
        assert uniformity(dates) == uniformity(sorted(dates))


class TestDateReferenceGraph:
    def test_paper_example_weights(self):
        """The W1/W2/W3 example from Section 2.2 (Trump summit)."""
        pub = d("2018-06-01")
        target = d("2018-06-12")
        pool = [
            DatedSentence(target, "Trump says summit will take place on June 12.",
                          pub, "a", is_reference=True),
            DatedSentence(target, "The summit will take place on June 12.",
                          pub, "a", is_reference=True),
        ]
        graph = DateReferenceGraph(pool)
        w1 = graph.to_graph(EdgeWeight.W1)
        w2 = graph.to_graph(EdgeWeight.W2)
        w3 = graph.to_graph(EdgeWeight.W3)
        assert w1.weight(pub, target) == 2.0
        assert w2.weight(pub, target) == 11.0
        assert w3.weight(pub, target) == 22.0

    def test_w4_uses_query_bm25(self, handmade_dated_sentences):
        graph = DateReferenceGraph(
            handmade_dated_sentences, query=("ceasefire",)
        )
        w4 = graph.to_graph(EdgeWeight.W4)
        # References mentioning "ceasefire" produce positive-weight edges.
        assert w4.weight(d("2020-03-05"), d("2020-03-01")) > 0
        assert w4.weight(d("2020-03-09"), d("2020-03-01")) > 0

    def test_w4_without_query_drops_edges(self, handmade_dated_sentences):
        graph = DateReferenceGraph(handmade_dated_sentences)
        w4 = graph.to_graph(EdgeWeight.W4)
        assert w4.number_of_edges() == 0
        # But all dates are still nodes.
        assert w4.number_of_nodes() == 3

    def test_candidate_dates_sorted(self, handmade_dated_sentences):
        graph = DateReferenceGraph(handmade_dated_sentences)
        assert graph.candidate_dates == [
            d("2020-03-01"), d("2020-03-05"), d("2020-03-09"),
        ]

    def test_num_references(self, handmade_dated_sentences):
        graph = DateReferenceGraph(handmade_dated_sentences)
        # (03-05 -> 03-01), (03-09 -> 03-01), (03-09 -> 03-05)
        assert graph.num_references() == 3


class TestDateSelector:
    def test_most_referenced_date_selected(self, handmade_dated_sentences):
        selector = DateSelector(recency_adjustment=False)
        selected = selector.select(handmade_dated_sentences, num_dates=1)
        assert selected == [d("2020-03-01")]

    def test_selection_chronological(self, handmade_dated_sentences):
        selector = DateSelector(recency_adjustment=False)
        selected = selector.select(handmade_dated_sentences, num_dates=3)
        assert selected == sorted(selected)

    def test_num_dates_validation(self, handmade_dated_sentences):
        with pytest.raises(ValueError):
            DateSelector().select(handmade_dated_sentences, num_dates=0)

    def test_empty_pool(self):
        assert DateSelector().select([], num_dates=3) == []

    def test_alpha_grid_validation(self):
        with pytest.raises(ValueError):
            DateSelector(alpha_grid=[0.5, 1.5])

    def test_select_with_scores(self, handmade_dated_sentences):
        selector = DateSelector(recency_adjustment=False)
        scores = selector.select_with_scores(handmade_dated_sentences)
        assert scores[d("2020-03-01")] == max(scores.values())
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_recency_personalization_monotone(self):
        dates = [d("2020-01-01"), d("2020-01-15"), d("2020-02-01")]
        weights = DateSelector.recency_personalization(dates, alpha=0.9)
        assert (
            weights[d("2020-02-01")]
            > weights[d("2020-01-15")]
            > weights[d("2020-01-01")]
        )

    def test_recency_personalization_max_is_one(self):
        dates = [d("2020-01-01"), d("2020-06-01")]
        weights = DateSelector.recency_personalization(dates, alpha=0.5)
        assert max(weights.values()) == pytest.approx(1.0)

    def test_recency_personalization_no_overflow_long_window(self):
        dates = [d("2015-01-01"), d("2020-01-01")]
        weights = DateSelector.recency_personalization(dates, alpha=0.5)
        assert all(0.0 <= w <= 1.0 for w in weights.values())

    def test_recency_improves_uniformity_on_skewed_graph(self):
        """A graph where all references point to the earliest date."""
        pub_dates = [d("2020-01-01"), d("2020-02-01"), d("2020-03-01"),
                     d("2020-04-01"), d("2020-05-01")]
        target = d("2020-01-01")
        pool = []
        for pub in pub_dates:
            pool.append(DatedSentence(pub, "news today.", pub, "a"))
            if pub != target:
                for _ in range(3):
                    pool.append(DatedSentence(
                        target, "recalling January events.", pub, "a",
                        is_reference=True,
                    ))
        plain = DateSelector(recency_adjustment=False).select(pool, 3)
        adjusted = DateSelector(recency_adjustment=True).select(pool, 3)
        assert uniformity(adjusted) <= uniformity(plain)

    def test_tiny_instance_recall(self, tiny_pool, tiny_instance):
        """Graph selection must beat chance on the synthetic instance."""
        selector = DateSelector()
        selected = selector.select(
            tiny_pool, num_dates=tiny_instance.target_num_dates
        )
        hits = len(set(selected) & set(tiny_instance.reference.dates))
        assert hits >= len(tiny_instance.reference.dates) * 0.3


def _reference_recency(selector, graph, num_dates):
    """The alpha grid as one 1-D PageRank call per alpha."""
    adjacency, order = graph.to_adjacency()
    candidates = []
    for alpha in selector.alpha_grid:
        weights = selector.recency_personalization(order, alpha)
        vector = np.array(
            [weights.get(node, 0.0) for node in order], dtype=np.float64
        )
        scores = pagerank_matrix(
            adjacency, damping=selector.damping, personalization=vector
        )
        selection = selector._top_dates(
            {node: float(score) for node, score in zip(order, scores)},
            num_dates,
        )
        candidates.append((uniformity(selection), alpha, selection))
    best = min(candidates, key=lambda item: (item[0], -item[1]))
    return best[2], best[1]


class TestBatchedAlphaGrid:
    """The recency grid runs as one batched PageRank call."""

    @pytest.mark.parametrize("num_dates", [1, 4, 10])
    def test_matches_one_call_per_alpha(
        self, tiny_pool, golden_instances, num_dates
    ):
        pools = [tiny_pool] + [
            instance.corpus.dated_sentences()
            for instance in golden_instances.values()
        ]
        selector = DateSelector()
        for pool in pools:
            graph = selector._build_graph(pool, (), Tracer())
            assert selector._select_with_recency(
                graph, num_dates
            ) == _reference_recency(selector, graph, num_dates)

    def test_one_kernel_call_and_one_run_per_alpha(
        self, tiny_pool, monkeypatch
    ):
        calls = []
        original = kernels.pagerank_iterate

        def counting(*args):
            calls.append(args[1].shape)
            return original(*args)

        monkeypatch.setattr(kernels, "pagerank_iterate", counting)
        tracer = Tracer()
        selector = DateSelector()
        selector.select(tiny_pool, num_dates=5, tracer=tracer)
        grid = len(selector.alpha_grid)
        assert len(calls) == 1 and calls[0][0] == grid
        counters = tracer.counters
        assert counters["date_selection.pagerank_runs"] == grid
        assert counters["date_selection.pagerank_runs"] == (
            counters["date_selection.alpha_candidates"]
        )
        assert counters["date_selection.pagerank_iterations"] >= grid


class TestReferenceBM25OnlyUnderW4:
    """Only W4 reads the reference sentences' BM25 scores."""

    @staticmethod
    def _count_bm25(monkeypatch):
        built = []
        original = date_selection.BM25

        def counting(*args, **kwargs):
            built.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(date_selection, "BM25", counting)
        return built

    def test_w3_with_query_scores_nothing(self, tiny_pool, monkeypatch):
        query = ["attack", "talks"]
        without_query = DateSelector().select(tiny_pool, num_dates=5)
        built = self._count_bm25(monkeypatch)
        with_query = DateSelector().select(
            tiny_pool, num_dates=5, query=query
        )
        assert built == []
        assert with_query == without_query

    def test_w4_with_query_scores_references(self, tiny_pool, monkeypatch):
        built = self._count_bm25(monkeypatch)
        DateSelector(edge_weight="W4").select(
            tiny_pool, num_dates=5, query=["attack"]
        )
        assert built
