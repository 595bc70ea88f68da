"""Explicit date selection (Section 2.2).

The date reference graph has one node per candidate date (any date carrying
at least one dated sentence) and a directed edge ``date_i -> date_j``
whenever a sentence *published* on ``date_i`` *mentions* ``date_j``. Four
edge-weight schemes are supported (Table 2):

* **W1** -- the number of reference sentences ``|s_ij|``;
* **W2** -- the temporal distance ``|date_j - date_i|`` in days;
* **W3** -- ``W1 * W2`` (frequency x distance; the paper's default);
* **W4** -- ``max BM25(s_ij, q)``, the strongest topical relevance of the
  reference sentences to the query.

Salient dates are the top-T nodes by (personalized) PageRank. The **recency
adjustment** (Section 2.2.1) replaces the uniform restart distribution with
``W_i = alpha^{-|date_i - date_start|}`` and grid-searches ``alpha`` for the
selection whose consecutive-gap standard deviation -- the *uniformity* of
Definition 3 -- is smallest.
"""

from __future__ import annotations

import datetime
import enum
import math
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.graph.graphs import WeightedDigraph
from repro.graph.pagerank import DEFAULT_DAMPING, pagerank, pagerank_matrix
from repro.obs.trace import Tracer, ensure_tracer
from repro.text.analysis import TokenCache, analyze_query, tokenize_with
from repro.text.bm25 import BM25
from repro.tlsdata.types import DatedSentence


class EdgeWeight(enum.Enum):
    """Edge-weight schemes for the date reference graph (Section 2.2)."""

    W1 = "W1"
    W2 = "W2"
    W3 = "W3"
    W4 = "W4"

    @classmethod
    def parse(cls, value: "EdgeWeight | str") -> "EdgeWeight":
        """Accept either an enum member or its string name."""
        if isinstance(value, cls):
            return value
        return cls(value.upper())


#: Default alpha grid for the recency adjustment. Values close to 1 shift
#: only mildly toward recent dates; small values shift strongly. The limit
#: ``alpha = 1.0`` is the uniform restart distribution (plain PageRank), so
#: including it guarantees the grid search never yields a selection less
#: uniform than no adjustment at all.
DEFAULT_ALPHA_GRID: Tuple[float, ...] = (
    0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.93, 0.95, 0.97,
    0.98, 0.99, 0.995, 0.999, 1.0,
)

#: Default cap on date-reference-graph nodes. Every tier-1 fixture (and
#: any realistically windowed query) has far fewer candidate dates, so
#: the default changes nothing on them -- it only bounds the PageRank
#: grid search when an unwindowed query over a years-long corpus would
#: otherwise build a graph with thousands of nodes.
DEFAULT_MAX_GRAPH_DATES = 512


def uniformity(dates: Sequence[datetime.date]) -> float:
    """Uniformity of a date selection (Definition 3).

    The standard deviation of the gaps between consecutive selected dates;
    lower is more uniform. Selections with fewer than two dates are
    perfectly uniform (0.0).
    """
    if len(dates) < 2:
        return 0.0
    ordered = sorted(dates)
    gaps = np.array(
        [
            (ordered[i + 1] - ordered[i]).days
            for i in range(len(ordered) - 1)
        ],
        dtype=np.float64,
    )
    return float(gaps.std())


def uniformity_score(dates: Sequence[datetime.date]) -> float:
    """Normalised Definition-3 uniformity in ``[0, 1]``; higher is better.

    :func:`uniformity` is an *unbounded* dispersion (the raw standard
    deviation of consecutive gaps), which makes selections over different
    time spans incomparable. This score divides by the mean gap -- the
    coefficient of variation -- and maps it through ``1 / (1 + cv)``:
    perfectly even spacing scores 1.0, and the score decays toward 0 as
    the spacing grows more lopsided, independent of the span's length.
    Selections with fewer than two dates (or all dates equal, where no
    spacing exists to judge) score a perfect 1.0.
    """
    if len(dates) < 2:
        return 1.0
    ordered = sorted(dates)
    gaps = np.array(
        [
            (ordered[i + 1] - ordered[i]).days
            for i in range(len(ordered) - 1)
        ],
        dtype=np.float64,
    )
    mean_gap = float(gaps.mean())
    if mean_gap == 0.0:
        return 1.0
    coefficient_of_variation = float(gaps.std()) / mean_gap
    return 1.0 / (1.0 + coefficient_of_variation)


@dataclass
class _ReferenceAggregate:
    """Aggregated statistics of all references from one date to another."""

    count: int = 0
    gap_days: int = 0
    max_bm25: float = 0.0


class DateReferenceGraph:
    """The date reference graph plus per-edge reference statistics.

    Build once from the dated sentences, then materialise a
    :class:`WeightedDigraph` for any of the four weight schemes without
    re-scanning the corpus.
    """

    def __init__(
        self,
        dated_sentences: Sequence[DatedSentence],
        query: Sequence[str] = (),
        cache: Optional[TokenCache] = None,
    ) -> None:
        self._aggregates: Dict[
            Tuple[datetime.date, datetime.date], _ReferenceAggregate
        ] = {}
        self._dates: Dict[datetime.date, None] = {}

        references = [s for s in dated_sentences if s.is_reference]
        for sentence in dated_sentences:
            self._dates.setdefault(sentence.date, None)
            self._dates.setdefault(sentence.publication_date, None)

        bm25_scores = self._reference_bm25(references, query, cache=cache)
        for sentence, bm25_score in zip(references, bm25_scores):
            key = (sentence.publication_date, sentence.date)
            aggregate = self._aggregates.get(key)
            if aggregate is None:
                aggregate = _ReferenceAggregate(
                    gap_days=sentence.reference_gap_days
                )
                self._aggregates[key] = aggregate
            aggregate.count += 1
            if bm25_score > aggregate.max_bm25:
                aggregate.max_bm25 = bm25_score

    @staticmethod
    def _reference_bm25(
        references: Sequence[DatedSentence],
        query: Sequence[str],
        cache: Optional[TokenCache] = None,
    ) -> List[float]:
        """BM25 relevance of each reference sentence to the topic query.

        Each sentence is treated as a document (W4 in Section 2.2). Without
        a query every reference scores zero, which degrades W4 to uniform
        edge weights.
        """
        if not references or not query:
            return [0.0] * len(references)
        tokenised = tokenize_with(
            cache, [sentence.text for sentence in references]
        )
        query_tokens = analyze_query(cache, query)
        bm25 = BM25(tokenised)
        return [float(v) for v in bm25.scores(query_tokens)]

    # -- accessors -----------------------------------------------------------

    @property
    def candidate_dates(self) -> List[datetime.date]:
        """All dates observed in the corpus, sorted."""
        return sorted(self._dates)

    def num_candidate_dates(self) -> int:
        """Number of distinct candidate dates (graph nodes before pruning)."""
        return len(self._dates)

    def num_references(self) -> int:
        """Total number of aggregated (publication, mention) date pairs."""
        return len(self._aggregates)

    def mention_mass(self) -> Dict[datetime.date, int]:
        """Reference sentences incident to each candidate date.

        A date's mass is the number of reference sentences published on
        it plus the number mentioning it -- how strongly the corpus
        "talks about" the date. Dates that only appear as bare
        publication days (no references either way) have mass 0.
        """
        mass: Dict[datetime.date, int] = dict.fromkeys(self._dates, 0)
        for (source, target), aggregate in self._aggregates.items():
            mass[source] += aggregate.count
            mass[target] += aggregate.count
        return mass

    def top_dates_by_mass(
        self, max_dates: int
    ) -> FrozenSet[datetime.date]:
        """The ``max_dates`` candidate dates with the most reference mass.

        Ties break chronologically (earlier date first), so the result
        is deterministic for a fixed corpus.
        """
        mass = self.mention_mass()
        ranked = sorted(mass.items(), key=lambda kv: (-kv[1], kv[0]))
        return frozenset(date for date, _ in ranked[:max_dates])

    def to_graph(
        self,
        weight: "EdgeWeight | str",
        restrict: Optional[FrozenSet[datetime.date]] = None,
    ) -> WeightedDigraph:
        """Materialise the digraph under the chosen weight scheme.

        With *restrict*, only dates in the set become nodes and only
        edges with both endpoints kept survive -- the top-K pruning of
        the cold query path.
        """
        weight = EdgeWeight.parse(weight)
        graph = WeightedDigraph()
        for date in self._dates:
            if restrict is not None and date not in restrict:
                continue
            graph.add_node(date)
        for (source, target), aggregate in self._aggregates.items():
            if source == target:
                continue
            if restrict is not None and (
                source not in restrict or target not in restrict
            ):
                continue
            if weight is EdgeWeight.W1:
                value = float(aggregate.count)
            elif weight is EdgeWeight.W2:
                value = float(aggregate.gap_days)
            elif weight is EdgeWeight.W3:
                value = float(aggregate.count * aggregate.gap_days)
            else:
                value = aggregate.max_bm25
            if value > 0:
                graph.set_edge(source, target, value)
        return graph


@dataclass
class DateSelector:
    """Select the T most salient dates from a corpus of dated sentences.

    Parameters
    ----------
    edge_weight:
        One of W1-W4 (default W3, the paper's choice).
    recency_adjustment:
        Enable the personalized-PageRank recency adjustment with the
        uniformity-driven grid search over alpha.
    alpha_grid:
        Candidate alphas for the grid search.
    damping:
        PageRank damping factor (NetworkX default 0.85).
    max_graph_dates:
        Cap on date-reference-graph nodes: when more candidate dates
        exist, only the top ``max_graph_dates`` by
        :meth:`DateReferenceGraph.mention_mass` enter the graph before
        PageRank. ``None`` disables the cap; the default is a no-op on
        every tier-1 fixture (see :data:`DEFAULT_MAX_GRAPH_DATES`).
    """

    edge_weight: "EdgeWeight | str" = EdgeWeight.W3
    recency_adjustment: bool = True
    alpha_grid: Sequence[float] = field(default=DEFAULT_ALPHA_GRID)
    damping: float = DEFAULT_DAMPING
    max_graph_dates: Optional[int] = DEFAULT_MAX_GRAPH_DATES

    def __post_init__(self) -> None:
        self.edge_weight = EdgeWeight.parse(self.edge_weight)
        for alpha in self.alpha_grid:
            if not 0.0 < alpha <= 1.0:
                raise ValueError(
                    f"alpha grid values must lie in (0, 1], got {alpha}"
                )
        if self.max_graph_dates is not None and self.max_graph_dates < 1:
            raise ValueError(
                "max_graph_dates must be None or >= 1, got "
                f"{self.max_graph_dates}"
            )

    # -- public API ----------------------------------------------------------

    def select(
        self,
        dated_sentences: Sequence[DatedSentence],
        num_dates: int,
        query: Sequence[str] = (),
        tracer: Optional[Tracer] = None,
        cache: Optional[TokenCache] = None,
    ) -> List[datetime.date]:
        """Return the selected dates in chronological order."""
        if num_dates < 1:
            raise ValueError(f"num_dates must be >= 1, got {num_dates}")
        tracer = ensure_tracer(tracer)
        graph = self._build_graph(dated_sentences, query, tracer, cache)
        if graph.number_of_nodes() == 0:
            return []
        with tracer.span("date_selection.pagerank"):
            if self.recency_adjustment:
                dates, _alpha = self._select_with_recency(
                    graph, num_dates, tracer=tracer
                )
                return dates
            return self._top_dates(
                pagerank(
                    graph,
                    damping=self.damping,
                    tracer=tracer,
                    counter_prefix="date_selection.pagerank",
                ),
                num_dates,
            )

    def select_with_scores(
        self,
        dated_sentences: Sequence[DatedSentence],
        query: Sequence[str] = (),
        tracer: Optional[Tracer] = None,
        cache: Optional[TokenCache] = None,
    ) -> Dict[datetime.date, float]:
        """Full PageRank score map over candidate dates (no truncation)."""
        tracer = ensure_tracer(tracer)
        graph = self._build_graph(dated_sentences, query, tracer, cache)
        if graph.number_of_nodes() == 0:
            return {}
        with tracer.span("date_selection.pagerank"):
            return pagerank(
                graph,
                damping=self.damping,
                tracer=tracer,
                counter_prefix="date_selection.pagerank",
            )

    # -- internals -----------------------------------------------------------

    def _build_graph(
        self,
        dated_sentences: Sequence[DatedSentence],
        query: Sequence[str],
        tracer: Tracer,
        cache: Optional[TokenCache] = None,
    ) -> WeightedDigraph:
        """Aggregate date references and materialise the weighted digraph.

        Applies the ``max_graph_dates`` cap: with more candidate dates
        than the cap, only the top-K by mention mass enter the graph
        (``prune.graph_dates_considered`` / ``prune.graph_dates_pruned``
        count the decision either way).
        """
        with tracer.span("date_selection.build_graph"):
            # Only W4 reads the reference sentences' BM25 relevance to
            # the query; every other scheme skips scoring them.
            reference_graph = DateReferenceGraph(
                dated_sentences,
                query=query if self.edge_weight is EdgeWeight.W4 else (),
                cache=cache,
            )
            num_candidates = reference_graph.num_candidate_dates()
            restrict: Optional[FrozenSet[datetime.date]] = None
            if (
                self.max_graph_dates is not None
                and num_candidates > self.max_graph_dates
            ):
                restrict = reference_graph.top_dates_by_mass(
                    self.max_graph_dates
                )
            tracer.count("prune.graph_dates_considered", num_candidates)
            tracer.count(
                "prune.graph_dates_pruned",
                0 if restrict is None else num_candidates - len(restrict),
            )
            graph = reference_graph.to_graph(
                self.edge_weight, restrict=restrict
            )
            tracer.count(
                "date_selection.graph_nodes", graph.number_of_nodes()
            )
            tracer.count(
                "date_selection.graph_edges", graph.number_of_edges()
            )
            tracer.count(
                "date_selection.reference_pairs",
                reference_graph.num_references(),
            )
        return graph

    @staticmethod
    def _top_dates(
        scores: Dict[datetime.date, float], num_dates: int
    ) -> List[datetime.date]:
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return sorted(date for date, _ in ranked[:num_dates])

    @staticmethod
    def recency_personalization(
        dates: Iterable[datetime.date], alpha: float
    ) -> Dict[datetime.date, float]:
        """Restart distribution ``W_i = alpha^{-|date_i - date_start|}``.

        Computed in normalised form ``alpha^{d_max - d_i}`` to avoid
        overflow for long windows: since ``alpha < 1`` the most recent date
        receives weight 1 and older dates decay geometrically.
        """
        dates = list(dates)
        if not dates:
            return {}
        start = min(dates)
        offsets = {date: (date - start).days for date in dates}
        max_offset = max(offsets.values())
        log_alpha = math.log(alpha)
        return {
            date: math.exp((max_offset - offset) * log_alpha)
            for date, offset in offsets.items()
        }

    def _select_with_recency(
        self,
        graph: WeightedDigraph,
        num_dates: int,
        tracer: Optional[Tracer] = None,
    ) -> Tuple[List[datetime.date], Optional[float]]:
        """Grid-search alpha for the most uniform date selection.

        Faithful to Algorithm 1 (lines 4-9): only the alpha candidates
        compete; the plain uniform-restart selection is not a fallback.
        Ties prefer the larger alpha (the mildest adjustment).
        """
        tracer = ensure_tracer(tracer)
        candidates: List[Tuple[float, Optional[float], List[datetime.date]]]
        candidates = []
        tracer.count(
            "date_selection.alpha_candidates", len(self.alpha_grid)
        )
        # The adjacency matrix is alpha-independent: materialise it once
        # and run every grid point's restart vector in one batched
        # PageRank call, each row bit-identical to running it alone.
        adjacency, order = graph.to_adjacency()
        restarts = np.empty(
            (len(self.alpha_grid), len(order)), dtype=np.float64
        )
        for row, alpha in zip(restarts, self.alpha_grid):
            personalization = self.recency_personalization(order, alpha)
            row[:] = [personalization.get(node, 0.0) for node in order]
        score_rows = pagerank_matrix(
            adjacency,
            damping=self.damping,
            personalization=restarts,
            tracer=tracer,
            counter_prefix="date_selection.pagerank",
        )
        for alpha, score_vector in zip(self.alpha_grid, score_rows):
            scores = {
                node: float(score)
                for node, score in zip(order, score_vector)
            }
            selection = self._top_dates(scores, num_dates)
            candidates.append((uniformity(selection), alpha, selection))
        best = min(
            candidates,
            key=lambda item: (item[0], -(item[1] or 0.0)),
        )
        return best[2], best[1]
