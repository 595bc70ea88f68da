"""The WILSON pipeline (Algorithm 1).

:class:`Wilson` wires together the stages:

1. temporal tagging (or pre-tagged dated sentences),
2. explicit date selection (Section 2.2, with optional recency adjustment),
3. per-day BM25-TextRank summarisation (Section 2.3),
4. cross-date post-processing (Section 2.3.1),
5. optionally, automatic date compression to pick T (Section 3.2.3).

Usage::

    wilson = Wilson(WilsonConfig(num_dates=10, sentences_per_date=2))
    timeline = wilson.summarize_corpus(corpus)
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.compression import DateCountPredictor
from repro.core.daily import DailySummarizer, DayMatrixCache
from repro.core.date_selection import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_MAX_GRAPH_DATES,
    DateSelector,
    EdgeWeight,
)
from repro.rank.textrank import DEFAULT_TEXTRANK_NEIGHBORS
from repro.core.postprocess import (
    DEFAULT_REDUNDANCY_THRESHOLD,
    assemble_timeline,
    take_top_sentences,
)
from repro.graph.pagerank import DEFAULT_DAMPING
from repro.obs.trace import Tracer, ensure_tracer
from repro.temporal.tagger import TemporalTagger
from repro.text.analysis import TokenCache
from repro.text.compress import compress_timeline
from repro.tlsdata.types import Corpus, DatedSentence, Timeline


@dataclass
class WilsonConfig:
    """Configuration of the WILSON pipeline.

    ``num_dates=None`` triggers automatic date compression (Section 3.2.3);
    otherwise the preset T is used, matching the evaluation protocol where
    T comes from the ground-truth timeline.
    """

    num_dates: Optional[int] = None
    sentences_per_date: int = 2
    edge_weight: "EdgeWeight | str" = EdgeWeight.W3
    recency_adjustment: bool = True
    postprocess: bool = True
    redundancy_threshold: float = DEFAULT_REDUNDANCY_THRESHOLD
    damping: float = DEFAULT_DAMPING
    alpha_grid: Sequence[float] = DEFAULT_ALPHA_GRID
    #: Uniform date selection instead of the reference graph (the
    #: WILSON-uniform ablation of Table 7).
    uniform_dates: bool = False
    #: Fixed date selection (oracle experiments, Table 8); overrides both
    #: graph-based and uniform selection when set.
    fixed_dates: Optional[Sequence[datetime.date]] = None
    #: Local/global blend of the daily summariser (0.0 = the paper's
    #: purely local TextRank; >0 biases the restart distribution toward
    #: query-relevant sentences -- the future-work extension).
    query_bias: float = 0.0
    #: Deletion-based compression of the final daily summaries (the safe
    #: variant of the abstractive-TLS direction; see
    #: :mod:`repro.text.compress`). Off by default, as in the paper.
    compress_summaries: bool = False
    #: Worker threads for the per-day summarisation sub-tasks (the
    #: paper's parallel-processing remark in Section 2.3.1). 1 =
    #: sequential.
    daily_workers: int = 1
    #: Cap on date-reference-graph nodes before PageRank (top-K by
    #: mention mass; see
    #: :data:`repro.core.date_selection.DEFAULT_MAX_GRAPH_DATES`).
    #: ``None`` disables the cap. The default is exact on every tier-1
    #: fixture -- pruning only engages on corpora with more candidate
    #: dates than the cap.
    max_graph_dates: Optional[int] = DEFAULT_MAX_GRAPH_DATES
    #: Per-sentence neighbour cap for the daily BM25 TextRank graph
    #: (:func:`repro.rank.textrank.truncate_neighbors`). ``None`` keeps
    #: the dense graph; the default is a no-op on days at or below the
    #: cap.
    textrank_neighbors: Optional[int] = DEFAULT_TEXTRANK_NEIGHBORS
    #: Memoise per-day TextRank adjacency matrices across queries
    #: (:class:`repro.core.daily.DayMatrixCache`). Identical output --
    #: a cached matrix is bit-for-bit the one that would be rebuilt --
    #: so this only trades bounded memory for cache-miss latency.
    day_matrix_cache: bool = True

    def __post_init__(self) -> None:
        if self.num_dates is not None and self.num_dates < 1:
            raise ValueError(
                f"num_dates must be None or >= 1, got {self.num_dates}"
            )
        if self.sentences_per_date < 1:
            raise ValueError(
                "sentences_per_date must be >= 1, got "
                f"{self.sentences_per_date}"
            )
        if self.max_graph_dates is not None and self.max_graph_dates < 1:
            raise ValueError(
                "max_graph_dates must be None or >= 1, got "
                f"{self.max_graph_dates}"
            )
        if (
            self.textrank_neighbors is not None
            and self.textrank_neighbors < 1
        ):
            raise ValueError(
                "textrank_neighbors must be None or >= 1, got "
                f"{self.textrank_neighbors}"
            )
        self.edge_weight = EdgeWeight.parse(self.edge_weight)


class Wilson:
    """Fast, unsupervised news timeline summarisation."""

    def __init__(
        self,
        config: Optional[WilsonConfig] = None,
        cache: Optional[TokenCache] = None,
    ) -> None:
        self.config = config or WilsonConfig()
        #: The shared analysis cache. Long-lived: repeated ``summarize``
        #: calls (e.g. the real-time query loop) reuse tokenisation
        #: across runs. Callers may pass their own cache to share it
        #: beyond this pipeline instance.
        self.cache: TokenCache = cache if cache is not None else TokenCache()
        self._selector = DateSelector(
            edge_weight=self.config.edge_weight,
            recency_adjustment=self.config.recency_adjustment,
            alpha_grid=self.config.alpha_grid,
            damping=self.config.damping,
            max_graph_dates=self.config.max_graph_dates,
        )
        #: Shared per-day adjacency memoisation, or ``None`` when
        #: disabled. The real-time system re-keys it to the search
        #: index's version before each query (see
        #: :meth:`repro.search.realtime.RealTimeTimelineSystem.generate_timeline`).
        self.day_matrix_cache: Optional[DayMatrixCache] = (
            DayMatrixCache() if self.config.day_matrix_cache else None
        )
        self._summarizer = DailySummarizer(
            damping=self.config.damping,
            query_bias=self.config.query_bias,
            workers=self.config.daily_workers,
            cache=self.cache,
            neighbor_top_k=self.config.textrank_neighbors,
            matrix_cache=self.day_matrix_cache,
        )
        self._predictor = DateCountPredictor(
            summarizer=self._summarizer, cache=self.cache
        )

    # -- date selection --------------------------------------------------------

    def select_dates(
        self,
        dated_sentences: Sequence[DatedSentence],
        num_dates: Optional[int] = None,
        query: Sequence[str] = (),
        tracer: Optional[Tracer] = None,
    ) -> List[datetime.date]:
        """Stage 1: choose the timeline's dates.

        With a tracer, the work lands in a ``date_selection`` span --
        preceded by a ``compression.predict`` span when T has to be
        predicted (``num_dates=None``, Section 3.2.3).
        """
        tracer = ensure_tracer(tracer)
        config = self.config
        if config.fixed_dates is not None:
            with tracer.span("date_selection"):
                selected = sorted(config.fixed_dates)
                tracer.count("date_selection.selected_dates", len(selected))
            return selected
        if num_dates is None:
            num_dates = config.num_dates
        if num_dates is None:
            num_dates = max(
                1, self._predictor.predict(dated_sentences, tracer=tracer)
            )
        with tracer.span("date_selection"):
            if config.uniform_dates:
                selected = self._uniform_dates(dated_sentences, num_dates)
            else:
                selected = self._selector.select(
                    dated_sentences,
                    num_dates,
                    query=query,
                    tracer=tracer,
                    cache=self.cache,
                )
            tracer.count("date_selection.selected_dates", len(selected))
        return selected

    @staticmethod
    def _uniform_dates(
        dated_sentences: Sequence[DatedSentence], num_dates: int
    ) -> List[datetime.date]:
        """Truly uniformly distributed dates over the observed window.

        Evenly spaced target days are snapped to the nearest candidate date
        carrying sentences, without reuse.
        """
        candidates = sorted({s.date for s in dated_sentences})
        if not candidates:
            return []
        if len(candidates) <= num_dates:
            return candidates
        start, end = candidates[0], candidates[-1]
        span = (end - start).days
        chosen: List[datetime.date] = []
        used = set()
        for i in range(num_dates):
            target = start + datetime.timedelta(
                days=round(i * span / max(1, num_dates - 1))
            )
            nearest = min(
                (c for c in candidates if c not in used),
                key=lambda c: (abs((c - target).days), c),
            )
            used.add(nearest)
            chosen.append(nearest)
        return sorted(chosen)

    # -- full pipeline ----------------------------------------------------------

    def summarize(
        self,
        dated_sentences: Sequence[DatedSentence],
        num_dates: Optional[int] = None,
        num_sentences: Optional[int] = None,
        query: Sequence[str] = (),
        tracer: Optional[Tracer] = None,
    ) -> Timeline:
        """Generate a timeline from pre-tagged dated sentences.

        Passing a :class:`~repro.obs.trace.Tracer` records the per-stage
        spans documented in ``docs/observability.md`` (``pipeline`` root
        with ``date_selection`` / ``daily`` / ``postprocess`` / ...
        children); without one the run is untraced at no cost.
        """
        tracer = ensure_tracer(tracer)
        if not dated_sentences:
            return Timeline()
        config = self.config
        if num_sentences is None:
            num_sentences = config.sentences_per_date
        cache_before = self.cache.stats()
        with tracer.root_span("pipeline"):
            tracer.count("pipeline.input_sentences", len(dated_sentences))
            selected = self.select_dates(
                dated_sentences,
                num_dates=num_dates,
                query=query,
                tracer=tracer,
            )
            if not selected:
                return Timeline()
            ranked_days = self._summarizer.rank_days(
                dated_sentences, selected, query=query, tracer=tracer
            )
            with tracer.span("postprocess"):
                if config.postprocess:
                    timeline = assemble_timeline(
                        ranked_days,
                        num_sentences,
                        redundancy_threshold=config.redundancy_threshold,
                        tracer=tracer,
                        cache=self.cache,
                    )
                else:
                    timeline = take_top_sentences(
                        ranked_days, num_sentences
                    )
                tracer.count(
                    "postprocess.timeline_sentences",
                    sum(len(sentences) for _, sentences in timeline),
                )
            if config.compress_summaries:
                with tracer.span("compression.summaries"):
                    timeline = compress_timeline(timeline)
                    tracer.count(
                        "compression.sentences_compressed",
                        sum(len(sentences) for _, sentences in timeline),
                    )
            # One batched delta per run -- the cache outlives the
            # pipeline call, so only this run's hits/misses count.
            self.cache.report(tracer, cache_before)
        return timeline

    def summarize_corpus(
        self,
        corpus: Corpus,
        num_dates: Optional[int] = None,
        num_sentences: Optional[int] = None,
        tagger: Optional[TemporalTagger] = None,
        tracer: Optional[Tracer] = None,
    ) -> Timeline:
        """Tokenise + tag *corpus*, then generate its timeline."""
        tracer = ensure_tracer(tracer)
        with tracer.root_span("pipeline"):
            with tracer.span("tagging"):
                dated = corpus.dated_sentences(tagger=tagger)
                tracer.count("tagging.dated_sentences", len(dated))
            return self.summarize(
                dated,
                num_dates=num_dates,
                num_sentences=num_sentences,
                query=corpus.query,
                tracer=tracer,
            )
