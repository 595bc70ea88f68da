"""The real-time timeline generation system (Section 5, Figure 7).

Pipeline: news articles -> sentence tokenisation -> temporal tagging ->
search-engine indexing; then, per user query (event keywords + duration),
fetch the relevant dated sentences and run WILSON to produce the timeline
"in seconds".
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.pipeline import Wilson, WilsonConfig
from repro.obs.metrics import Metrics
from repro.obs.trace import Span, Tracer
from repro.runtime import ShardPolicy, ShardReport, run_sharded
from repro.search.engine import SearchEngine
from repro.text.analysis import TokenCache
from repro.tlsdata.types import Article, Timeline


@dataclass(frozen=True)
class TimelineQuery:
    """One user query of a concurrent batch: keywords plus a duration."""

    keywords: Tuple[str, ...]
    start: datetime.date
    end: datetime.date
    num_dates: int = 10
    num_sentences: int = 1

    @property
    def key(self) -> str:
        """A human-readable shard key for reports and telemetry."""
        return " ".join(self.keywords) or "<empty>"


@dataclass
class TimelineResponse:
    """A generated timeline plus serving telemetry.

    ``retrieval_seconds`` / ``generation_seconds`` are derived from the
    ``realtime.retrieval`` / ``realtime.generation`` spans of the request
    trace (monotonic ``time.perf_counter`` clocks); ``trace`` carries the
    full span tree for per-stage inspection (``None`` when the caller
    explicitly passed a no-op tracer).
    """

    timeline: Timeline
    num_candidates: int
    retrieval_seconds: float
    generation_seconds: float
    trace: Optional[Span] = field(default=None, compare=False)

    @property
    def total_seconds(self) -> float:
        return self.retrieval_seconds + self.generation_seconds

    def to_dict(self) -> dict:
        """The JSON wire representation shared by the HTTP service and CLI.

        The ``timeline`` section is fully deterministic for a given index
        state (the serve-layer byte-equivalence guarantee rests on it);
        ``telemetry`` carries the per-run timings and is excluded from
        any equality or caching decision. Schema changes here are wire
        format changes -- update ``docs/serving.md`` and the stability
        test in ``tests/test_serve_app.py`` together with this method.
        """
        return {
            "timeline": self.timeline.to_dict(),
            "num_candidates": self.num_candidates,
            "telemetry": {
                "retrieval_seconds": self.retrieval_seconds,
                "generation_seconds": self.generation_seconds,
                "total_seconds": self.total_seconds,
            },
        }


class RealTimeTimelineSystem:
    """Query-to-timeline service: a search engine fronting WILSON."""

    def __init__(
        self,
        engine: Optional[SearchEngine] = None,
        wilson: Optional[Wilson] = None,
        retrieval_limit: int = 5000,
        cache: Optional[TokenCache] = None,
    ) -> None:
        self.wilson = wilson or Wilson(WilsonConfig())
        #: One :class:`~repro.text.analysis.TokenCache` shared between the
        #: search engine and the pipeline, persisting across queries:
        #: repeat or overlapping queries skip tokenisation entirely
        #: (warm-cache serving).
        self.cache: TokenCache = (
            cache if cache is not None else self.wilson.cache
        )
        self.engine = engine or SearchEngine(cache=self.cache)
        self.retrieval_limit = retrieval_limit
        #: The attached streaming write path, set by
        #: :class:`~repro.ingest.plane.IngestPlane` itself. ``None``
        #: means the engine's index accepts direct writes; once a plane
        #: wraps the index in a read-only
        #: :class:`~repro.ingest.live.LiveIndex` overlay, every write
        #: must flow through the plane's seal path.
        self.ingest_plane = None

    # -- ingestion -------------------------------------------------------------

    def ingest(self, articles: Iterable[Article]) -> int:
        """Index a batch of (possibly newly published) articles.

        With an :class:`~repro.ingest.plane.IngestPlane` attached the
        batch is sealed synchronously into a delta segment (queryable on
        return); otherwise it is added directly to the engine's index.
        Either way the count of ingested articles' indexed documents
        feeds the same ``index_version`` bump.
        """
        if self.ingest_plane is not None:
            return self.ingest_plane.ingest(list(articles))
        return self.engine.add_articles(articles)

    @property
    def index_version(self) -> int:
        """The engine's content revision; bumps on every indexed sentence."""
        return self.engine.index_version

    # -- discovery -------------------------------------------------------------

    def suggest_window(self, padding_days: int = 3):
        """Suggest a query time window from detected activity bursts.

        Returns ``(start, end)`` or ``None`` when indexed activity shows
        no bursts; a UI would use this to pre-fill the duration picker.
        """
        from repro.search.trends import suggest_query_window

        return suggest_query_window(
            self.engine.index, padding_days=padding_days
        )

    # -- serving ------------------------------------------------------------------

    def generate_timeline(
        self,
        keywords: Sequence[str],
        start: datetime.date,
        end: datetime.date,
        num_dates: int = 10,
        num_sentences: int = 1,
        tracer: Optional[Tracer] = None,
    ) -> TimelineResponse:
        """Serve one timeline query (Section 5's example workflow).

        Every request is traced: with ``tracer=None`` a private
        :class:`~repro.obs.trace.Tracer` backs the response telemetry;
        passing one instead threads the ``realtime`` spans into the
        caller's trace (see docs/observability.md).
        """
        tracer = tracer if tracer is not None else Tracer()
        matrix_cache = getattr(self.wilson, "day_matrix_cache", None)
        if matrix_cache is not None:
            # Re-key the shared day-matrix cache to the current index
            # revision so ingestion between queries invalidates stale
            # adjacency matrices (cheap no-op when nothing changed). A
            # live overlay reports exactly which content dates changed
            # since the cache's revision, so only those days are
            # evicted; anything else (or an unanswerable span) falls
            # back to the full flush. The version is captured BEFORE
            # the touched-dates query: a segment sealed between the two
            # reads then merely over-approximates the eviction set
            # (safe), whereas the reverse order would re-key entries to
            # a version whose writes were never evicted.
            version = self.engine.index_version
            touched = None
            since = getattr(
                self.engine.index, "touched_dates_since", None
            )
            if since is not None:
                touched = since(matrix_cache.version)
            matrix_cache.sync_version(version, touched_dates=touched)
        with tracer.root_span("realtime") as root:
            with tracer.span("realtime.retrieval") as retrieval:
                dated = self.engine.fetch_dated_sentences(
                    keywords,
                    start=start,
                    end=end,
                    limit=self.retrieval_limit,
                )
                tracer.count("realtime.candidates", len(dated))
            with tracer.span("realtime.generation") as generation:
                timeline = self.wilson.summarize(
                    dated,
                    num_dates=num_dates,
                    num_sentences=num_sentences,
                    query=keywords,
                    tracer=tracer,
                )
        return TimelineResponse(
            timeline=timeline,
            num_candidates=len(dated),
            retrieval_seconds=retrieval.duration_seconds,
            generation_seconds=generation.duration_seconds,
            trace=root if tracer.enabled else None,
        )

    def _serve_query(self, query: TimelineQuery) -> TimelineResponse:
        """Serve one :class:`TimelineQuery` (the per-shard task)."""
        return self.generate_timeline(
            query.keywords,
            start=query.start,
            end=query.end,
            num_dates=query.num_dates,
            num_sentences=query.num_sentences,
        )

    def generate_timelines(
        self,
        queries: Sequence[TimelineQuery],
        policy: Optional[ShardPolicy] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[Metrics] = None,
    ) -> ShardReport:
        """Serve a batch of queries concurrently against the shared index.

        Queries run through :func:`repro.runtime.run_sharded` on the
        **thread** (or inline) backend: worker threads share this
        system's read-only index and thread-safe
        :class:`~repro.text.analysis.TokenCache`, so concurrent queries
        reuse each other's tokenisation work -- the serving-side payoff
        of the shared cache. The process backend is rejected: forked
        workers would each copy the index and warm private caches,
        silently discarding exactly that benefit.

        Returns the full :class:`~repro.runtime.ShardReport`; responses
        are in query order via ``report.values()``, with ``None`` for
        queries that exhausted their retries (timeouts on the thread
        backend abandon the attempt -- the stray worker thread cannot be
        killed, its result is discarded).
        """
        policy = policy or ShardPolicy(backend="thread")
        if policy.backend == "process":
            raise ValueError(
                "generate_timelines shares one in-process index; use the "
                "'thread' (or 'inline') backend, not 'process'"
            )
        return run_sharded(
            self._serve_query,
            list(queries),
            policy,
            keys=[query.key for query in queries],
            tracer=tracer,
            metrics=metrics,
        )

    def generate_timelines_list(
        self,
        queries: Sequence[TimelineQuery],
        policy: Optional[ShardPolicy] = None,
        tracer: Optional[Tracer] = None,
    ) -> List[Optional[TimelineResponse]]:
        """Convenience wrapper: responses only, in query order."""
        return self.generate_timelines(
            queries, policy=policy, tracer=tracer
        ).values()
