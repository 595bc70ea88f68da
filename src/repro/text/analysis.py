"""Corpus-wide text-analysis cache (the shared tokenisation layer).

Profiling the pipeline (``benchmarks/results/figure2_stage_breakdown.txt``)
showed that :func:`repro.text.tokenize.tokenize_for_matching` -- a regex
pass plus Porter stemming -- was recomputed for the *same sentence text*
independently by date selection (W4 edge weights), the per-day TextRank
summariser, post-processing, LSA embedding and the search engine. A
:class:`TokenCache` tokenises each distinct text exactly once and hands the
shared token stream to every downstream consumer; :class:`AnalyzedCorpus`
is the convenience view over a fixed sentence list.

The cache only memoises: a token stream is a pure function of its text,
so whether a text was served from the cache, seeded from a snapshot or
tokenised afresh never changes a result. Consumers that want integer ids
(BM25) number tokens locally per corpus.

The cache is long-lived by design: :class:`~repro.core.pipeline.Wilson`
owns one for its whole lifetime and the Section 5 real-time system shares
one between its search engine and its WILSON instance, so repeat query
traffic pays zero tokenisation. It is thread-safe (the parallel daily
summariser tokenises from worker threads) and purely additive -- entries
are never evicted, matching the bounded vocabulary of a news corpus.

Telemetry: the cache keeps cumulative hit/miss/time statistics
(:meth:`TokenCache.stats`); pipeline stages report *deltas* to their
tracer as the ``analysis.cache_hits`` / ``analysis.cache_misses`` /
``analysis.tokenize_seconds`` counters (see docs/observability.md), so
the per-text hot path never touches a tracer.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.text.tokenize import tokenize_for_matching


@dataclass(frozen=True)
class CacheStats:
    """Cumulative counters of one :class:`TokenCache`.

    ``hits`` / ``misses`` count :meth:`TokenCache.tokens` lookups;
    ``tokenize_seconds`` is the total monotonic time spent inside
    ``tokenize_for_matching`` on misses. Subtract two snapshots to get
    the cost attributable to one pipeline stage or run.
    """

    hits: int = 0
    misses: int = 0
    tokenize_seconds: float = 0.0

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """The change from *earlier* to this snapshot."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            tokenize_seconds=(
                self.tokenize_seconds - earlier.tokenize_seconds
            ),
        )


class TokenCache:
    """Memoised ``tokenize_for_matching``: each distinct text pays once.

    Parameters
    ----------
    stem, drop_stopwords:
        Forwarded to :func:`tokenize_for_matching`; a cache instance
        serves exactly one normalisation configuration.

    Token streams are returned as tuples so consumers can share them
    without defensive copies.
    """

    def __init__(self, stem: bool = True, drop_stopwords: bool = True) -> None:
        self.stem = stem
        self.drop_stopwords = drop_stopwords
        self._tokens: Dict[str, Tuple[str, ...]] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._tokenize_seconds = 0.0

    # -- lookups -------------------------------------------------------------

    def tokens(self, text: str) -> Tuple[str, ...]:
        """The normalised token stream of *text* (tokenised at most once)."""
        cached = self._tokens.get(text)
        if cached is not None:
            with self._lock:
                self._hits += 1
            return cached
        start = time.perf_counter()
        computed = tuple(
            tokenize_for_matching(
                text, stem=self.stem, drop_stopwords=self.drop_stopwords
            )
        )
        elapsed = time.perf_counter() - start
        with self._lock:
            cached = self._tokens.get(text)
            if cached is not None:
                # Lost a race against another worker thread; its result
                # is already canonical.
                self._hits += 1
                return cached
            self._tokens[text] = computed
            self._misses += 1
            self._tokenize_seconds += elapsed
        return computed

    def tokens_many(self, texts: Sequence[str]) -> List[Tuple[str, ...]]:
        """Token streams for every text in *texts*.

        Hits are counted under one lock acquisition for the whole batch;
        misses fall back to the per-text :meth:`tokens` slow path.
        """
        get = self._tokens.get
        streams: List[Optional[Tuple[str, ...]]] = []
        append = streams.append
        missing: List[int] = []
        hits = 0
        for text in texts:
            cached = get(text)
            append(cached)
            if cached is None:
                missing.append(len(streams) - 1)
            else:
                hits += 1
        if hits:
            with self._lock:
                self._hits += hits
        for position in missing:
            streams[position] = self.tokens(texts[position])
        return streams  # type: ignore[return-value]

    def warm(
        self,
        texts: Sequence[str],
        token_streams: Sequence[Tuple[str, ...]],
    ) -> None:
        """Seed the cache with precomputed analyzer output.

        The snapshot loader (:mod:`repro.search.snapshot`) restores
        token streams without re-tokenising. Seeding only saves time: a
        seeded stream equals the one :meth:`tokens` would compute.
        Existing entries are never overwritten; a seeded entry counts as
        neither hit nor miss.
        """
        if len(texts) != len(token_streams):
            raise ValueError(
                "texts and token_streams must be the same length"
            )
        with self._lock:
            for position, text in enumerate(texts):
                if text not in self._tokens:
                    self._tokens[text] = tuple(token_streams[position])

    # -- telemetry -----------------------------------------------------------

    def stats(self) -> CacheStats:
        """A consistent snapshot of the cumulative counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                tokenize_seconds=self._tokenize_seconds,
            )

    def report(
        self, tracer, before: CacheStats, name_prefix: str = "analysis"
    ) -> None:
        """Count the stats delta since *before* onto *tracer*.

        Emits the documented ``analysis.cache_hits`` /
        ``analysis.cache_misses`` / ``analysis.tokenize_seconds``
        counters once per call -- batched per stage, never per text, per
        the observability contract's no-op-path rule.
        """
        delta = self.stats().delta(before)
        tracer.count(f"{name_prefix}.cache_hits", delta.hits)
        tracer.count(f"{name_prefix}.cache_misses", delta.misses)
        tracer.count(
            f"{name_prefix}.tokenize_seconds", delta.tokenize_seconds
        )

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, text: str) -> bool:
        return text in self._tokens

    def clear(self) -> None:
        """Drop every cached entry."""
        with self._lock:
            self._tokens.clear()

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        """Pickle everything but the (unpicklable) lock.

        The sharded runtime (:mod:`repro.runtime.sharding`) ships whole
        :class:`~repro.core.pipeline.Wilson` instances -- cache included
        -- to worker processes; each copy gets a fresh private lock on
        unpickle, so cached entries travel but contention state does not.
        """
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return (
            f"TokenCache(entries={len(self)}, hits={self._hits}, "
            f"misses={self._misses})"
        )


def tokenize_with(
    cache: Optional[TokenCache], texts: Sequence[str]
) -> List[Sequence[str]]:
    """Tokenise *texts* through *cache* when given, directly otherwise.

    The helper every pipeline stage routes through: ``cache=None``
    reproduces the uncached behaviour exactly (one fresh
    ``tokenize_for_matching`` call per text).
    """
    if cache is not None:
        return list(cache.tokens_many(texts))
    return [tokenize_for_matching(text) for text in texts]


class AnalyzedCorpus:
    """A tokenised view over a fixed list of sentence texts.

    Bundles the sentences, their shared token streams, and a mapping
    from distinct text to its first index -- the shape the vectorised
    post-processing and ranking stages consume. With a cache the token
    streams are shared corpus-wide; without one they are computed
    locally (still once per *distinct* text).
    """

    def __init__(
        self,
        sentences: Sequence[str],
        cache: Optional[TokenCache] = None,
    ) -> None:
        self.sentences: List[str] = list(sentences)
        self.cache = cache
        self._distinct: Dict[str, int] = {}
        for text in self.sentences:
            self._distinct.setdefault(text, len(self._distinct))
        if cache is not None:
            distinct_tokens = cache.tokens_many(list(self._distinct))
        else:
            distinct_tokens = [
                tuple(tokenize_for_matching(text))
                for text in self._distinct
            ]
        self._distinct_tokens: List[Tuple[str, ...]] = list(distinct_tokens)
        self.token_lists: List[Tuple[str, ...]] = [
            self._distinct_tokens[self._distinct[text]]
            for text in self.sentences
        ]

    @property
    def num_distinct(self) -> int:
        return len(self._distinct)

    def distinct_texts(self) -> List[str]:
        """The distinct sentence texts in first-seen order."""
        return list(self._distinct)

    def distinct_token_lists(self) -> List[Tuple[str, ...]]:
        """One token stream per distinct text, aligned with
        :meth:`distinct_texts`."""
        return list(self._distinct_tokens)

    def index_of(self, text: str) -> int:
        """The distinct-row index of *text* (raises ``KeyError``)."""
        return self._distinct[text]

    def tokens_of(self, text: str) -> Tuple[str, ...]:
        """The token stream of *text* (raises ``KeyError`` when unknown)."""
        return self._distinct_tokens[self._distinct[text]]

    def __len__(self) -> int:
        return len(self.sentences)

    def __repr__(self) -> str:
        return (
            f"AnalyzedCorpus(sentences={len(self)}, "
            f"distinct={self.num_distinct})"
        )
