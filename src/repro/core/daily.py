"""Daily summarisation (Section 2.3).

For each selected date, WILSON ranks that day's sentences with TextRank over
a directed BM25 sentence graph (Barrios et al., 2016) -- "when calculating
the edge weight of one sentence to other sentences, we treat the source
sentence as query and other sentences as documents" (Appendix A). Sentences
dated the same day by multiple expressions are deduplicated by text.
"""

from __future__ import annotations

import datetime
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graph.pagerank import DEFAULT_DAMPING
from repro.obs.trace import Tracer, ensure_tracer
from repro.rank.textrank import textrank_bm25
from repro.text.analysis import TokenCache
from repro.text.bm25 import BM25Parameters
from repro.tlsdata.types import DatedSentence

#: Default byte budget for :class:`DayMatrixCache`. Entries are ranked
#: orders (8 bytes per sentence), so 4 MiB holds on the order of ten
#: thousand heavy days -- effectively every day a serving index spans.
DEFAULT_DAY_MATRIX_BYTES = 4 * 1024 * 1024


class DayMatrixCache:
    """Thread-safe LRU memoising each day's BM25-TextRank outcome.

    Under concurrent serving the same day's sentence pool recurs
    constantly -- overlapping query windows share days, and reference
    sentences pin popular dates -- yet every cache-miss query used to
    rebuild the same O(N^2) BM25 adjacency matrix and re-run PageRank
    on it. The matrix and its ranking are fully determined by the cache
    key -- BM25 numbers tokens locally per day pool, so nothing else
    the process has tokenised enters it -- and memoising just the
    ranked *order* (not the megabytes-large matrix, which a replay
    never touches) lets a hit skip both the matrix build and the
    PageRank run while returning bit-identical results. Keys cover the day, the exact sentence pool and every
    ranking parameter, plus the owning index's version so ingestion
    invalidates stale entries (:meth:`sync_version`).

    Entries are evicted least-recently-used by *byte* budget: orders
    are ~8 bytes per pooled sentence, so the default budget outlasts
    any realistic day span and eviction only guards pathological use.
    """

    def __init__(self, max_bytes: int = DEFAULT_DAY_MATRIX_BYTES) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        #: key -> ranked order (tuple of pool indices, best first).
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._bytes = 0
        self._version: Optional[int] = None

    @property
    def version(self) -> int:
        """The index revision the cached entries are keyed against.

        ``-1`` until the first :meth:`sync_version` -- callers use this
        to ask the live index which days changed since (see
        ``LiveIndex.touched_dates_since``).
        """
        with self._lock:
            return -1 if self._version is None else self._version

    def sync_version(
        self,
        version: int,
        touched_dates: Optional[Iterable[datetime.date]] = None,
    ) -> int:
        """Re-key the cache to a new index revision; returns evictions.

        Without *touched_dates* every entry is invalidated (the only
        safe default: the caller cannot say which days changed). With a
        touched-dates set -- what a sealed ingest segment reports --
        eviction is day-scoped: only entries for touched days drop,
        and every survivor is re-keyed to the new revision. A day's
        ranking is fully determined by its key (exact sentence pool +
        parameters), so an untouched day's entry stays bit-correct
        across revisions; re-keying just keeps :meth:`make_key` lookups
        landing on it.
        """
        with self._lock:
            if version == self._version:
                return 0
            if touched_dates is None or self._version is None:
                evicted = len(self._entries)
                self._entries.clear()
                self._bytes = 0
                self._version = version
                return evicted
            touched = set(touched_dates)
            survivors: "OrderedDict[tuple, tuple]" = OrderedDict()
            kept_bytes = 0
            evicted = 0
            for key, entry in self._entries.items():
                if key[1] in touched:
                    evicted += 1
                    continue
                survivors[(version,) + key[1:]] = entry
                kept_bytes += self._entry_bytes(entry)
            self._entries = survivors
            self._bytes = kept_bytes
            self._version = version
            return evicted

    def make_key(
        self,
        date: datetime.date,
        pool: Sequence[str],
        params: BM25Parameters,
        neighbor_top_k: Optional[int],
        damping: float,
    ) -> tuple:
        """Cache key: day + exact pool + ranking parameters + version."""
        with self._lock:
            version = self._version
        return (
            version,
            date,
            params.k1,
            params.b,
            neighbor_top_k,
            damping,
            tuple(pool),
        )

    @staticmethod
    def _entry_bytes(entry: tuple) -> int:
        return 8 * len(entry)

    def get(self, key: tuple) -> Optional[tuple]:
        """The cached ranked order for *key*, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: tuple, order: Sequence[int]) -> None:
        """Memoise a day's TextRank *order* (pool indices, best first)."""
        entry = tuple(order)
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= self._entry_bytes(previous)
            self._entries[key] = entry
            self._bytes += self._entry_bytes(entry)
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= self._entry_bytes(evicted)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._bytes

    def __repr__(self) -> str:
        return (
            f"DayMatrixCache(entries={len(self)}, "
            f"bytes={self.nbytes}, max_bytes={self.max_bytes})"
        )


@dataclass(eq=False)
class RankedDay:
    """One day's sentences ranked by TextRank importance.

    ``sentences`` is ordered best-first -- the "max heap" ``H_i`` of
    Algorithm 1; ``pop()`` consumes the current best.
    """

    date: datetime.date
    sentences: List[str]
    _cursor: int = field(default=0, repr=False)

    def peek(self) -> str:
        """The best not-yet-consumed sentence (raises when exhausted)."""
        if self.exhausted:
            raise IndexError(f"no sentences left for {self.date}")
        return self.sentences[self._cursor]

    def pop(self) -> str:
        """Consume and return the best remaining sentence."""
        sentence = self.peek()
        self._cursor += 1
        return sentence

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.sentences)

    def remaining(self) -> int:
        return len(self.sentences) - self._cursor


def group_by_date(
    dated_sentences: Sequence[DatedSentence],
) -> Dict[datetime.date, List[str]]:
    """Group sentence texts by their date, deduplicating within a day.

    A sentence carrying several date expressions legitimately appears under
    several dates (Appendix A), but within a single day each distinct text
    is kept once.
    """
    buckets: Dict[datetime.date, Tuple[List[str], set]] = {}
    for sentence in dated_sentences:
        entry = buckets.get(sentence.date)
        if entry is None:
            entry = buckets[sentence.date] = ([], set())
        texts, seen_texts = entry
        if sentence.text not in seen_texts:
            seen_texts.add(sentence.text)
            texts.append(sentence.text)
    return {date: texts for date, (texts, _) in buckets.items()}


@dataclass
class DailySummarizer:
    """Rank each selected day's sentence pool with BM25-TextRank."""

    damping: float = DEFAULT_DAMPING
    bm25_params: BM25Parameters = field(default_factory=BM25Parameters)
    #: Cap on sentences ranked per day; very heavy days are truncated to the
    #: first ``max_sentences_per_day`` sentences to bound the O(N^2) graph.
    max_sentences_per_day: int = 600
    #: Optional local/global blend (the paper's future-work direction):
    #: with ``query_bias > 0`` the TextRank restart distribution leans
    #: toward sentences relevant to the topic query, mixing a global
    #: relevance signal into the otherwise purely local day ranking.
    query_bias: float = 0.0
    #: Worker threads for ranking days concurrently. Daily summarisation
    #: tasks are independent -- "these sub-tasks can naturally be further
    #: accelerated through parallel processing" (Section 2.3.1) -- and
    #: the numpy-heavy inner loops release the GIL. 1 = sequential.
    workers: int = 1
    #: Optional shared :class:`~repro.text.analysis.TokenCache`. Reference
    #: sentences appear under several dates, so days share tokenisation
    #: work -- and later stages (post-processing, the date-count
    #: predictor) reuse the streams for free. Thread-safe, so the
    #: parallel path shares it too.
    cache: Optional[TokenCache] = None
    #: Per-sentence neighbour cap for the BM25 TextRank graph (see
    #: :func:`repro.rank.textrank.truncate_neighbors`). ``None`` keeps
    #: the dense graph.
    neighbor_top_k: Optional[int] = None
    #: Optional shared :class:`DayMatrixCache` memoising day rankings
    #: across queries. Bypassed when ``query_bias > 0`` (the
    #: personalised restart depends on the query, which the cache key
    #: does not cover).
    matrix_cache: Optional[DayMatrixCache] = None

    def rank_day(
        self,
        date: datetime.date,
        sentences: Sequence[str],
        query: Sequence[str] = (),
        tracer: Optional[Tracer] = None,
    ) -> RankedDay:
        """TextRank one day's sentences; returns them best-first."""
        tracer = ensure_tracer(tracer)
        pool = list(sentences)[: self.max_sentences_per_day]
        with tracer.span("daily.rank_day"):
            tracer.count("daily.sentences_ranked", len(pool))
            if len(sentences) > len(pool):
                tracer.count(
                    "daily.sentences_truncated",
                    len(sentences) - len(pool),
                )
            memoise = (
                self.matrix_cache is not None
                and self.query_bias == 0.0
                and len(pool) > 1
            )
            order = None
            if memoise:
                key = self.matrix_cache.make_key(
                    date, pool, self.bm25_params,
                    self.neighbor_top_k, self.damping,
                )
                cached = self.matrix_cache.get(key)
                if cached is not None:
                    # The adjacency and its PageRank order are fully
                    # determined by the key; replaying the cached order
                    # is bit-identical to re-ranking.
                    tracer.count("prune.day_matrix_hits", 1)
                    order = cached
                else:
                    tracer.count("prune.day_matrix_misses", 1)
            if order is None:
                order = textrank_bm25(
                    pool,
                    damping=self.damping,
                    params=self.bm25_params,
                    query=query,
                    query_bias=self.query_bias,
                    tracer=tracer,
                    cache=self.cache,
                    neighbor_top_k=self.neighbor_top_k,
                )
                if memoise:
                    self.matrix_cache.put(key, order)
        return RankedDay(date=date, sentences=[pool[i] for i in order])

    def rank_days(
        self,
        dated_sentences: Sequence[DatedSentence],
        selected_dates: Sequence[datetime.date],
        query: Sequence[str] = (),
        tracer: Optional[Tracer] = None,
    ) -> List[RankedDay]:
        """Rank every selected date's pool (dates without sentences skipped).

        Days are independent sub-tasks; with ``workers > 1`` they are
        ranked concurrently. Output order and content are identical to
        the sequential path. Tracing: a ``daily`` span wraps the stage
        with one ``daily.rank_day`` child per day in the sequential path;
        in the threaded path only the (lock-guarded) counters are
        recorded, since spans cannot nest across worker threads.
        """
        tracer = ensure_tracer(tracer)
        grouped = group_by_date(dated_sentences)
        days = [
            (date, grouped[date])
            for date in sorted(selected_dates)
            if grouped.get(date)
        ]
        with tracer.span("daily"):
            tracer.count("daily.days_ranked", len(days))
            tracer.count(
                "daily.days_skipped_empty",
                len(set(selected_dates)) - len(days),
            )
            if self.workers <= 1 or len(days) <= 1:
                return [
                    self.rank_day(date, pool, query=query, tracer=tracer)
                    for date, pool in days
                ]
            from concurrent.futures import ThreadPoolExecutor

            for _, pool in days:
                tracer.count(
                    "daily.sentences_ranked",
                    min(len(pool), self.max_sentences_per_day),
                )
            with ThreadPoolExecutor(max_workers=self.workers) as executor:
                return list(
                    executor.map(
                        lambda item: self.rank_day(
                            item[0], item[1], query=query
                        ),
                        days,
                    )
                )
