"""The versioned LRU+TTL result cache of the serving tier.

Timeline generation is deterministic for a fixed index state, so a
served result can be reused verbatim until either (a) it ages past its
TTL or (b) the index changes. The second condition is exact, not
heuristic: cache keys embed the engine's monotonic ``index_version``
(bumped on every indexed sentence, see
:attr:`repro.search.index.InvertedIndex.index_version`), so an
incremental ``add_article`` silently strands every entry minted against
the older index -- no flush call, no stale reads.

Thread-safe: the HTTP layer runs on one event loop, but benchmarks and
the micro-batcher's executor threads may touch the cache concurrently.
"""

from __future__ import annotations

import datetime
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional, Sequence, Tuple


def normalize_keywords(keywords: Sequence[str]) -> Tuple[str, ...]:
    """Collapse a raw keyword list into its cache-equivalent form.

    Whitespace runs are collapsed, casing is folded (BM25 tokenisation
    lower-cases anyway) and empty keywords are dropped. Order is
    **kept**: phrase queries are order-sensitive, so reordering two
    queries onto one key would be wrong there.
    """
    return tuple(
        " ".join(keyword.split()).casefold()
        for keyword in keywords
        if keyword.strip()
    )


def make_cache_key(
    keywords: Sequence[str],
    start: Optional[datetime.date],
    end: Optional[datetime.date],
    num_dates: int,
    num_sentences: int,
    version: Hashable,
) -> Tuple[Hashable, ...]:
    """The full result-cache key for one timeline request.

    Every parameter that can change the served bytes participates; the
    trailing *version* is what invalidates across writes. The
    single-index server passes its ``index_version`` (an int); the
    router passes its per-shard version vector (a tuple in shard order),
    so a write on any single shard strands exactly the merged entries
    that depended on it.
    """
    return (
        normalize_keywords(keywords),
        start.isoformat() if start is not None else "",
        end.isoformat() if end is not None else "",
        int(num_dates),
        int(num_sentences),
        version,
    )


def window_intersects(
    start_iso: str,
    end_iso: str,
    touched_dates: Sequence[Any],
) -> bool:
    """Whether the window ``[start_iso, end_iso]`` covers any touched date.

    The predicate behind precise ingest invalidation: a sealed segment
    reports the content dates it touched, and only cached timelines
    whose request window intersects that set are stale. Dates are
    compared as ISO-8601 strings (lexicographic == chronological);
    an empty bound means "unbounded" on that side. *touched_dates*
    accepts :class:`datetime.date` objects or ISO strings.
    """
    for date in touched_dates:
        iso = date.isoformat() if hasattr(date, "isoformat") else str(date)
        if (not start_iso or start_iso <= iso) and (
            not end_iso or iso <= end_iso
        ):
            return True
    return False


class ResultCache:
    """A thread-safe LRU cache with per-entry TTL expiry.

    ``capacity`` bounds the number of live entries (least recently *used*
    is evicted first; a ``get`` hit refreshes recency). ``ttl_seconds``
    bounds entry age from insertion time; expired entries are never
    returned and are dropped lazily on access plus wholesale on ``put``
    overflow. ``clock`` is injectable for deterministic tests and must be
    monotonic (defaults to :func:`time.monotonic`).
    """

    def __init__(
        self,
        capacity: int = 256,
        ttl_seconds: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be > 0, got {ttl_seconds}")
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._entries: "OrderedDict[Hashable, Tuple[float, Any]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0
        self._invalidations = 0
        self._generation = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, or ``None`` on miss/expiry (refreshes LRU)."""
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            inserted_at, value = entry
            if now - inserted_at >= self.ttl_seconds:
                del self._entries[key]
                self._expirations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    @property
    def generation(self) -> int:
        """Bumped by every invalidation sweep (see :meth:`put`)."""
        with self._lock:
            return self._generation

    def put(
        self,
        key: Hashable,
        value: Any,
        generation: Optional[int] = None,
    ) -> bool:
        """Insert/overwrite *key*; evicts LRU entries past capacity.

        With *generation* (a value previously read from
        :attr:`generation`) the insert is conditional: if any
        invalidation sweep ran in between, the entry is discarded and
        ``False`` returned. The check happens under the cache lock, so
        there is no window for a sweep to run between the check and the
        insert -- callers use it to avoid caching a result that a
        concurrent ingest seal computed-against-then-staled
        (conservative: a sweep for unrelated windows also discards,
        costing only a re-computation on the next miss).
        """
        now = self._clock()
        with self._lock:
            if (
                generation is not None
                and generation != self._generation
            ):
                return False
            if key in self._entries:
                del self._entries[key]
            self._entries[key] = (now, value)
            if len(self._entries) > self.capacity:
                self._expire_locked(now)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            return True

    def _expire_locked(self, now: float) -> None:
        """Drop every TTL-expired entry (caller holds the lock)."""
        expired = [
            key
            for key, (inserted_at, _) in self._entries.items()
            if now - inserted_at >= self.ttl_seconds
        ]
        for key in expired:
            del self._entries[key]
        self._expirations += len(expired)

    def invalidate_where(
        self, predicate: Callable[[Hashable], bool]
    ) -> int:
        """Drop every entry whose *key* satisfies *predicate*; the count.

        The surgical alternative to :meth:`clear`: the ingest seal
        listener passes a :func:`window_intersects` predicate so only
        timelines whose window covers a freshly touched day are
        evicted, and every other entry stays warm.
        """
        with self._lock:
            self._generation += 1
            doomed = [
                key for key in self._entries if predicate(key)
            ]
            for key in doomed:
                del self._entries[key]
            self._invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._generation += 1
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Non-expired presence check; does **not** refresh recency."""
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            return (
                entry is not None
                and now - entry[0] < self.ttl_seconds
            )

    def stats(self) -> Dict[str, int]:
        """Cumulative hit/miss/eviction/expiration counts + current size."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "expirations": self._expirations,
                "invalidations": self._invalidations,
                "entries": len(self._entries),
            }
