"""The live read overlay: base snapshot + sealed delta segments.

:class:`LiveIndex` presents the full :class:`~repro.search.index.
InvertedIndex` read API over a *base* index (owned arrays, or the
read-only views of a mapped snapshot) plus an ordered tuple of sealed
:class:`~repro.ingest.segment.Segment`\\ s, merging postings,
document-frequency and length statistics at query time. BM25
statistics are additive integers (see ``InvertedIndex.total_length``),
so the merged view scores -- and tie-breaks -- *bit-identically* to a
single index holding the same documents in the same order: base
documents keep ids ``0..N-1`` and each segment's documents follow at a
fixed global offset, exactly the ids a cold re-index would assign.

Writes never touch the overlay directly (:meth:`LiveIndex.add` raises);
the ingest plane appends sealed segments with :meth:`append_segment`
and compaction swaps the folded base in with :meth:`replace_base`.
Both swap one immutable state tuple under a mutate lock, so concurrent
readers always observe a consistent ``(base, segments)`` pair without
taking any lock on the query path. A reader that started before a seal
simply serves the pre-seal view; the next request sees the new one.

Every sealed segment advances :attr:`index_version` by its document
count (matching what the same ``add`` calls would have done on one
index) and records its touched content dates;
:meth:`touched_dates_since` replays that log so caches keyed on
``index_version`` can invalidate *only* the affected days
(:meth:`repro.core.daily.DayMatrixCache.sync_version`).
"""

from __future__ import annotations

import bisect
import dataclasses
import datetime
import threading
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

import numpy as np

from repro.ingest.segment import Segment
from repro.search.columns import group_by_date
from repro.search.index import (
    DocumentColumns,
    IndexedSentence,
    InvertedIndex,
    check_doc_ids,
    select_dates,
)
from repro.text.analysis import TokenCache

__all__ = ["LiveIndex"]

#: Invalidation-log bound. Each entry is one sealed segment's (version,
#: touched-dates) pair; beyond this, the oldest entries collapse into
#: the "unknown -- flush everything" floor.
_LOG_LIMIT = 1024


class _LiveState(NamedTuple):
    """One immutable, atomically swapped overlay configuration."""

    base: InvertedIndex
    segments: Tuple[Segment, ...]
    #: ``(index, global_offset)`` of the base, then of every segment.
    subs: Tuple[Tuple[InvertedIndex, int], ...]
    #: The subs' global offsets as one array, for routing many ids.
    sub_starts: np.ndarray
    base_docs: int
    offsets: Tuple[int, ...]
    total_docs: int
    total_length: int
    version: int
    #: Per global doc id: content-date ordinal and token count. Global
    #: ids run through the base, then each segment in seal order, so
    #: these are the sub-indexes' arrays end to end (read-only).
    doc_dates: np.ndarray
    doc_lengths: np.ndarray
    #: ``(date_unique, date_indptr, date_doc_ids)`` over global doc ids.
    dates: Tuple[np.ndarray, np.ndarray, np.ndarray]


def _joined(arrays: List[np.ndarray]) -> np.ndarray:
    """*arrays* end to end, as one read-only array."""
    joined = np.concatenate(arrays)
    joined.flags.writeable = False
    return joined


def _make_state(
    base: InvertedIndex, segments: Tuple[Segment, ...]
) -> _LiveState:
    offsets: List[int] = []
    cursor = base.num_documents
    total_length = base.total_length
    version = base.index_version
    for segment in segments:
        offsets.append(cursor)
        cursor += segment.documents
        total_length += segment.index.total_length
        version += segment.version_span
    subs = ((base, 0),) + tuple(
        (segment.index, offset) for segment, offset in zip(segments, offsets)
    )
    doc_dates = _joined([sub.doc_dates for sub, _ in subs])
    return _LiveState(
        base=base,
        segments=segments,
        subs=subs,
        sub_starts=np.array([offset for _, offset in subs], dtype=np.int64),
        base_docs=base.num_documents,
        offsets=tuple(offsets),
        total_docs=cursor,
        total_length=total_length,
        version=version,
        doc_dates=doc_dates,
        doc_lengths=_joined([sub.doc_lengths for sub, _ in subs]),
        dates=group_by_date(doc_dates),
    )


class LiveIndex(InvertedIndex):
    """Read-only merge view of a base index and sealed delta segments.

    The date reads (:meth:`dates`, :meth:`doc_ids_in_range`,
    :meth:`documents_on`, :meth:`date_histogram`), :meth:`postings`
    and :meth:`phrase_match` are the base class's, over this overlay's
    :meth:`date_window`, :meth:`posting_arrays` and :meth:`positions`.
    Retrieval reads :meth:`posting_arrays` and the per-document
    :attr:`doc_dates` / :attr:`doc_lengths`, which each seal builds
    once, off the read path; a shard's hit fields come from
    :meth:`document_columns`, cut per sub-index.
    """

    def __init__(
        self,
        base: InvertedIndex,
        cache: Optional[TokenCache] = None,
    ) -> None:
        # Deliberately no super().__init__(): the overlay holds no
        # section arrays of its own -- every base-class method touching
        # them is overridden below.
        self.cache = cache if cache is not None else base.cache
        self._mutate = threading.Lock()
        self._state = _make_state(base, ())
        self._log: List[Tuple[int, frozenset]] = []
        self._log_floor = self._state.version

    # -- overlay mutation (ingest plane only) -------------------------------

    def append_segment(self, segment: Segment) -> int:
        """Overlay a sealed *segment*; returns the new index version."""
        # Fold the segment's buffered documents into its arrays before
        # any reader can see it: once published it is only ever read.
        segment.index.sections()
        with self._mutate:
            state = self._state
            new_state = _make_state(
                state.base, state.segments + (segment,)
            )
            self._log.append(
                (new_state.version, frozenset(segment.touched_dates))
            )
            if len(self._log) > _LOG_LIMIT:
                dropped = self._log.pop(0)
                self._log_floor = dropped[0]
            self._state = new_state
            return new_state.version

    def replace_base(
        self, base: InvertedIndex, folded_segments: int
    ) -> None:
        """Swap in a compacted *base* covering the first *folded_segments*.

        The new base must hold exactly the documents of the old base
        plus the folded segments (in order) and carry the matching
        index version, so global doc ids and :attr:`index_version` are
        unchanged -- compaction is invisible to readers and caches.
        """
        with self._mutate:
            state = self._state
            remaining = state.segments[folded_segments:]
            expected_docs = state.offsets[folded_segments - 1] + (
                state.segments[folded_segments - 1].documents
            ) if folded_segments else state.base.num_documents
            if base.num_documents != expected_docs:
                raise ValueError(
                    f"compacted base holds {base.num_documents} documents, "
                    f"expected {expected_docs}"
                )
            new_state = _make_state(base, remaining)
            if new_state.version != state.version:
                raise ValueError(
                    f"compacted base version {new_state.version} != live "
                    f"version {state.version}"
                )
            self._state = new_state

    # -- invalidation log ---------------------------------------------------

    def touched_dates_since(
        self, version: int
    ) -> Optional[frozenset]:
        """Content dates written after *version*, or ``None`` if unknown.

        ``None`` means the asked-for revision predates the log (or the
        overlay's creation): the caller must fall back to a full flush.
        An up-to-date *version* returns an empty set -- nothing to
        evict.
        """
        with self._mutate:
            if version >= self._state.version:
                return frozenset()
            if version < self._log_floor:
                return None
            touched: set = set()
            for logged_version, dates in reversed(self._log):
                if logged_version <= version:
                    break
                touched.update(dates)
            return frozenset(touched)

    # -- overlay introspection ----------------------------------------------

    @property
    def base(self) -> InvertedIndex:
        return self._state.base

    @property
    def segments(self) -> Tuple[Segment, ...]:
        return self._state.segments

    @property
    def segment_count(self) -> int:
        return len(self._state.segments)

    @property
    def pending_documents(self) -> int:
        """Documents living in segments, awaiting compaction."""
        state = self._state
        return state.total_docs - state.base.num_documents

    @property
    def pending_bytes(self) -> int:
        """On-disk bytes of unfolded segments (0 for memory-only)."""
        return sum(s.nbytes for s in self._state.segments)

    # -- writes -------------------------------------------------------------

    def add(self, *args, **kwargs) -> int:
        raise TypeError(
            "LiveIndex is a read overlay; stream documents through the "
            "ingest plane (repro.ingest.IngestPlane), which seals them "
            "into segments"
        )

    def advance_version(self, version: int) -> None:
        raise TypeError(
            "LiveIndex derives its version from base + segments; "
            "advance the base index instead"
        )

    # -- routing ------------------------------------------------------------

    @staticmethod
    def _route(
        state: _LiveState, doc_id: int
    ) -> Tuple[InvertedIndex, int, int]:
        """``(sub_index, local_id, global_offset)`` owning *doc_id*."""
        if 0 <= doc_id < state.base_docs:
            return state.base, doc_id, 0
        if state.base_docs <= doc_id < state.total_docs:
            # Segments tile [base_docs, total_docs) in seal order.
            k = bisect.bisect_right(state.offsets, doc_id) - 1
            offset = state.offsets[k]
            return state.segments[k].index, doc_id - offset, offset
        raise IndexError(f"doc_id {doc_id} out of range")

    # -- reads --------------------------------------------------------------

    @property
    def index_version(self) -> int:
        return self._state.version

    @property
    def num_documents(self) -> int:
        return self._state.total_docs

    @property
    def total_length(self) -> int:
        return self._state.total_length

    def document(self, doc_id: int) -> IndexedSentence:
        state = self._state
        sub, local, offset = self._route(state, doc_id)
        document = sub.document(local)
        if offset == 0:
            return document
        return dataclasses.replace(document, doc_id=local + offset)

    def document_columns(self, doc_ids) -> DocumentColumns:
        """The fields of the documents *doc_ids*, in that order.

        The ids are split into runs owned by one sub-index, and each
        run is cut from its sub-index's arrays; the overlay is never
        merged into one index (:meth:`sections`). Every run costs a
        cut, so callers pass ascending ids: one cut per touched
        sub-index.
        """
        state = self._state
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        check_doc_ids(doc_ids, state.total_docs)
        if not len(doc_ids):
            return state.base.document_columns(doc_ids)
        # side="right": an empty segment shares its offset with the
        # next sub, which owns the id.
        owner = np.searchsorted(state.sub_starts, doc_ids, side="right") - 1
        breaks = (np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist()
        parts = []
        for lo, hi in zip([0, *breaks], [*breaks, len(doc_ids)]):
            sub, offset = state.subs[int(owner[lo])]
            parts.append(sub.document_columns(doc_ids[lo:hi] - offset))
        return DocumentColumns.concat(parts)

    def document_length(self, doc_id: int) -> int:
        sub, local, _ = self._route(self._state, doc_id)
        return sub.document_length(local)

    @property
    def doc_lengths(self) -> np.ndarray:
        return self._state.doc_lengths

    @property
    def doc_dates(self) -> np.ndarray:
        return self._state.doc_dates

    def article_ids(self) -> FrozenSet[str]:
        return frozenset().union(
            *(sub.article_ids() for sub, _ in self._state.subs)
        )

    def document_frequency(self, token: str) -> int:
        return sum(
            sub.document_frequency(token) for sub, _ in self._state.subs
        )

    def posting_arrays(self, token: str) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only ``(doc_ids, tf)`` postings of *token*, by doc id.

        The base's postings, then each segment's with its doc ids
        shifted by the segment's global offset.
        """
        state = self._state
        doc_ids, tf = state.base.posting_arrays(token)
        id_parts, tf_parts = [doc_ids], [tf]
        for sub, offset in state.subs[1:]:
            sub_ids, sub_tf = sub.posting_arrays(token)
            if len(sub_ids):
                id_parts.append(sub_ids + offset)
                tf_parts.append(sub_tf)
        if len(id_parts) == 1:
            return doc_ids, tf
        return _joined(id_parts), _joined(tf_parts)

    def positions(self, token: str, doc_id: int) -> List[int]:
        sub, local, _ = self._route(self._state, doc_id)
        return sub.positions(token, local)

    def vocabulary_size(self) -> int:
        return sum(1 for _ in self.tokens_with_postings())

    def tokens_with_postings(self) -> Iterator[str]:
        seen = set()
        for sub, _ in self._state.subs:
            for token in sub.tokens_with_postings():
                if token not in seen:
                    seen.add(token)
                    yield token

    def sections(self) -> Dict[str, np.ndarray]:
        """The sections of one index holding the overlay's documents."""
        return self._merged().sections()

    def subset(self, doc_ids) -> InvertedIndex:
        return self._merged().subset(doc_ids)

    def _merged(self) -> InvertedIndex:
        return InvertedIndex.concat(
            [sub for sub, _ in self._state.subs], cache=self.cache
        )

    # -- date access --------------------------------------------------------

    def date_window(
        self,
        start: Optional[datetime.date] = None,
        end: Optional[datetime.date] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        # The merged date grouping is built once per seal, off the read
        # path, so a read costs what it costs on one index.
        return select_dates(*self._state.dates, start, end)

    def __repr__(self) -> str:
        state = self._state
        return (
            f"LiveIndex(base={state.base.num_documents}, "
            f"segments={len(state.segments)}, "
            f"pending={self.pending_documents}, "
            f"version={state.version})"
        )
