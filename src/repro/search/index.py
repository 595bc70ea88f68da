"""An incremental positional inverted index over temporally tagged sentences.

Documents are sentences carrying two date fields -- the *content date* each
sentence is about and the article's *publication date* -- mirroring how the
paper indexes "both date and content information" (Section 5). New
documents can be inserted at any time ("we can easily include newly
published news articles ... by inserting them into the existing search
engine"); BM25 statistics (document frequencies, average length) update
incrementally.

Postings are *positional* (``token -> {doc_id: [positions]}``), which the
query layer uses for exact phrase matching. The index persists as a
binary snapshot (:meth:`InvertedIndex.save_snapshot`, see
:mod:`repro.search.snapshot`).
"""

from __future__ import annotations

import datetime
import pathlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Union

from repro.text.analysis import TokenCache
from repro.text.tokenize import tokenize_for_matching

PathLike = Union[str, pathlib.Path]


@dataclass(frozen=True)
class IndexedSentence:
    """One indexed document: a sentence with its date fields."""

    doc_id: int
    text: str
    date: datetime.date
    publication_date: datetime.date
    article_id: str = ""
    is_reference: bool = False


class InvertedIndex:
    """Token -> positional postings with incremental BM25 statistics.

    Postings map ``doc_id`` to the sorted list of token positions within
    the document; sorted-by-date secondary structures support efficient
    date-range filtering.
    """

    def __init__(self, cache: Optional[TokenCache] = None) -> None:
        #: Optional shared :class:`~repro.text.analysis.TokenCache`. The
        #: same sentence is indexed once per date it mentions, and later
        #: re-tokenised by the summarisation pipeline -- with a shared
        #: cache all of that is one tokenisation per distinct text.
        self.cache = cache
        self._postings: Dict[str, Dict[int, List[int]]] = {}
        self._documents: List[IndexedSentence] = []
        self._doc_lengths: List[int] = []
        self._total_length = 0
        self._by_date: Dict[datetime.date, List[int]] = {}
        self._version = 0

    @property
    def index_version(self) -> int:
        """Monotonic content revision, bumped on every :meth:`add`.

        Result caches key on it: any write makes previously cached
        query results stale, and a version mismatch is exactly how they
        find out (see :mod:`repro.serve.cache`). Persisted in the
        snapshot header, so a restored index never reuses a version an
        earlier incarnation already handed out.
        """
        return self._version

    def advance_version(self, version: int) -> None:
        """Raise :attr:`index_version` to *version* (never backwards).

        Compaction (:mod:`repro.ingest.compactor`) replays documents
        into a fresh index and then restores the live revision so cache
        keys minted against the overlay stay comparable.
        """
        self._version = max(self._version, int(version))

    # -- writes -------------------------------------------------------------

    def add(
        self,
        text: str,
        date: datetime.date,
        publication_date: datetime.date,
        article_id: str = "",
        is_reference: bool = False,
    ) -> int:
        """Index one sentence; returns its document id."""
        doc_id = len(self._documents)
        tokens = (
            self.cache.tokens(text)
            if self.cache is not None
            else tokenize_for_matching(text)
        )
        document = IndexedSentence(
            doc_id=doc_id,
            text=text,
            date=date,
            publication_date=publication_date,
            article_id=article_id,
            is_reference=is_reference,
        )
        self._documents.append(document)
        self._doc_lengths.append(len(tokens))
        self._total_length += len(tokens)
        self._version += 1
        self._by_date.setdefault(date, []).append(doc_id)
        for position, token in enumerate(tokens):
            self._postings.setdefault(token, {}).setdefault(
                doc_id, []
            ).append(position)
        return doc_id

    # -- reads --------------------------------------------------------------

    @property
    def num_documents(self) -> int:
        return len(self._documents)

    @property
    def average_length(self) -> float:
        if not self._documents:
            return 0.0
        return self._total_length / len(self._documents)

    @property
    def total_length(self) -> int:
        """Total token count across all documents.

        Together with :attr:`num_documents` this is the additive form of
        :attr:`average_length`: summing both across disjoint index
        slices reproduces the whole-corpus ``avgdl`` *exactly* (integer
        sums, one float division), which is what lets the scatter-gather
        router re-score candidates with bit-identical BM25 statistics
        (see :func:`repro.search.query.gather_candidates`).
        """
        return self._total_length

    def document(self, doc_id: int) -> IndexedSentence:
        """The indexed sentence with id *doc_id* (raises ``IndexError``)."""
        return self._documents[doc_id]

    def document_length(self, doc_id: int) -> int:
        return self._doc_lengths[doc_id]

    def document_frequency(self, token: str) -> int:
        """Number of documents containing *token*."""
        return len(self._postings.get(token, ()))

    def postings(self, token: str) -> Dict[int, int]:
        """Posting list of *token* as ``{doc_id: tf}`` (a copy)."""
        return {
            doc_id: len(positions)
            for doc_id, positions in self._postings.get(token, {}).items()
        }

    def positions(self, token: str, doc_id: int) -> List[int]:
        """Positions of *token* within document *doc_id* (a copy)."""
        return list(self._postings.get(token, {}).get(doc_id, ()))

    def phrase_match(self, tokens: List[str], doc_id: int) -> bool:
        """Whether *tokens* occur consecutively in document *doc_id*."""
        if not tokens:
            return False
        first_positions = self._postings.get(tokens[0], {}).get(doc_id)
        if first_positions is None:
            return False
        rest = []
        for token in tokens[1:]:
            positions = self._postings.get(token, {}).get(doc_id)
            if positions is None:
                return False
            rest.append(set(positions))
        for start in first_positions:
            if all(
                (start + offset + 1) in positions
                for offset, positions in enumerate(rest)
            ):
                return True
        return False

    def vocabulary_size(self) -> int:
        return len(self._postings)

    def tokens_with_postings(self) -> Iterator[str]:
        """Iterate tokens that have at least one posting entry.

        The cheap vocabulary accessor shared by every index variant:
        the live overlay (:class:`repro.ingest.live.LiveIndex`) unions
        these streams to count the merged vocabulary without
        materialising full postings maps.
        """
        return iter(self._postings)

    def postings_map(self) -> Dict[str, Dict[int, List[int]]]:
        """The full positional postings mapping, token by token.

        The snapshot writer's bulk accessor. The base index returns its
        live internal mapping (callers must not mutate it); array-backed
        views (:class:`repro.search.mapped.MappedSnapshotIndex`)
        materialise an equivalent mapping on demand.
        """
        return self._postings

    def dates(self) -> List[datetime.date]:
        """All content dates present in the index, sorted."""
        return sorted(self._by_date)

    def doc_ids_in_range(
        self,
        start: Optional[datetime.date] = None,
        end: Optional[datetime.date] = None,
    ) -> Iterator[int]:
        """Iterate doc ids whose content date falls within [start, end]."""
        for date in sorted(self._by_date):
            if start is not None and date < start:
                continue
            if end is not None and date > end:
                break
            yield from self._by_date[date]

    def documents_on(self, date: datetime.date) -> List[IndexedSentence]:
        """All sentences whose content date equals *date*."""
        return [
            self._documents[doc_id]
            for doc_id in self._by_date.get(date, ())
        ]

    def date_histogram(
        self,
        interval_days: int = 1,
        start: Optional[datetime.date] = None,
        end: Optional[datetime.date] = None,
    ) -> Dict[datetime.date, int]:
        """Document counts bucketed by content date.

        Buckets are ``interval_days`` wide, keyed by their first day --
        the aggregation a timeline UI uses to render activity bars and
        that burst-detection heuristics consume.
        """
        if interval_days < 1:
            raise ValueError(
                f"interval_days must be >= 1, got {interval_days}"
            )
        counts: Dict[datetime.date, int] = {}
        dates = self.dates()
        if not dates:
            return counts
        origin = start if start is not None else dates[0]
        for date in dates:
            if start is not None and date < start:
                continue
            if end is not None and date > end:
                continue
            offset = (date - origin).days // interval_days
            bucket = origin + datetime.timedelta(
                days=offset * interval_days
            )
            counts[bucket] = counts.get(bucket, 0) + len(
                self._by_date[date]
            )
        return counts

    def __len__(self) -> int:
        return len(self._documents)

    def __repr__(self) -> str:
        return (
            f"InvertedIndex(documents={len(self)}, "
            f"vocabulary={self.vocabulary_size()})"
        )

    # -- persistence ----------------------------------------------------------

    def save_snapshot(self, path: PathLike) -> None:
        """Persist the index as a binary snapshot (see
        :mod:`repro.search.snapshot`).

        The snapshot carries the derived state -- postings, token-id
        arrays, vocabulary -- so :meth:`load_snapshot` restores in
        O(read) with zero re-tokenisation, or maps it zero-copy with
        ``mode="mmap"``.
        """
        from repro.search.snapshot import save_snapshot

        save_snapshot(self, path)

    @classmethod
    def load_snapshot(
        cls,
        path: PathLike,
        cache: Optional[TokenCache] = None,
        mode: str = "copy",
        verify: bool = False,
    ) -> "InvertedIndex":
        """Restore an index written by :meth:`save_snapshot`.

        ``mode="copy"`` rebuilds a mutable index; ``mode="mmap"`` maps
        the snapshot's sections as shared read-only pages instead;
        ``verify=True`` checks every section checksum eagerly instead of
        lazily on first access. A given *cache* is seeded in either
        mode. Raises :class:`repro.search.snapshot.SnapshotError` on a
        missing, corrupt, or incompatible file.
        """
        from repro.search.snapshot import load_snapshot

        return load_snapshot(path, cache=cache, mode=mode, verify=verify)
