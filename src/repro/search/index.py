"""An incremental positional inverted index over temporally tagged sentences.

Documents are sentences carrying two date fields -- the *content date* each
sentence is about and the article's *publication date* -- mirroring how the
paper indexes "both date and content information" (Section 5). New
documents can be inserted at any time ("we can easily include newly
published news articles ... by inserting them into the existing search
engine"); BM25 statistics (document frequencies, average length) update
incrementally.

The index holds the ``wilson.snapshot/v2`` section arrays
(:mod:`repro.search.columns`) and reads straight from them: owned arrays
after a build or ``load_snapshot(mode="copy")``, read-only views of the
file's shared pages after ``mode="mmap"`` (where :meth:`InvertedIndex.add`
raises ``TypeError``). :meth:`~InvertedIndex.add` appends to a pending
buffer; the next read folds the buffer in, under a lock, through
:func:`repro.search.columns.merge`. Postings are *positional*, which the
query layer uses for exact phrase matching.

Every read returns plain Python values in a fixed order -- ``postings()``
iterates ascending doc id, date walks go by ascending date and, within a
date, doc id -- so serialised responses are byte-identical whichever way
the index was built or loaded. Retrieval reads the arrays themselves, as
read-only views: :meth:`~InvertedIndex.posting_arrays` and the
per-document :attr:`~InvertedIndex.doc_lengths` /
:attr:`~InvertedIndex.doc_dates` feed
:func:`repro.kernels.bm25_rank`; ``postings()``,
``document_length()`` and ``doc_ids_in_range()`` stay as plain reads
for everything else.
"""

from __future__ import annotations

import datetime
import pathlib
import threading
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.search import columns as col
from repro.text.analysis import TokenCache

PathLike = Union[str, pathlib.Path]


def _read_only(array: np.ndarray) -> np.ndarray:
    """A view of *array* that cannot write through to it."""
    view = array.view()
    view.flags.writeable = False
    return view


#: The ``(doc_ids, tf)`` of a token without postings.
_NO_POSTINGS = (
    _read_only(np.zeros(0, dtype=np.int64)),
    _read_only(np.zeros(0, dtype=np.int32)),
)


@dataclass(frozen=True)
class IndexedSentence:
    """One indexed document: a sentence with its date fields."""

    doc_id: int
    text: str
    date: datetime.date
    publication_date: datetime.date
    article_id: str = ""
    is_reference: bool = False


@dataclass(frozen=True, eq=False)
class DocumentColumns:
    """The fields of a run of documents, one array per field.

    The columnar form of a list of :class:`IndexedSentence` (without the
    doc ids): row ``i`` describes the ``i``-th document asked for.
    Dates are proleptic-Gregorian ordinals; texts and article ids stay
    UTF-8 bytes, packed as a buffer plus ``len + 1`` int64 offsets,
    until a reader decodes the rows it needs (:meth:`texts`,
    :meth:`article_ids`). These are the per-hit sections of a
    ``wilson.rpc/v1`` frame (:mod:`repro.serve.frames`).
    """

    dates: np.ndarray  # int64 content-date ordinals
    publication_dates: np.ndarray  # int64 publication-date ordinals
    is_reference: np.ndarray  # uint8, 1 for a reference document
    text_buffer: np.ndarray  # uint8
    text_indptr: np.ndarray  # int64
    article_id_buffer: np.ndarray  # uint8
    article_id_indptr: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.dates)

    def texts(self, rows: Optional[np.ndarray] = None) -> List[str]:
        """The texts of every row, or of *rows* in that order."""
        return col.unpack_strings(self.text_buffer, self.text_indptr, rows)

    def article_ids(self, rows: Optional[np.ndarray] = None) -> List[str]:
        """The article ids of every row, or of *rows* in that order."""
        return col.unpack_strings(
            self.article_id_buffer, self.article_id_indptr, rows
        )

    def records(
        self, rows: Optional[np.ndarray] = None
    ) -> Iterator[Tuple[datetime.date, str, datetime.date, str, bool]]:
        """``(date, text, publication_date, article_id, is_reference)``
        of every row, or of *rows* in that order: a
        :class:`~repro.tlsdata.types.DatedSentence`'s fields, in its
        field order. Each distinct date converts once."""
        if rows is None:
            rows = np.arange(len(self))
        return zip(
            _ordinal_dates(self.dates[rows]),
            self.texts(rows),
            _ordinal_dates(self.publication_dates[rows]),
            self.article_ids(rows),
            (self.is_reference[rows] != 0).tolist(),
        )

    @classmethod
    def empty(cls) -> "DocumentColumns":
        """No rows."""
        ordinals = np.zeros(0, dtype=np.int64)
        no_bytes = np.zeros(0, dtype=np.uint8)
        offsets = np.zeros(1, dtype=np.int64)
        return cls(
            dates=ordinals,
            publication_dates=ordinals,
            is_reference=no_bytes,
            text_buffer=no_bytes,
            text_indptr=offsets,
            article_id_buffer=no_bytes,
            article_id_indptr=offsets,
        )

    @classmethod
    def concat(cls, parts: Sequence["DocumentColumns"]) -> "DocumentColumns":
        """The rows of *parts*, end to end."""
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        columns = {
            name: np.concatenate([getattr(part, name) for part in parts])
            for name in (
                "dates",
                "publication_dates",
                "is_reference",
                "text_buffer",
                "article_id_buffer",
            )
        }
        for buffer, indptr in _STRING_COLUMNS:
            starts = np.cumsum(
                [0] + [len(getattr(part, buffer)) for part in parts[:-1]]
            )
            columns[indptr] = np.concatenate(
                [np.zeros(1, dtype=np.int64)]
                + [
                    getattr(part, indptr)[1:] + start
                    for part, start in zip(parts, starts.tolist())
                ]
            )
        return cls(**columns)


#: The ``(buffer, indptr)`` field pairs of :class:`DocumentColumns`.
_STRING_COLUMNS = (
    ("text_buffer", "text_indptr"),
    ("article_id_buffer", "article_id_indptr"),
)


def _ordinal_dates(ordinals: np.ndarray) -> List[datetime.date]:
    """Each of *ordinals* as a date; each distinct ordinal converts once."""
    distinct, inverse = np.unique(ordinals, return_inverse=True)
    from_ordinal = datetime.date.fromordinal
    values = [from_ordinal(ordinal) for ordinal in distinct.tolist()]
    return [values[row] for row in inverse.tolist()]


def check_doc_ids(doc_ids: np.ndarray, num_documents: int) -> None:
    """Raise ``IndexError`` unless every id is in ``0..num_documents-1``."""
    if len(doc_ids) and (
        int(doc_ids.min()) < 0 or int(doc_ids.max()) >= num_documents
    ):
        raise IndexError(
            f"doc ids must lie in [0, {num_documents}), got "
            f"[{int(doc_ids.min())}, {int(doc_ids.max())}]"
        )


class InvertedIndex:
    """Token -> positional postings with incremental BM25 statistics.

    Postings map ``doc_id`` to the sorted list of token positions within
    the document; doc ids grouped by content date support efficient
    date-range filtering.
    """

    def __init__(self, cache: Optional[TokenCache] = None) -> None:
        #: Optional shared :class:`~repro.text.analysis.TokenCache`. The
        #: same sentence is indexed once per date it mentions, and later
        #: re-tokenised by the summarisation pipeline -- with a shared
        #: cache all of that is one tokenisation per distinct text.
        self.cache = cache
        self._columns = col.empty()
        #: The mapped snapshot behind a read-only index, else ``None``.
        self._table = None
        self._pending: List[col.Document] = []
        self._lock = threading.Lock()
        self._version = 0
        self._docs: Dict[int, IndexedSentence] = {}

    @classmethod
    def _of(
        cls,
        columns: col.Columns,
        version: int,
        cache: Optional[TokenCache],
        table=None,
    ) -> "InvertedIndex":
        index = cls(cache=cache)
        index._columns = columns
        index._table = table
        index._version = int(version)
        return index

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
        """Raise :attr:`index_version` to *version* (never backwards)."""
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
        """Index one sentence; returns its document id.

        The document is buffered and folded into the arrays by the next
        read, so a batch of adds costs one vectorised rebuild.
        """
        if self._table is not None:
            raise TypeError(
                "a mapped index is a read-only view over snapshot "
                "pages; load with mode='copy' to get a mutable index"
            )
        with self._lock:
            self._pending.append(
                (text, date, publication_date, article_id, is_reference)
            )
            self._version += 1
            return self._columns.num_documents + len(self._pending) - 1

    def _current(self) -> col.Columns:
        """The section set, with any pending documents folded in."""
        if self._pending:
            with self._lock:
                if self._pending:
                    part = col.documents(self._pending, self.cache)
                    self._columns = col.merge([self._columns, part])
                    self._pending = []
        return self._columns

    # -- the section arrays ---------------------------------------------------

    def sections(self) -> Dict[str, np.ndarray]:
        """Every section array, by name (read-only views when mapped)."""
        current = self._current()
        return {name: current[name] for name, _ in col.SECTIONS}

    @classmethod
    def concat(
        cls,
        indexes: Sequence["InvertedIndex"],
        cache: Optional[TokenCache] = None,
    ) -> "InvertedIndex":
        """One index holding every document of *indexes*, in order.

        Its version is the sum of theirs: the version the same
        :meth:`add` calls on one index would have reached.
        """
        return InvertedIndex._of(
            col.merge([index._current() for index in indexes]),
            sum(index.index_version for index in indexes),
            cache,
        )

    def subset(self, doc_ids: Sequence[int]) -> "InvertedIndex":
        """A new index of the documents *doc_ids*, in that order.

        They are renumbered ``0..len(doc_ids)-1``; the new index shares
        this one's cache and carries its version.
        """
        return InvertedIndex._of(
            col.cut(self._current(), np.asarray(doc_ids, dtype=np.int64)),
            self.index_version,
            self.cache,
        )

    @property
    def mapped_sections(self) -> int:
        """Number of snapshot sections served from mapped pages."""
        return len(self._table) if self._table is not None else 0

    @property
    def mapped_bytes(self) -> int:
        """Bytes of section data behind the mapped views (no padding)."""
        return self._table.mapped_bytes if self._table is not None else 0

    # -- reads --------------------------------------------------------------

    @property
    def num_documents(self) -> int:
        return self._current().num_documents

    @property
    def average_length(self) -> float:
        num_documents = self.num_documents
        if not num_documents:
            return 0.0
        return self.total_length / num_documents

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
        return self._current().total_length

    def document(self, doc_id: int) -> IndexedSentence:
        """The indexed sentence with id *doc_id* (raises ``IndexError``).

        Each document is built once, on first access, from the decoded
        text and article tables every document shares.
        """
        document = self._docs.get(doc_id)
        if document is None:
            current = self._current()
            text_row = int(current["doc_text_row"][doc_id])
            from_ordinal = datetime.date.fromordinal
            # Skip the frozen dataclass' per-field __setattr__ round
            # trips; the instance is indistinguishable.
            document = IndexedSentence.__new__(IndexedSentence)
            object.__setattr__(
                document,
                "__dict__",
                {
                    "doc_id": int(doc_id),
                    "text": current.strings("texts")[text_row],
                    "date": from_ordinal(int(current["doc_dates"][doc_id])),
                    "publication_date": from_ordinal(
                        int(current["doc_pub_dates"][doc_id])
                    ),
                    "article_id": current.strings("articles")[
                        int(current["doc_article_row"][doc_id])
                    ],
                    "is_reference": bool(
                        current["doc_is_reference"][doc_id]
                    ),
                },
            )
            self._docs[doc_id] = document
        return document

    def document_columns(self, doc_ids: Sequence[int]) -> DocumentColumns:
        """The fields of the documents *doc_ids*, in that order, cut
        straight from the section arrays (no document is built)."""
        current = self._current()
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        check_doc_ids(doc_ids, current.num_documents)
        text_buffer, text_indptr = col._gather(
            current["texts_buf"],
            current["texts_indptr"],
            current["doc_text_row"][doc_ids],
        )
        article_id_buffer, article_id_indptr = col._gather(
            current["articles_buf"],
            current["articles_indptr"],
            current["doc_article_row"][doc_ids],
        )
        return DocumentColumns(
            dates=current["doc_dates"][doc_ids],
            publication_dates=current["doc_pub_dates"][doc_ids],
            is_reference=current["doc_is_reference"][doc_ids],
            text_buffer=text_buffer,
            text_indptr=text_indptr,
            article_id_buffer=article_id_buffer,
            article_id_indptr=article_id_indptr,
        )

    def document_length(self, doc_id: int) -> int:
        return int(self._current()["doc_lengths"][doc_id])

    @property
    def doc_lengths(self) -> np.ndarray:
        """Token count per document, by doc id (a read-only view)."""
        return _read_only(self._current()["doc_lengths"])

    @property
    def doc_dates(self) -> np.ndarray:
        """Content-date ordinal per document, by doc id (read-only)."""
        return _read_only(self._current()["doc_dates"])

    def article_ids(self) -> FrozenSet[str]:
        """The distinct non-empty article ids of the indexed documents.

        Read from the ``articles`` string table, which holds exactly the
        ids the documents use, so no document is built.
        """
        return frozenset(self._current().strings("articles")) - {""}

    def _entries(self, token: str):
        """``(columns, entry_start, entry_stop, doc_ids)`` of *token*, if
        indexed; every offset refers to the returned section set."""
        current = self._current()
        row = current.rows("vocab").get(token)
        if row is None:
            return None
        entry_indptr = current["post_entry_indptr"]
        start = int(entry_indptr[row])
        stop = int(entry_indptr[row + 1])
        if start == stop:
            return None
        return current, start, stop, current["post_doc_ids"][start:stop]

    def document_frequency(self, token: str) -> int:
        """Number of documents containing *token*."""
        found = self._entries(token)
        return 0 if found is None else found[2] - found[1]

    def posting_arrays(self, token: str) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only ``(doc_ids, tf)`` postings of *token*, by doc id.

        The token's ``post_doc_ids`` / ``post_tf`` section slices (two
        empty arrays for a token without postings).
        """
        found = self._entries(token)
        if found is None:
            return _NO_POSTINGS
        current, start, stop, doc_ids = found
        return _read_only(doc_ids), _read_only(current["post_tf"][start:stop])

    def postings(self, token: str) -> Dict[int, int]:
        """Posting list of *token* as ``{doc_id: tf}``, by ascending doc id."""
        doc_ids, tf = self.posting_arrays(token)
        return dict(zip(doc_ids.tolist(), tf.tolist()))

    def positions(self, token: str, doc_id: int) -> List[int]:
        """Positions of *token* within document *doc_id*."""
        found = self._entries(token)
        if found is None:
            return []
        current, start, _, doc_ids = found
        # Per-token doc ids ascend, so membership is a binary search.
        k = int(np.searchsorted(doc_ids, doc_id))
        if k == len(doc_ids) or int(doc_ids[k]) != doc_id:
            return []
        pos_indptr = current["post_pos_indptr"]
        return current["post_positions"][
            int(pos_indptr[start + k]) : int(pos_indptr[start + k + 1])
        ].tolist()

    def phrase_match(self, tokens: List[str], doc_id: int) -> bool:
        """Whether *tokens* occur consecutively in document *doc_id*."""
        if not tokens:
            return False
        first_positions = self.positions(tokens[0], doc_id)
        if not first_positions:
            return False
        rest = []
        for token in tokens[1:]:
            positions = self.positions(token, doc_id)
            if not positions:
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
        """Number of tokens with at least one posting entry."""
        return int(
            np.count_nonzero(np.diff(self._current()["post_entry_indptr"]))
        )

    def tokens_with_postings(self) -> Iterator[str]:
        """Iterate tokens that have at least one posting entry."""
        current = self._current()
        entry_counts = np.diff(current["post_entry_indptr"]).tolist()
        for token, count in zip(current.strings("vocab"), entry_counts):
            if count:
                yield token

    # -- date access --------------------------------------------------------

    def date_window(
        self,
        start: Optional[datetime.date] = None,
        end: Optional[datetime.date] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The documents whose content date falls within [start, end].

        Returns ``(date_ordinals, counts, doc_ids)``: the window's
        distinct content dates ascending, the number of documents on
        each, and the doc ids by date, then doc id. Every date read
        below is derived from it.
        """
        current = self._current()
        return select_dates(
            current["date_unique"],
            current["date_indptr"],
            current["date_doc_ids"],
            start,
            end,
        )

    def dates(self) -> List[datetime.date]:
        """All content dates present in the index, sorted."""
        from_ordinal = datetime.date.fromordinal
        return [
            from_ordinal(ordinal)
            for ordinal in self.date_window()[0].tolist()
        ]

    def doc_ids_in_range(
        self,
        start: Optional[datetime.date] = None,
        end: Optional[datetime.date] = None,
    ) -> Iterator[int]:
        """Iterate doc ids whose content date falls within [start, end]."""
        yield from self.date_window(start, end)[2].tolist()

    def documents_on(self, date: datetime.date) -> List[IndexedSentence]:
        """All sentences whose content date equals *date*."""
        return [
            self.document(doc_id)
            for doc_id in self.date_window(date, date)[2].tolist()
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
        ordinals, per_date, _ = self.date_window(start, end)
        counts: Dict[datetime.date, int] = {}
        if not len(ordinals):
            return counts
        from_ordinal = datetime.date.fromordinal
        origin = start if start is not None else from_ordinal(int(ordinals[0]))
        for ordinal, count in zip(ordinals.tolist(), per_date.tolist()):
            offset = (from_ordinal(ordinal) - origin).days // interval_days
            bucket = origin + datetime.timedelta(days=offset * interval_days)
            counts[bucket] = counts.get(bucket, 0) + count
        return counts

    def __len__(self) -> int:
        return self.num_documents

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(documents={len(self)}, "
            f"vocabulary={self.vocabulary_size()}, "
            f"mapped_sections={self.mapped_sections})"
        )

    # -- persistence ----------------------------------------------------------

    def save_snapshot(self, path: PathLike) -> None:
        """Persist the index as a binary snapshot (see
        :mod:`repro.search.snapshot`): its section arrays, unchanged."""
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

        ``mode="copy"`` reads the sections into owned arrays (a mutable
        index); ``mode="mmap"`` maps them as shared read-only pages
        instead; ``verify=True`` checks every section checksum eagerly
        instead of lazily on first access. A given *cache* is seeded in
        either mode. Raises :class:`repro.search.snapshot.SnapshotError`
        on a missing, corrupt, or incompatible file.
        """
        from repro.search.snapshot import load_snapshot

        return load_snapshot(path, cache=cache, mode=mode, verify=verify)


def select_dates(
    unique: np.ndarray,
    indptr: np.ndarray,
    doc_ids: np.ndarray,
    start: Optional[datetime.date],
    end: Optional[datetime.date],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`InvertedIndex.date_window` over a date grouping given as
    its ``date_unique`` / ``date_indptr`` / ``date_doc_ids`` arrays."""
    lo = 0 if start is None else int(unique.searchsorted(start.toordinal()))
    hi = (
        len(unique)
        if end is None
        else int(unique.searchsorted(end.toordinal(), "right"))
    )
    bounds = indptr[lo : max(lo, hi) + 1]
    return (
        unique[lo:hi],
        bounds[1:] - bounds[:-1],
        doc_ids[int(bounds[0]) : int(bounds[-1])],
    )
