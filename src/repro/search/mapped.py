"""Zero-copy read-only index views over mapped v2 snapshots.

:class:`MappedSnapshotIndex` presents the full :class:`~repro.search.index.
InvertedIndex` read API while keeping every numeric structure -- postings
CSR, token ids, document lengths, date grouping -- as read-only
``np.ndarray`` views into the ``MAP_SHARED`` pages of a
``wilson.snapshot/v2`` file (see :class:`repro.search.snapshot.
SectionTable`). Nothing is decompressed or copied at load time; the OS
page cache holds one physical copy of the index no matter how many serve
workers map the same snapshot, and boot cost is O(page-fault), not
O(corpus).

Behavioural contract: every read returns exactly what the classic
dict-based rebuild of the same snapshot would return -- identical values,
identical iteration order (``postings()`` iterates ascending doc id, date
walks ascending date with per-date insertion order), plain Python ints
throughout so serialised query responses are byte-identical across load
modes (asserted by ``tests/test_snapshot_v2.py``). The view is strictly
read-only: :meth:`MappedSnapshotIndex.add` raises ``TypeError``.
"""

from __future__ import annotations

import datetime
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.search.index import IndexedSentence, InvertedIndex
from repro.text.analysis import TokenCache

__all__ = ["MappedSnapshotIndex"]


class MappedSnapshotIndex(InvertedIndex):
    """Read-only :class:`InvertedIndex` backed by mapped snapshot pages.

    Construct via ``InvertedIndex.load_snapshot(path, mode="mmap")`` (or
    :func:`repro.search.snapshot.load_snapshot`), never directly. String
    tables (texts, article ids, vocabulary) decode lazily; documents are
    materialised as :class:`IndexedSentence` on first access and memoised,
    so a worker that only ever touches a slice of the corpus never pays
    for the rest.
    """

    def __init__(
        self, table, cache: Optional[TokenCache] = None
    ) -> None:
        # Deliberately no super().__init__(): the dict-based state it
        # would build is exactly what this view exists to avoid. Every
        # base-class method that touches that state is overridden below.
        self.cache = cache
        self._table = table
        header = table.header
        self._version = int(header["index_version"])
        self._num_docs = int(header["documents"])
        self._docs: Dict[int, IndexedSentence] = {}
        self._total = None  # lazy: total token count
        self._lengths: Optional[List[int]] = None
        self._vocab_tokens: Optional[List[str]] = None
        self._token_row: Optional[Dict[str, int]] = None

    # -- mapping introspection (consumed by the serve boot gauges) ----------

    @property
    def mapped_sections(self) -> int:
        """Number of snapshot sections served from mapped pages."""
        return len(self._table)

    @property
    def mapped_bytes(self) -> int:
        """Bytes of section data behind the mapped views (no padding)."""
        return self._table.mapped_bytes

    # -- writes -------------------------------------------------------------

    def add(self, *args, **kwargs) -> int:
        raise TypeError(
            "MappedSnapshotIndex is a read-only view over snapshot "
            "pages; load with mode='copy' to get a mutable index"
        )

    # -- lazy decode helpers ------------------------------------------------

    def _array(self, name: str) -> np.ndarray:
        return self._table.array(name)

    def _decode(self, buf_name: str, indptr_name: str, row: int) -> str:
        indptr = self._array(indptr_name)
        start = int(indptr[row])
        stop = int(indptr[row + 1])
        return bytes(self._array(buf_name)[start:stop]).decode("utf-8")

    def _vocab(self) -> Dict[str, int]:
        token_row = self._token_row
        if token_row is None:
            from repro.search.snapshot import _unpack_strings

            tokens = _unpack_strings(
                self._array("vocab_buf"), self._array("vocab_indptr")
            )
            self._vocab_tokens = tokens
            token_row = {token: row for row, token in enumerate(tokens)}
            self._token_row = token_row
        return token_row

    def _entry_range(self, token: str):
        """``(entry_start, entry_stop, doc_ids_slice)`` or ``None``."""
        row = self._vocab().get(token)
        if row is None:
            return None
        entry_indptr = self._array("post_entry_indptr")
        start = int(entry_indptr[row])
        stop = int(entry_indptr[row + 1])
        if start == stop:
            return None
        return start, stop, self._array("post_doc_ids")[start:stop]

    def _entry_of(self, token: str, doc_id: int) -> Optional[int]:
        """Flat posting-entry index for ``(token, doc_id)``, if present."""
        found = self._entry_range(token)
        if found is None:
            return None
        start, _, doc_ids = found
        # Per-token doc ids are ascending (documents are indexed in
        # doc-id order), so membership is a binary search.
        k = int(np.searchsorted(doc_ids, doc_id))
        if k == len(doc_ids) or int(doc_ids[k]) != doc_id:
            return None
        return start + k

    # -- reads --------------------------------------------------------------

    @property
    def num_documents(self) -> int:
        return self._num_docs

    @property
    def total_length(self) -> int:
        total = self._total
        if total is None:
            total = int(self._array("doc_lengths").sum())
            self._total = total
        return total

    @property
    def average_length(self) -> float:
        if not self._num_docs:
            return 0.0
        return self.total_length / self._num_docs

    def document(self, doc_id: int) -> IndexedSentence:
        document = self._docs.get(doc_id)
        if document is None:
            text_row = int(self._array("doc_text_row")[doc_id])
            from_ordinal = datetime.date.fromordinal
            # Same fast construction as the snapshot rebuild path: skip
            # the frozen dataclass' per-field __setattr__ round trips.
            document = IndexedSentence.__new__(IndexedSentence)
            object.__setattr__(
                document,
                "__dict__",
                {
                    "doc_id": int(doc_id),
                    "text": self._decode(
                        "texts_buf", "texts_indptr", text_row
                    ),
                    "date": from_ordinal(
                        int(self._array("doc_dates")[doc_id])
                    ),
                    "publication_date": from_ordinal(
                        int(self._array("doc_pub_dates")[doc_id])
                    ),
                    "article_id": self._decode(
                        "articles_buf",
                        "articles_indptr",
                        int(self._array("doc_article_row")[doc_id]),
                    ),
                    "is_reference": bool(
                        self._array("doc_is_reference")[doc_id]
                    ),
                },
            )
            self._docs[doc_id] = document
        return document

    def document_length(self, doc_id: int) -> int:
        lengths = self._lengths
        if lengths is None:
            # BM25 scoring reads one length per posting: a list index is
            # an order of magnitude cheaper than a checked numpy scalar
            # read, for 8 bytes of private memory per document.
            lengths = self._lengths = self._array("doc_lengths").tolist()
        return lengths[doc_id]

    def document_frequency(self, token: str) -> int:
        found = self._entry_range(token)
        if found is None:
            return 0
        start, stop, _ = found
        return stop - start

    def postings(self, token: str) -> Dict[int, int]:
        found = self._entry_range(token)
        if found is None:
            return {}
        start, stop, doc_ids = found
        tf = self._array("post_tf")[start:stop]
        # tolist() twice: plain Python ints in, ascending-doc-id dict
        # iteration out -- both required for byte-identical responses.
        return dict(zip(doc_ids.tolist(), tf.tolist()))

    def positions(self, token: str, doc_id: int) -> List[int]:
        entry = self._entry_of(token, doc_id)
        if entry is None:
            return []
        pos_indptr = self._array("post_pos_indptr")
        start = int(pos_indptr[entry])
        stop = int(pos_indptr[entry + 1])
        return self._array("post_positions")[start:stop].tolist()

    def phrase_match(self, tokens: List[str], doc_id: int) -> bool:
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
        # The v2 vocabulary table may carry analyzer tokens that never
        # earned a posting entry; the classic index counts only tokens
        # with postings, so empty entry ranges are excluded here too.
        return int(
            np.count_nonzero(np.diff(self._array("post_entry_indptr")))
        )

    def tokens_with_postings(self) -> Iterator[str]:
        self._vocab()
        entry_counts = np.diff(self._array("post_entry_indptr")).tolist()
        for token, count in zip(self._vocab_tokens or [], entry_counts):
            if count:
                yield token

    def postings_map(self) -> Dict[str, Dict[int, List[int]]]:
        """Materialise the classic postings mapping (used by writers).

        This is the one deliberately non-lazy accessor: re-snapshotting
        a mapped view needs the whole structure anyway.
        """
        self._vocab()
        tokens = self._vocab_tokens or []
        entry_bounds = self._array("post_entry_indptr").tolist()
        doc_ids = self._array("post_doc_ids").tolist()
        pos_bounds = self._array("post_pos_indptr").tolist()
        flat_positions = self._array("post_positions").tolist()
        position_lists = list(
            map(
                flat_positions.__getitem__,
                map(slice, pos_bounds, pos_bounds[1:]),
            )
        )
        entry_slices = list(
            map(slice, entry_bounds, entry_bounds[1:])
        )
        postings: Dict[str, Dict[int, List[int]]] = {}
        for token, entry_slice in zip(tokens, entry_slices):
            if entry_slice.start == entry_slice.stop:
                continue
            postings[token] = dict(
                zip(doc_ids[entry_slice], position_lists[entry_slice])
            )
        return postings

    # -- date access --------------------------------------------------------

    def dates(self) -> List[datetime.date]:
        from_ordinal = datetime.date.fromordinal
        return [
            from_ordinal(ordinal)
            for ordinal in self._array("date_unique").tolist()
        ]

    def doc_ids_in_range(
        self,
        start: Optional[datetime.date] = None,
        end: Optional[datetime.date] = None,
    ) -> Iterator[int]:
        unique = self._array("date_unique")
        indptr = self._array("date_indptr")
        lo = (
            0
            if start is None
            else int(np.searchsorted(unique, start.toordinal(), "left"))
        )
        hi = (
            len(unique)
            if end is None
            else int(np.searchsorted(unique, end.toordinal(), "right"))
        )
        if lo >= hi:
            return
        # date_doc_ids is a stable by-date sort of doc ids, so this walk
        # matches the classic index exactly: ascending date, and within a
        # date the original insertion (doc-id) order.
        first = int(indptr[lo])
        last = int(indptr[hi])
        yield from self._array("date_doc_ids")[first:last].tolist()

    def documents_on(self, date: datetime.date) -> List[IndexedSentence]:
        unique = self._array("date_unique")
        ordinal = date.toordinal()
        row = int(np.searchsorted(unique, ordinal))
        if row == len(unique) or int(unique[row]) != ordinal:
            return []
        indptr = self._array("date_indptr")
        doc_ids = self._array("date_doc_ids")[
            int(indptr[row]) : int(indptr[row + 1])
        ]
        return [self.document(doc_id) for doc_id in doc_ids.tolist()]

    def date_histogram(
        self,
        interval_days: int = 1,
        start: Optional[datetime.date] = None,
        end: Optional[datetime.date] = None,
    ) -> Dict[datetime.date, int]:
        if interval_days < 1:
            raise ValueError(
                f"interval_days must be >= 1, got {interval_days}"
            )
        counts: Dict[datetime.date, int] = {}
        unique = self._array("date_unique").tolist()
        if not unique:
            return counts
        per_date = np.diff(self._array("date_indptr")).tolist()
        from_ordinal = datetime.date.fromordinal
        origin = start if start is not None else from_ordinal(unique[0])
        for ordinal, count in zip(unique, per_date):
            date = from_ordinal(ordinal)
            if start is not None and date < start:
                continue
            if end is not None and date > end:
                continue
            offset = (date - origin).days // interval_days
            bucket = origin + datetime.timedelta(
                days=offset * interval_days
            )
            counts[bucket] = counts.get(bucket, 0) + count
        return counts

    def __len__(self) -> int:
        return self._num_docs

    def __repr__(self) -> str:
        return (
            f"MappedSnapshotIndex(documents={len(self)}, "
            f"vocabulary={self.vocabulary_size()}, "
            f"mapped_sections={self.mapped_sections})"
        )
