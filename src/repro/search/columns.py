"""The index's one layout: the ``wilson.snapshot/v2`` section arrays.

An :class:`~repro.search.index.InvertedIndex` *is* 22 flat arrays
(:data:`SECTIONS`), the same arrays a snapshot file stores: writing an
index copies them out, and mapping a snapshot hands the index read-only
views of them.

* Three string tables (``texts``, ``articles``, ``vocab``), each a UTF-8
  buffer plus int64 offsets holding every distinct string once, in
  order of first use.
* Per document: a row into the text and the article table, the content
  and publication date ordinals, the reference flag, the token count.
* Per distinct text: its analyzer token stream as vocabulary rows
  (``tok_ids`` / ``tok_indptr``).
* Positional postings as CSR: per token an entry range over ascending
  doc ids, per entry a range of positions.
* Doc ids grouped by content date (``date_unique`` / ``date_indptr`` /
  ``date_doc_ids``), within a date in doc-id order.

The first eleven sections are the *input columns*; :func:`build` derives
the other eleven from them, vectorised, and is the only producer of a
section set. :func:`merge` appends documents (a fold of newly added
documents, or a compaction of base and segments) and :func:`cut`
selects them (a shard slice); both end in :func:`build`.
"""

from __future__ import annotations

import datetime
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.text.analysis import TokenCache, tokenize_with

#: Every section of an index, in snapshot file order, with its dtype.
SECTIONS = (
    ("texts_buf", "|u1"),
    ("texts_indptr", "<i8"),
    ("articles_buf", "|u1"),
    ("articles_indptr", "<i8"),
    ("vocab_buf", "|u1"),
    ("vocab_indptr", "<i8"),
    ("doc_text_row", "<i4"),
    ("doc_article_row", "<i4"),
    ("doc_dates", "<i8"),
    ("doc_pub_dates", "<i8"),
    ("doc_is_reference", "|u1"),
    ("doc_lengths", "<i8"),
    ("tok_ids", "<i4"),
    ("tok_indptr", "<i8"),
    ("post_entry_indptr", "<i8"),
    ("post_doc_ids", "<i8"),
    ("post_tf", "<i4"),
    ("post_pos_indptr", "<i8"),
    ("post_positions", "<i4"),
    ("date_unique", "<i8"),
    ("date_indptr", "<i8"),
    ("date_doc_ids", "<i8"),
)

#: The string tables, by the prefix of their ``_buf`` / ``_indptr`` pair.
TABLES = ("texts", "articles", "vocab")

#: Per-document input columns carried through a merge unchanged.
_DOC_VALUES = ("doc_dates", "doc_pub_dates", "doc_is_reference")

#: One document as :meth:`~repro.search.index.InvertedIndex.add` takes
#: it: ``(text, date, publication_date, article_id, is_reference)``.
Document = Tuple[str, datetime.date, datetime.date, str, bool]


def pack_strings(values: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Pack *values* as a UTF-8 byte buffer plus int64 offsets.

    Avoids numpy's fixed-width unicode dtype (which pads every element
    to the longest string) and object arrays (which would require
    pickle).
    """
    blobs = [value.encode("utf-8") for value in values]
    indptr = np.zeros(len(blobs) + 1, dtype=np.int64)
    if blobs:
        np.cumsum(
            np.fromiter((len(b) for b in blobs), dtype=np.int64),
            out=indptr[1:],
        )
    buffer = np.frombuffer(b"".join(blobs), dtype=np.uint8)
    return buffer, indptr


def unpack_strings(
    buffer: np.ndarray,
    indptr: np.ndarray,
    rows: Optional[np.ndarray] = None,
) -> List[str]:
    """The strings packed as ``(buffer, indptr)``: every one, or only
    those of *rows*, in that order."""
    # One zero-copy view; each string decodes straight out of the
    # buffer (str accepts a memoryview) instead of first materialising
    # the whole payload with .tobytes() and then slicing it again.
    view = memoryview(np.ascontiguousarray(buffer))
    if rows is None:
        starts = indptr[:-1].tolist()
        stops = indptr[1:].tolist()
    else:
        rows = np.asarray(rows, dtype=np.int64)
        starts = indptr[rows].tolist()
        stops = indptr[rows + 1].tolist()
    return [
        str(view[start:stop], "utf-8") for start, stop in zip(starts, stops)
    ]


def _gather(
    flat: np.ndarray, indptr: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The CSR rows *rows* of ``(flat, indptr)``, concatenated in order."""
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    out_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out_indptr[1:])
    picks = np.arange(out_indptr[-1]) + np.repeat(
        starts - out_indptr[:-1], lengths
    )
    return flat[picks], out_indptr


def _first_use(values: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct *values* in order of first appearance, and the inverse
    map from an old row (``0..size-1``) to its new one."""
    distinct, first = np.unique(values, return_index=True)
    kept = distinct[np.argsort(first)]
    remap = np.full(size, -1, dtype=np.int64)
    remap[kept] = np.arange(len(kept))
    return kept, remap


class Columns:
    """One immutable section set, plus views decoded from it on demand.

    *sections* maps section names to arrays: owned arrays, or the
    read-only views of a mapped snapshot's
    :class:`~repro.search.snapshot.SectionTable`. The string tables
    decode once, the first time a reader needs them, and every reader
    shares the result.
    """

    def __init__(
        self,
        sections: Mapping[str, np.ndarray],
        strings: Optional[Dict[str, List[str]]] = None,
        rows: Optional[Dict[str, Dict[str, int]]] = None,
    ) -> None:
        self.sections = sections
        self.num_documents = len(sections["doc_dates"])
        self._strings: Dict[str, List[str]] = dict(strings or {})
        self._rows: Dict[str, Dict[str, int]] = dict(rows or {})
        self._total: Optional[int] = None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.sections[name]

    def strings(self, table: str) -> List[str]:
        """The decoded string table *table* (one of :data:`TABLES`)."""
        values = self._strings.get(table)
        if values is None:
            values = unpack_strings(
                self[f"{table}_buf"], self[f"{table}_indptr"]
            )
            self._strings[table] = values
        return values

    def rows(self, table: str) -> Dict[str, int]:
        """String -> row of the table *table*."""
        rows = self._rows.get(table)
        if rows is None:
            rows = {
                value: row for row, value in enumerate(self.strings(table))
            }
            self._rows[table] = rows
        return rows

    @property
    def total_length(self) -> int:
        total = self._total
        if total is None:
            total = self._total = int(self["doc_lengths"].sum())
        return total


def group_by_date(
    doc_dates: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(date_unique, date_indptr, date_doc_ids)`` for per-document
    content-date ordinals: doc ids by date, then doc id (a stable sort
    keeps each date's documents in doc-id order)."""
    dates = np.asarray(doc_dates, dtype=np.int64)
    unique, counts = np.unique(dates, return_counts=True)
    indptr = np.zeros(len(unique) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return unique, indptr, np.argsort(dates, kind="stable")


def build(inputs: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Every section, from the eleven input columns.

    The string tables must already be in order of first use (as
    :func:`merge` and :func:`cut` leave them). Postings come from one
    stable sort of every document's token stream by vocabulary row,
    which orders entries by token, then doc id, then position.
    """
    text_rows = np.asarray(inputs["doc_text_row"], dtype=np.int64)
    tok_indptr = np.asarray(inputs["tok_indptr"], dtype=np.int64)
    doc_lengths = np.diff(tok_indptr)[text_rows]
    stream, stream_indptr = _gather(inputs["tok_ids"], tok_indptr, text_rows)
    docs = np.repeat(np.arange(len(text_rows)), doc_lengths)
    positions = np.arange(len(stream)) - np.repeat(
        stream_indptr[:-1], doc_lengths
    )
    order = np.argsort(stream, kind="stable")
    tokens = stream[order]
    docs = docs[order]
    entry_start = np.empty(len(stream), dtype=bool)
    entry_start[:1] = True
    entry_start[1:] = (tokens[1:] != tokens[:-1]) | (docs[1:] != docs[:-1])
    starts = np.flatnonzero(entry_start)
    post_pos_indptr = np.append(starts, len(stream))
    entries = np.bincount(
        tokens[starts], minlength=len(inputs["vocab_indptr"]) - 1
    )
    post_entry_indptr = np.zeros(len(entries) + 1, dtype=np.int64)
    np.cumsum(entries, out=post_entry_indptr[1:])

    date_unique, date_indptr, date_doc_ids = group_by_date(
        inputs["doc_dates"]
    )
    arrays = {
        **inputs,
        "doc_lengths": doc_lengths,
        "post_entry_indptr": post_entry_indptr,
        "post_doc_ids": docs[starts],
        "post_tf": np.diff(post_pos_indptr),
        "post_pos_indptr": post_pos_indptr,
        "post_positions": positions[order],
        "date_unique": date_unique,
        "date_indptr": date_indptr,
        "date_doc_ids": date_doc_ids,
    }
    return {
        name: np.ascontiguousarray(arrays[name], dtype=np.dtype(dtype))
        for name, dtype in SECTIONS
    }


def empty() -> Columns:
    """The section set of an index without documents."""
    strings = {table: [] for table in TABLES}
    inputs: Dict[str, np.ndarray] = {}
    for table in TABLES:
        inputs[f"{table}_buf"], inputs[f"{table}_indptr"] = pack_strings([])
    for name in (
        "doc_text_row", "doc_article_row", *_DOC_VALUES, "tok_ids"
    ):
        inputs[name] = np.zeros(0, dtype=np.int64)
    inputs["tok_indptr"] = np.zeros(1, dtype=np.int64)
    return Columns(build(inputs), strings=strings)


def documents(
    docs: Sequence[Document], cache: Optional[TokenCache]
) -> Columns:
    """The input columns of *docs*, for :func:`merge` to append.

    Texts are analysed through *cache* (directly without one). Only what
    a merge reads of an appended part is filled in: the per-document
    columns, the token streams and the decoded string tables.
    """
    tables: Dict[str, Dict[str, int]] = {table: {} for table in TABLES}
    texts, articles, vocab = (tables[table] for table in TABLES)
    text_rows = [texts.setdefault(doc[0], len(texts)) for doc in docs]
    article_rows = [articles.setdefault(doc[3], len(articles)) for doc in docs]
    streams = tokenize_with(cache, list(texts))
    tok_ids = [
        vocab.setdefault(token, len(vocab))
        for stream in streams
        for token in stream
    ]
    tok_indptr = np.zeros(len(streams) + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, streams), dtype=np.int64, count=len(streams)),
        out=tok_indptr[1:],
    )
    sections = {
        "doc_text_row": np.asarray(text_rows, dtype=np.int64),
        "doc_article_row": np.asarray(article_rows, dtype=np.int64),
        "doc_dates": np.asarray(
            [doc[1].toordinal() for doc in docs], dtype=np.int64
        ),
        "doc_pub_dates": np.asarray(
            [doc[2].toordinal() for doc in docs], dtype=np.int64
        ),
        "doc_is_reference": np.asarray(
            [1 if doc[4] else 0 for doc in docs], dtype=np.uint8
        ),
        "tok_ids": np.asarray(tok_ids, dtype=np.int64),
        "tok_indptr": tok_indptr,
    }
    return Columns(
        sections,
        strings={table: list(tables[table]) for table in TABLES},
        rows=tables,
    )


def _append_strings(
    strings: List[str], rows: Dict[str, int], values: Sequence[str]
) -> np.ndarray:
    """Each of *values*' row in the table ``(strings, rows)``; strings
    not yet in it are appended."""
    found = []
    for value in values:
        row = rows.get(value)
        if row is None:
            row = rows[value] = len(strings)
            strings.append(value)
        found.append(row)
    return np.asarray(found, dtype=np.int64)


def merge(parts: Sequence[Columns]) -> Columns:
    """One section set holding every document of *parts*, in order.

    The first part's tables and token streams are kept as they are;
    each later part's strings are looked up by content and only the new
    ones appended, so the tables stay in order of first use and a
    merged index equals one built from the same documents in the same
    order. Of the later parts only the input columns and the decoded
    tables are read.
    """
    first = parts[0]
    strings = {table: list(first.strings(table)) for table in TABLES}
    rows = {table: dict(first.rows(table)) for table in TABLES}
    columns = {
        name: [np.asarray(first[name])]
        for name in ("doc_text_row", "doc_article_row", *_DOC_VALUES)
    }
    tok_ids = [np.asarray(first["tok_ids"])]
    tok_lengths = [np.diff(first["tok_indptr"])]
    for part in parts[1:]:
        known_texts = len(strings["texts"])
        found = {
            table: _append_strings(
                strings[table], rows[table], part.strings(table)
            )
            for table in TABLES
        }
        new_texts = np.flatnonzero(found["texts"] >= known_texts)
        ids, indptr = _gather(part["tok_ids"], part["tok_indptr"], new_texts)
        tok_ids.append(found["vocab"][ids])
        tok_lengths.append(np.diff(indptr))
        columns["doc_text_row"].append(found["texts"][part["doc_text_row"]])
        columns["doc_article_row"].append(
            found["articles"][part["doc_article_row"]]
        )
        for name in _DOC_VALUES:
            columns[name].append(np.asarray(part[name]))

    inputs = {name: np.concatenate(arrays) for name, arrays in columns.items()}
    inputs["tok_ids"] = np.concatenate(tok_ids)
    lengths = np.concatenate(tok_lengths)
    inputs["tok_indptr"] = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=inputs["tok_indptr"][1:])
    for table in TABLES:
        known = len(first.strings(table))
        buffer, indptr = pack_strings(strings[table][known:])
        first_indptr = np.asarray(first[f"{table}_indptr"])
        inputs[f"{table}_buf"] = np.concatenate(
            [first[f"{table}_buf"], buffer]
        )
        inputs[f"{table}_indptr"] = np.concatenate(
            [first_indptr, first_indptr[-1] + indptr[1:]]
        )
    return Columns(build(inputs), strings=strings, rows=rows)


def cut(source: Columns, doc_ids: np.ndarray) -> Columns:
    """The section set of *source*'s documents *doc_ids*, in that order.

    The documents are renumbered ``0..len(doc_ids)-1``; each string
    table keeps only the strings they use, in order of first use, so a
    cut equals an index built from the same documents in the same
    order.
    """
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    inputs: Dict[str, np.ndarray] = {
        name: source[name][doc_ids] for name in _DOC_VALUES
    }
    kept: Dict[str, np.ndarray] = {}
    for table, column in (
        ("texts", "doc_text_row"), ("articles", "doc_article_row")
    ):
        rows = source[column][doc_ids]
        kept[table], remap = _first_use(
            rows, len(source[f"{table}_indptr"]) - 1
        )
        inputs[column] = remap[rows]
    tok_ids, inputs["tok_indptr"] = _gather(
        source["tok_ids"], source["tok_indptr"], kept["texts"]
    )
    kept["vocab"], remap = _first_use(
        tok_ids, len(source["vocab_indptr"]) - 1
    )
    inputs["tok_ids"] = remap[tok_ids]
    for table in TABLES:
        inputs[f"{table}_buf"], inputs[f"{table}_indptr"] = _gather(
            source[f"{table}_buf"], source[f"{table}_indptr"], kept[table]
        )
    return Columns(build(inputs))
