"""Binary index snapshots: the one on-disk form of a search index.

A snapshot serialises an :class:`~repro.search.index.InvertedIndex`
together with its derived state, so restoring it never re-tokenises:

* distinct sentence texts (UTF-8 buffer + offsets) and, per document, a
  row into that table plus date ordinals / article row / reference flag;
* the vocabulary (postings insertion order) and one token-id array per
  distinct text -- exactly what a :class:`~repro.text.analysis.TokenCache`
  would have computed, so the analyzer cache is seeded without
  tokenising anything;
* positional postings as CSR arrays (per-token entry ranges over doc
  ids, per-entry position ranges), document lengths, and the doc ids
  grouped by content date;
* the monotonic ``index_version`` (the serve-cache invalidation key).

The layout is ``wilson.snapshot/v2``: one JSON meta line (magic, format
version, ``index_version``, analyzer configuration and a per-section
offset/dtype/shape/SHA-256 descriptor), then each numeric array as a raw
little-endian **section** at a page-aligned offset. A snapshot loads two
ways: ``mode="mmap"`` maps the file ``MAP_SHARED`` read-only and serves
queries straight from the page cache through a
:class:`repro.search.mapped.MappedSnapshotIndex` view -- no copy,
O(page-fault) boot, and N worker processes share one physical copy of
the index, with section checksums verified lazily on first access
(eagerly with ``verify=True``); ``mode="copy"`` verifies every section
and rebuilds a mutable dict-based index in private memory.

Writes are atomic: the file is written under a temporary name next to
its target and renamed over it, so a process that has the old file
mapped keeps reading the old bytes. Any mismatch, truncation or parse
failure raises :class:`SnapshotError`, so callers (the serve boot path
in particular) can fall back to re-indexing the corpus instead of
crashing. The format is deliberately pickle-free: a corrupted or
adversarial snapshot can fail to load, but it cannot execute code.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import io
import json
import mmap
import os
import pathlib
import threading
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.search.index import IndexedSentence, InvertedIndex
from repro.text.analysis import TokenCache
from repro.text.tokenize import tokenize_for_matching

PathLike = Union[str, pathlib.Path]

#: Magic string on a snapshot's meta line.
SNAPSHOT_MAGIC_V2 = "wilson.snapshot/v2"

#: Format version a snapshot's meta line must declare.
SNAPSHOT_FORMAT_VERSION_V2 = 2

#: Upper bound on the meta line; a "header" larger than this is garbage.
_MAX_HEADER_BYTES = 65536

#: v2 sections start (and stay) aligned to this many bytes, so every
#: section begins on its own OS page and mapped views are element-aligned.
_SECTION_ALIGN = 4096

#: Every section a snapshot carries, in file order, with its dtype.
_V2_SECTIONS = (
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

#: Snapshot metric names set by the serve boot path (pinned; documented in
#: docs/observability.md and asserted by tests/test_docs_observability.py).
SNAPSHOT_COUNTERS = ("snapshot.corrupt_fallbacks",)
SNAPSHOT_GAUGES = (
    "snapshot.documents",
    "snapshot.format_version",
    "snapshot.load_seconds",
    "snapshot.mmap_bytes",
    "snapshot.mmap_sections",
    "snapshot.vocabulary_terms",
)
SNAPSHOT_METRIC_NAMES = SNAPSHOT_COUNTERS + SNAPSHOT_GAUGES


class SnapshotError(RuntimeError):
    """A snapshot file is missing, corrupt, or incompatible."""


# -- string packing ----------------------------------------------------------


def _pack_strings(values: List[str]) -> Tuple[np.ndarray, np.ndarray]:
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


def _unpack_strings(buffer: np.ndarray, indptr: np.ndarray) -> List[str]:
    # One zero-copy view; each string decodes straight out of the
    # buffer (str accepts a memoryview) instead of first materialising
    # the whole payload with .tobytes() and then slicing it again.
    view = memoryview(np.ascontiguousarray(buffer))
    bounds = indptr.tolist()
    return [
        str(view[bounds[i] : bounds[i + 1]], "utf-8")
        for i in range(len(bounds) - 1)
    ]


# -- save --------------------------------------------------------------------


def _token_streams(
    index: InvertedIndex, distinct_texts: List[str]
) -> List[Tuple[str, ...]]:
    """The analyzer output for each distinct text, as of :meth:`add` time."""
    if index.cache is not None:
        return [index.cache.tokens(text) for text in distinct_texts]
    return [tuple(tokenize_for_matching(text)) for text in distinct_texts]


def _collect_sections(
    index: InvertedIndex,
) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
    """Every section of *index*'s snapshot, plus its header fields.

    Returns ``(sections, meta)``: *sections* maps each name of
    :data:`_V2_SECTIONS`, in that order, to a contiguous array of the
    declared dtype; *meta* holds the descriptive header fields.
    """
    distinct: Dict[str, int] = {}
    articles: Dict[str, int] = {}
    doc_text_row = np.empty(len(index), dtype=np.int32)
    doc_article_row = np.empty(len(index), dtype=np.int32)
    doc_dates = np.empty(len(index), dtype=np.int64)
    doc_pub_dates = np.empty(len(index), dtype=np.int64)
    doc_is_reference = np.zeros(len(index), dtype=np.uint8)
    for doc_id in range(len(index)):
        document = index.document(doc_id)
        doc_text_row[doc_id] = distinct.setdefault(
            document.text, len(distinct)
        )
        doc_article_row[doc_id] = articles.setdefault(
            document.article_id, len(articles)
        )
        doc_dates[doc_id] = document.date.toordinal()
        doc_pub_dates[doc_id] = document.publication_date.toordinal()
        doc_is_reference[doc_id] = 1 if document.is_reference else 0

    distinct_texts = list(distinct)
    streams = _token_streams(index, distinct_texts)

    # Vocabulary in postings insertion order; any token a stream produces
    # that somehow has no posting entry is appended with an empty range.
    postings = index.postings_map()
    vocab: List[str] = list(postings)
    token_to_id = {token: i for i, token in enumerate(vocab)}
    flat_ids: List[int] = []
    tok_indptr = np.zeros(len(streams) + 1, dtype=np.int64)
    for row, stream in enumerate(streams):
        for token in stream:
            token_id = token_to_id.get(token)
            if token_id is None:
                token_id = len(vocab)
                token_to_id[token] = token_id
                vocab.append(token)
            flat_ids.append(token_id)
        tok_indptr[row + 1] = len(flat_ids)

    entry_counts = [len(postings.get(token, ())) for token in vocab]
    post_entry_indptr = np.zeros(len(vocab) + 1, dtype=np.int64)
    if entry_counts:
        np.cumsum(
            np.asarray(entry_counts, dtype=np.int64),
            out=post_entry_indptr[1:],
        )
    post_doc_ids: List[int] = []
    post_tf: List[int] = []
    flat_positions: List[int] = []
    for token in vocab:
        for doc_id, positions in postings.get(token, {}).items():
            post_doc_ids.append(doc_id)
            post_tf.append(len(positions))
            flat_positions.extend(positions)
    post_pos_indptr = np.zeros(len(post_tf) + 1, dtype=np.int64)
    if post_tf:
        np.cumsum(
            np.asarray(post_tf, dtype=np.int64), out=post_pos_indptr[1:]
        )

    # Doc ids grouped by content date: a stable argsort of the per-doc
    # date ordinals reproduces each date's insertion order exactly
    # (documents are added in doc-id order).
    date_unique, date_counts = np.unique(doc_dates, return_counts=True)
    date_indptr = np.zeros(len(date_unique) + 1, dtype=np.int64)
    np.cumsum(date_counts, out=date_indptr[1:])

    texts_buf, texts_indptr = _pack_strings(distinct_texts)
    articles_buf, articles_indptr = _pack_strings(list(articles))
    vocab_buf, vocab_indptr = _pack_strings(vocab)
    arrays = {
        "texts_buf": texts_buf,
        "texts_indptr": texts_indptr,
        "articles_buf": articles_buf,
        "articles_indptr": articles_indptr,
        "vocab_buf": vocab_buf,
        "vocab_indptr": vocab_indptr,
        "doc_text_row": doc_text_row,
        "doc_article_row": doc_article_row,
        "doc_dates": doc_dates,
        "doc_pub_dates": doc_pub_dates,
        "doc_is_reference": doc_is_reference,
        "doc_lengths": np.diff(tok_indptr)[doc_text_row],
        "tok_ids": flat_ids,
        "tok_indptr": tok_indptr,
        "post_entry_indptr": post_entry_indptr,
        "post_doc_ids": post_doc_ids,
        "post_tf": post_tf,
        "post_pos_indptr": post_pos_indptr,
        "post_positions": flat_positions,
        "date_unique": date_unique,
        "date_indptr": date_indptr,
        "date_doc_ids": np.argsort(doc_dates, kind="stable"),
    }
    sections = {
        name: np.ascontiguousarray(arrays[name], dtype=np.dtype(dtype))
        for name, dtype in _V2_SECTIONS
    }

    if index.cache is not None:
        stem = index.cache.stem
        drop_stopwords = index.cache.drop_stopwords
    else:
        stem, drop_stopwords = True, True
    dates = index.dates()
    meta = {
        "index_version": index.index_version,
        "documents": len(index),
        "vocabulary": len(vocab),
        "articles": len(set(articles) - {""}),
        "date_span": (
            [dates[0].isoformat(), dates[-1].isoformat()] if dates else None
        ),
        "analyzer": {"stem": stem, "drop_stopwords": drop_stopwords},
    }
    return sections, meta


def _align(offset: int) -> int:
    return -(-offset // _SECTION_ALIGN) * _SECTION_ALIGN


@contextlib.contextmanager
def replacing(path: PathLike) -> Iterator[pathlib.Path]:
    """Yield a temporary sibling of *path*; rename it over *path* on success.

    The rename is atomic: a reader that opened or mapped the old file
    keeps reading the old bytes (its inode lives on until the last user
    lets go), and a crash mid-write leaves the previous file intact. On
    failure the temporary file is removed and *path* is untouched. The
    temporary name starts with a dot and ends in ``.tmp``, so it never
    matches a ``segment-*.seg`` listing.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp"
    )
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_section_file(
    path: PathLike,
    magic: str,
    format_version: int,
    arrays: Dict[str, np.ndarray],
    meta: Optional[Dict[str, object]] = None,
) -> int:
    """Write an aligned, per-section-checksummed binary section file.

    The shared on-disk machinery behind ``wilson.snapshot/v2`` and
    ``wilson.segment/v1`` (:mod:`repro.ingest.segment`): one JSON meta
    line carrying *magic*, *format_version* and a ``sections`` map of
    ``{offset, dtype, shape, sha256}`` descriptors, then each array at a
    :data:`_SECTION_ALIGN`-aligned offset. *arrays* is written in
    iteration order with dtypes taken as given -- callers prepare
    contiguity and dtype; *meta* keys are merged into the header. The
    file is written atomically (see :func:`replacing`). Returns the
    payload size in bytes.
    """
    prepared = {
        name: np.ascontiguousarray(array)
        for name, array in arrays.items()
    }
    section_meta: Dict[str, Dict[str, object]] = {}
    offset = 0
    for name, array in prepared.items():
        offset = _align(offset)
        section_meta[name] = {
            "offset": offset,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "sha256": hashlib.sha256(array.tobytes()).hexdigest(),
        }
        offset += array.nbytes
    payload_bytes = offset

    header = {
        "meta": magic,
        "format_version": format_version,
        "payload_bytes": payload_bytes,
        "section_align": _SECTION_ALIGN,
        "sections": section_meta,
        **(meta or {}),
    }
    header_line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    if len(header_line) > _MAX_HEADER_BYTES:
        raise SnapshotError(
            f"snapshot header too large ({len(header_line)} bytes); "
            f"the limit is {_MAX_HEADER_BYTES}"
        )
    # Section offsets are relative to data_start: the first aligned
    # boundary after the header line. The reader recomputes it from the
    # header line's length, so the header needs no self-referential
    # byte offset.
    data_start = _align(len(header_line))

    with replacing(path) as tmp, tmp.open("wb") as handle:
        handle.write(header_line)
        handle.write(b"\x00" * (data_start - len(header_line)))
        cursor = 0
        for name, array in prepared.items():
            target = section_meta[name]["offset"]
            if target > cursor:
                handle.write(b"\x00" * (target - cursor))
                cursor = target
            handle.write(array.tobytes())
            cursor += array.nbytes
    return payload_bytes


def read_section_file(
    path: PathLike, magic: str, format_version: int
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Read and verify a file written by :func:`write_section_file`.

    Every section is read eagerly and checked against its declared
    sha256 -- the right trade-off for small files like delta segments
    (mapped lazy-verified access stays the preserve of
    :class:`SectionTable`). Returns ``(header, {name: array})``; the
    arrays are writable copies. Raises :class:`SnapshotError` on a
    missing, truncated, corrupt, or wrong-magic file.
    """
    try:
        with pathlib.Path(path).open("rb") as handle:
            header, header_len = _read_header(handle, magic, format_version)
            sections = header.get("sections")
            if not isinstance(sections, dict):
                raise SnapshotError(
                    f"{magic} header carries no sections map"
                )
            data_start = _align(header_len)
            arrays: Dict[str, np.ndarray] = {}
            for name, entry in sections.items():
                try:
                    offset = int(entry["offset"])
                    dtype = np.dtype(str(entry["dtype"]))
                    shape = tuple(int(n) for n in entry["shape"])
                    declared = str(entry["sha256"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise SnapshotError(
                        f"section {name!r} descriptor is malformed: {exc}"
                    ) from exc
                nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
                handle.seek(data_start + offset)
                raw = handle.read(nbytes)
                if len(raw) != nbytes:
                    raise SnapshotError(
                        f"section {name!r} truncated: expected {nbytes} "
                        f"bytes, found {len(raw)}"
                    )
                if hashlib.sha256(raw).hexdigest() != declared:
                    raise SnapshotError(
                        f"section {name!r} checksum mismatch"
                    )
                arrays[name] = np.frombuffer(
                    raw, dtype=dtype
                ).reshape(shape).copy()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot: {exc}") from exc
    return header, arrays


def save_snapshot(
    index: InvertedIndex,
    path: PathLike,
    slice_meta: Optional[Dict[str, object]] = None,
) -> None:
    """Write *index* (documents, postings, analyzer state) to *path*.

    *slice_meta*, when given, is embedded verbatim as the header's
    ``"slice"`` key -- the topology layer uses it to mark a snapshot as
    shard *k* of *N* with its date range (see
    :mod:`repro.serve.topology`), and :func:`snapshot_info` surfaces it
    without reading the payload so shard layouts print in O(1).
    """
    sections, meta = _collect_sections(index)
    if slice_meta is not None:
        meta["slice"] = dict(slice_meta)
    write_section_file(
        path,
        SNAPSHOT_MAGIC_V2,
        SNAPSHOT_FORMAT_VERSION_V2,
        sections,
        meta=meta,
    )


# -- load --------------------------------------------------------------------


def _read_header(
    handle,
    magic: str = SNAPSHOT_MAGIC_V2,
    format_version: int = SNAPSHOT_FORMAT_VERSION_V2,
) -> Tuple[Dict[str, object], int]:
    """Parse the meta line; returns ``(header, header_line_bytes)``.

    The header must carry *magic* and declare *format_version*; the
    defaults accept a snapshot, and section-file readers
    (:func:`read_section_file`) pass their own.
    """
    line = handle.readline(_MAX_HEADER_BYTES + 1)
    if len(line) > _MAX_HEADER_BYTES or not line.endswith(b"\n"):
        raise SnapshotError("snapshot header missing or oversized")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"snapshot header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("meta") != magic:
        raise SnapshotError(f"not a {magic} file")
    if header.get("format_version") != format_version:
        raise SnapshotError(
            "unsupported snapshot format_version "
            f"{header.get('format_version')!r} "
            f"(a {magic} file must declare {format_version})"
        )
    return header, len(line)


def snapshot_info(path: PathLike) -> Dict[str, object]:
    """Parse and validate the meta header of *path* (payload unread).

    Raises :class:`SnapshotError` when the file is not a readable
    snapshot of a supported format version.
    """
    try:
        with pathlib.Path(path).open("rb") as handle:
            return _read_header(handle)[0]
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot: {exc}") from exc


class SectionTable:
    """Read-only array views over a mapped snapshot's sections.

    Wraps one ``mmap.mmap`` (``MAP_SHARED``, ``PROT_READ``) of the
    snapshot file. :meth:`array` returns a zero-copy ``np.ndarray`` view
    (``writeable=False`` -- the buffer itself is read-only) and verifies
    the section's SHA-256 the first time that section is touched;
    :meth:`verify_all` checks every section eagerly. Offsets, dtypes and
    shapes are validated against the file size up front so a truncated
    or self-inconsistent header fails before any view is handed out.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = pathlib.Path(path)
        try:
            with self.path.open("rb") as handle:
                header, header_len = _read_header(handle)
                handle.seek(0, io.SEEK_END)
                file_size = handle.tell()
                self._mm = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        except OSError as exc:
            raise SnapshotError(f"cannot read snapshot: {exc}") from exc
        self.header = header
        self.data_start = _align(header_len)
        sections = header.get("sections")
        if not isinstance(sections, dict):
            raise SnapshotError("v2 snapshot header carries no sections")
        missing = [
            name for name, _ in _V2_SECTIONS if name not in sections
        ]
        if missing:
            raise SnapshotError(
                f"v2 snapshot is missing sections: {', '.join(missing)}"
            )
        self._specs: Dict[str, Tuple[int, np.dtype, Tuple[int, ...], str]] = {}
        for name, _ in _V2_SECTIONS:
            spec = sections[name]
            try:
                offset = int(spec["offset"])
                dtype = np.dtype(str(spec["dtype"]))
                shape = tuple(int(dim) for dim in spec["shape"])
                digest = str(spec["sha256"])
            except (KeyError, TypeError, ValueError) as exc:
                raise SnapshotError(
                    f"v2 section {name!r} has a malformed descriptor: {exc}"
                ) from exc
            nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
            if offset < 0 or offset % dtype.itemsize:
                raise SnapshotError(
                    f"v2 section {name!r} offset {offset} is misaligned"
                )
            if self.data_start + offset + nbytes > file_size:
                raise SnapshotError(
                    f"v2 section {name!r} overruns the snapshot file "
                    f"(needs {self.data_start + offset + nbytes} bytes, "
                    f"file has {file_size})"
                )
            self._specs[name] = (offset, dtype, shape, digest)
        self._views: Dict[str, np.ndarray] = {}
        self._verified: set = set()

    @property
    def mapped_bytes(self) -> int:
        """Total bytes of mapped section data (excludes padding)."""
        return sum(
            dtype.itemsize * int(np.prod(shape, dtype=np.int64))
            for _, dtype, shape, _ in self._specs.values()
        )

    def __len__(self) -> int:
        return len(self._specs)

    def array(self, name: str, verify: bool = True) -> np.ndarray:
        """Zero-copy read-only view of section *name*.

        The first access to a section verifies its checksum (unless
        *verify* is false -- :meth:`verify_all` uses that to report the
        section name on failure).
        """
        view = self._views.get(name)
        if view is None:
            offset, dtype, shape, _ = self._specs[name]
            count = int(np.prod(shape, dtype=np.int64))
            view = np.frombuffer(
                self._mm,
                dtype=dtype,
                count=count,
                offset=self.data_start + offset,
            ).reshape(shape)
            self._views[name] = view
        if verify and name not in self._verified:
            self.verify(name)
        return view

    def verify(self, name: str) -> None:
        """Check section *name* against its recorded SHA-256."""
        if name in self._verified:
            return
        view = self.array(name, verify=False)
        digest = hashlib.sha256(view.tobytes()).hexdigest()
        # Drop the local before a potential raise: a view captured in
        # the exception's traceback frame would pin the mapping open and
        # turn the copy loader's close() into a BufferError that masks
        # the checksum failure.
        del view
        if digest != self._specs[name][3]:
            self._views.pop(name, None)
            raise SnapshotError(
                f"snapshot checksum mismatch in section {name!r} "
                "(corrupt payload)"
            )
        self._verified.add(name)

    def verify_all(self) -> None:
        for name in self._specs:
            self.verify(name)

    def close(self) -> None:
        """Drop all views and close the mapping.

        Only safe once no caller-held view aliases the mapping (the copy
        loader materialises owned arrays before calling this).
        """
        self._views.clear()
        self._mm.close()


def _check_cache_analyzer(
    header: Dict[str, object], cache: Optional[TokenCache]
) -> None:
    analyzer = header.get("analyzer", {})
    if cache is not None and (
        cache.stem != analyzer.get("stem")
        or cache.drop_stopwords != analyzer.get("drop_stopwords")
    ):
        raise SnapshotError(
            "snapshot analyzer configuration "
            f"{analyzer!r} does not match the provided cache "
            f"(stem={cache.stem}, drop_stopwords={cache.drop_stopwords})"
        )


def load_snapshot(
    path: PathLike,
    cache: Optional[TokenCache] = None,
    mode: str = "copy",
    verify: bool = False,
) -> InvertedIndex:
    """Restore an :class:`InvertedIndex` written by :func:`save_snapshot`.

    *mode* selects the restore strategy: ``"copy"`` (default) verifies
    every section and rebuilds a mutable dict-based index in private
    memory; ``"mmap"`` returns a read-only
    :class:`repro.search.mapped.MappedSnapshotIndex` whose numeric state
    is served from shared read-only pages of the file itself -- no copy,
    and every section's checksum verified lazily on first use (eagerly
    when *verify* is true).

    When *cache* is given its analyzer configuration must match the one
    recorded in the snapshot (raises :class:`SnapshotError` otherwise),
    and either mode seeds it from the token-id sections: every distinct
    text's token stream and -- for a fresh cache -- the interned id
    arrays and the full vocabulary in snapshot order. Both modes thus
    leave a cache that gives every token the same id, and neither the
    first query nor re-slicing the index tokenises any indexed text.
    """
    if mode not in ("copy", "mmap"):
        raise ValueError(f"mode must be 'copy' or 'mmap', got {mode!r}")
    table = SectionTable(path)
    if mode == "mmap":
        return _load_mapped(table, cache=cache, verify=verify)
    return _load_copy(table, cache=cache)


@contextlib.contextmanager
def _payload_errors() -> Iterator[None]:
    """Re-raise a malformed payload's error (bad UTF-8, out-of-range
    rows ...) as a :class:`SnapshotError`."""
    try:
        yield
    except SnapshotError:
        raise
    except Exception as exc:
        raise SnapshotError(f"snapshot payload unreadable: {exc}") from exc


def _load_copy(
    table: SectionTable, cache: Optional[TokenCache]
) -> InvertedIndex:
    """Rebuild the classic index from a snapshot (always verified)."""
    try:
        _check_cache_analyzer(table.header, cache)
        table.verify_all()
        # np.array() copies each section out of the mapping: copy-mode
        # callers (and the cache seeder, which retains id arrays) must
        # own their state outright, with the file closed behind them.
        arrays = {
            name: np.array(table.array(name)) for name, _ in _V2_SECTIONS
        }
    finally:
        table.close()
    with _payload_errors():
        texts = _unpack_strings(
            arrays["texts_buf"], arrays["texts_indptr"]
        )
        article_ids = _unpack_strings(
            arrays["articles_buf"], arrays["articles_indptr"]
        )
        vocab_tokens = _unpack_strings(
            arrays["vocab_buf"], arrays["vocab_indptr"]
        )
        flat_positions = arrays["post_positions"].tolist()
        pos_bounds = arrays["post_pos_indptr"].tolist()
        position_lists = list(
            map(
                flat_positions.__getitem__,
                map(slice, pos_bounds, pos_bounds[1:]),
            )
        )
        index = _rebuild_index(
            table.header, arrays, position_lists, texts,
            article_ids, vocab_tokens, cache,
        )
        if cache is not None:
            _seed_cache(
                cache, arrays["tok_ids"], arrays["tok_indptr"],
                texts, vocab_tokens,
            )
    return index


def _load_mapped(
    table: SectionTable, cache: Optional[TokenCache], verify: bool
) -> InvertedIndex:
    from repro.search.mapped import MappedSnapshotIndex

    _check_cache_analyzer(table.header, cache)
    if verify:
        table.verify_all()
    if cache is not None:
        with _payload_errors():
            _seed_cache(
                cache,
                table.array("tok_ids"),
                table.array("tok_indptr"),
                _unpack_strings(
                    table.array("texts_buf"), table.array("texts_indptr")
                ),
                _unpack_strings(
                    table.array("vocab_buf"), table.array("vocab_indptr")
                ),
            )
    return MappedSnapshotIndex(table, cache=cache)


def _rebuild_index(
    header: Dict[str, object],
    arrays: Dict[str, np.ndarray],
    position_lists: List[List[int]],
    texts: List[str],
    article_ids: List[str],
    vocab_tokens: List[str],
    cache: Optional[TokenCache],
) -> InvertedIndex:
    index = InvertedIndex(cache=cache)
    text_rows = arrays["doc_text_row"].tolist()
    article_rows = arrays["doc_article_row"].tolist()
    date_ordinals = arrays["doc_dates"].tolist()
    pub_ordinals = arrays["doc_pub_dates"].tolist()
    reference_flags = arrays["doc_is_reference"].tolist()
    num_docs = len(text_rows)

    from_ordinal = datetime.date.fromordinal
    date_of: Dict[int, datetime.date] = {
        ordinal: from_ordinal(ordinal)
        for ordinal in set(date_ordinals) | set(pub_ordinals)
    }
    documents: List[IndexedSentence] = []
    append_document = documents.append
    by_date: Dict[datetime.date, List[int]] = {}
    by_date_get = by_date.get
    # Bypassing the frozen dataclass' per-field object.__setattr__ here
    # roughly halves restore time on large corpora; the resulting
    # instances are indistinguishable (same __dict__, __eq__, __hash__).
    new_sentence = IndexedSentence.__new__
    set_dict = object.__setattr__
    doc_texts = list(map(texts.__getitem__, text_rows))
    doc_articles = list(map(article_ids.__getitem__, article_rows))
    doc_dates = list(map(date_of.__getitem__, date_ordinals))
    doc_pub_dates = list(map(date_of.__getitem__, pub_ordinals))
    for doc_id in range(num_docs):
        date = doc_dates[doc_id]
        document = new_sentence(IndexedSentence)
        set_dict(
            document,
            "__dict__",
            {
                "doc_id": doc_id,
                "text": doc_texts[doc_id],
                "date": date,
                "publication_date": doc_pub_dates[doc_id],
                "article_id": doc_articles[doc_id],
                "is_reference": bool(reference_flags[doc_id]),
            },
        )
        append_document(document)
        docs_on_date = by_date_get(date)
        if docs_on_date is None:
            by_date[date] = [doc_id]
        else:
            docs_on_date.append(doc_id)

    token_lengths = np.diff(arrays["tok_indptr"])
    doc_lengths = token_lengths[arrays["doc_text_row"]]

    # All C-level: one dict(zip(...)) per token over pre-sliced position
    # lists. A Python-level loop over the (token, doc) entries would
    # dominate restore time.
    entry_bounds = arrays["post_entry_indptr"].tolist()
    entry_doc_ids = arrays["post_doc_ids"].tolist()
    if len(position_lists) != len(entry_doc_ids):
        raise SnapshotError(
            "snapshot postings misaligned: "
            f"{len(position_lists)} position lists for "
            f"{len(entry_doc_ids)} posting entries"
        )
    entry_slices = list(map(slice, entry_bounds, entry_bounds[1:]))
    postings: Dict[str, Dict[int, List[int]]] = {}
    for token, entry_slice in zip(vocab_tokens, entry_slices):
        if entry_slice.start == entry_slice.stop:
            continue
        postings[token] = dict(
            zip(entry_doc_ids[entry_slice], position_lists[entry_slice])
        )

    index._documents = documents
    index._doc_lengths = doc_lengths.tolist()
    index._total_length = int(doc_lengths.sum())
    index._by_date = by_date
    index._postings = postings
    index._version = int(header["index_version"])
    return index


def _seed_cache(
    cache: TokenCache,
    flat_ids: np.ndarray,
    tok_indptr: np.ndarray,
    texts: List[str],
    vocab_tokens: List[str],
) -> None:
    """Warm *cache* from the ``tok_ids`` / ``tok_indptr`` sections."""
    bounds = tok_indptr.tolist()
    flat_tokens = list(map(vocab_tokens.__getitem__, flat_ids.tolist()))
    streams = list(
        map(
            tuple,
            map(
                flat_tokens.__getitem__,
                map(slice, bounds, bounds[1:]),
            ),
        )
    )
    # Interned id arrays are only valid against the snapshot vocabulary;
    # seed them solely into a pristine cache whose vocabulary we also
    # control. A cache with prior entries still gets the token streams
    # (the expensive part) and re-interns ids lazily.
    if len(cache) == 0 and len(cache.vocabulary) == 0:
        cache.vocabulary.add_all(vocab_tokens)
        id_arrays: Optional[List[np.ndarray]] = list(
            map(flat_ids.__getitem__, map(slice, bounds, bounds[1:]))
        )
    else:
        id_arrays = None
    cache.warm(texts, streams, id_arrays=id_arrays)
