"""Binary index snapshots: the one on-disk form of a search index.

A snapshot stores an :class:`~repro.search.index.InvertedIndex`'s
section arrays (:mod:`repro.search.columns`) unchanged, so restoring it
never re-tokenises: the string tables, per-document columns, token
streams, positional postings and date grouping are the same arrays the
index reads from, and the token streams seed a
:class:`~repro.text.analysis.TokenCache` without analysing anything.
The monotonic ``index_version`` (the serve-cache invalidation key)
travels in the header.

The layout is ``wilson.snapshot/v2``: one JSON meta line (magic, format
version, ``index_version``, analyzer configuration and a per-section
offset/dtype/shape/SHA-256 descriptor), then each array as a raw
little-endian **section** at a page-aligned offset. This module is the
only one that knows that layout: a shard slice (:mod:`repro.serve.
topology`) and a sealed ingest segment (:mod:`repro.ingest.segment`)
are snapshots too, told apart by one extra header key (``"slice"``,
``"segment"``). A snapshot loads two
ways: ``mode="mmap"`` maps the file ``MAP_SHARED`` read-only and the
index reads its sections as views of the page cache -- no copy,
O(page-fault) boot, and N worker processes share one physical copy of
the index, with section checksums verified lazily on first access
(eagerly with ``verify=True``); ``mode="copy"`` verifies every section
and reads it into owned arrays, giving a mutable index.

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

from repro.search.columns import SECTIONS, Columns
from repro.search.index import InvertedIndex
from repro.text.analysis import TokenCache

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


# -- save --------------------------------------------------------------------


def _header_meta(
    index: InvertedIndex, sections: Dict[str, np.ndarray]
) -> Dict[str, object]:
    """The descriptive header fields of *index*'s snapshot."""
    dates = sections["date_unique"]
    from_ordinal = datetime.date.fromordinal
    cache = index.cache
    return {
        "index_version": index.index_version,
        "documents": len(sections["doc_dates"]),
        "vocabulary": len(sections["vocab_indptr"]) - 1,
        # The article table holds each id once; "" (no id) is not one.
        "articles": int(
            np.count_nonzero(np.diff(sections["articles_indptr"]))
        ),
        "date_span": (
            [
                from_ordinal(int(dates[0])).isoformat(),
                from_ordinal(int(dates[-1])).isoformat(),
            ]
            if len(dates)
            else None
        ),
        "analyzer": {
            "stem": cache.stem if cache is not None else True,
            "drop_stopwords": (
                cache.drop_stopwords if cache is not None else True
            ),
        },
    }


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


def save_snapshot(
    index: InvertedIndex,
    path: PathLike,
    extra: Optional[Dict[str, object]] = None,
) -> None:
    """Write *index*'s section arrays, unchanged, to *path*.

    One JSON meta line (the magic, the format version, a ``sections``
    map of ``{offset, dtype, shape, sha256}`` descriptors and the
    descriptive fields of :func:`_header_meta`), then each section at a
    :data:`_SECTION_ALIGN`-aligned offset. The file is written
    atomically (see :func:`replacing`).

    *extra* adds header keys, embedded verbatim, that
    :func:`snapshot_info` surfaces without reading the payload: the
    topology layer marks shard *k* of *N* with its date range under
    ``"slice"`` (see :mod:`repro.serve.topology`), and the ingest plane
    marks a sealed segment with its sequence number and article count
    under ``"segment"`` (see :mod:`repro.ingest.segment`). A key the
    snapshot writes itself raises ``ValueError``.
    """
    sections = index.sections()
    section_meta: Dict[str, Dict[str, object]] = {}
    offset = 0
    for name, array in sections.items():
        offset = _align(offset)
        section_meta[name] = {
            "offset": offset,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "sha256": hashlib.sha256(array.tobytes()).hexdigest(),
        }
        offset += array.nbytes
    header = {
        "meta": SNAPSHOT_MAGIC_V2,
        "format_version": SNAPSHOT_FORMAT_VERSION_V2,
        "payload_bytes": offset,
        "section_align": _SECTION_ALIGN,
        "sections": section_meta,
        **_header_meta(index, sections),
    }
    extra = extra or {}
    reserved = sorted(header.keys() & extra.keys())
    if reserved:
        raise ValueError(f"header keys {reserved} are the snapshot's own")
    header.update(extra)
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
        for name, array in sections.items():
            target = section_meta[name]["offset"]
            if target > cursor:
                handle.write(b"\x00" * (target - cursor))
                cursor = target
            handle.write(array.tobytes())
            cursor += array.nbytes


# -- load --------------------------------------------------------------------


def _read_header(handle) -> Tuple[Dict[str, object], int]:
    """Parse the meta line; returns ``(header, header_line_bytes)``."""
    line = handle.readline(_MAX_HEADER_BYTES + 1)
    if len(line) > _MAX_HEADER_BYTES or not line.endswith(b"\n"):
        raise SnapshotError("snapshot header missing or oversized")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"snapshot header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("meta") != SNAPSHOT_MAGIC_V2:
        raise SnapshotError(f"not a {SNAPSHOT_MAGIC_V2} file")
    if header.get("format_version") != SNAPSHOT_FORMAT_VERSION_V2:
        raise SnapshotError(
            "unsupported snapshot format_version "
            f"{header.get('format_version')!r} "
            f"(a {SNAPSHOT_MAGIC_V2} file must declare "
            f"{SNAPSHOT_FORMAT_VERSION_V2})"
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
        missing = [name for name, _ in SECTIONS if name not in sections]
        if missing:
            raise SnapshotError(
                f"v2 snapshot is missing sections: {', '.join(missing)}"
            )
        self._specs: Dict[str, Tuple[int, np.dtype, Tuple[int, ...], str]] = {}
        for name, _ in SECTIONS:
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

    def __getitem__(self, name: str) -> np.ndarray:
        return self.array(name)

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

    *mode* selects where the section arrays live: ``"copy"`` (default)
    verifies every section and reads it into owned arrays, giving a
    mutable index; ``"mmap"`` gives a read-only index over views of the
    file's shared pages -- no copy, and every section's checksum
    verified lazily on first use (eagerly when *verify* is true).

    When *cache* is given its analyzer configuration must match the one
    recorded in the snapshot (raises :class:`SnapshotError` otherwise),
    and either mode seeds it with every distinct text's token stream from
    the token-id sections, so neither the first query nor re-slicing the
    index tokenises any indexed text. Seeding only saves that time: a
    seeded cache serves the same streams tokenising would produce.
    """
    if mode not in ("copy", "mmap"):
        raise ValueError(f"mode must be 'copy' or 'mmap', got {mode!r}")
    table = SectionTable(path)
    header = table.header
    if mode == "copy":
        try:
            _check_cache_analyzer(header, cache)
            table.verify_all()
            # np.array() copies each section out of the mapping: copy-mode
            # callers own their state outright, with the file closed
            # behind them.
            sections = {
                name: np.array(table.array(name)) for name, _ in SECTIONS
            }
        finally:
            table.close()
        mapped = None
    else:
        _check_cache_analyzer(header, cache)
        if verify:
            table.verify_all()
        sections, mapped = table, table
    columns = Columns(sections)
    if cache is not None:
        with _payload_errors():
            _seed_cache(
                cache,
                columns["tok_ids"],
                columns["tok_indptr"],
                columns.strings("texts"),
                columns.strings("vocab"),
            )
    return InvertedIndex._of(
        columns, int(header["index_version"]), cache, table=mapped
    )


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
    cache.warm(texts, streams)
