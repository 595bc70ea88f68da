"""``wilson.rpc/v1``: binary candidate frames for ``/v1/shard/search``.

The scatter-gather fan-in ships candidate statistics -- per-hit term
frequencies, document lengths, dates, texts -- from every shard to the
router on every query. This module packs one shard's answer
(:class:`~repro.search.query.ShardPayload`) as one JSON meta line plus
aligned little-endian arrays, the same section shape as the snapshot
tier (:mod:`repro.search.snapshot`), so both ends move columns with
``numpy``: the shard writes the arrays it gathered and cut from its
index, and the router reads them back as views of the frame.

Wire layout::

    {"magic":"wilson.rpc/v1", ..., "sections":{name:{dtype,offset,shape}}}\\n
    <padding to 8 bytes>
    <section bytes, each offset 8-aligned, little-endian>

Section offsets are relative to the (aligned) end of the meta line, so
the meta's own length never feeds back into the offsets it describes.
Per hit (``count`` rows) the sections carry the slice-local doc id,
length, content and publication date (proleptic-Gregorian ordinals),
reference flag, one term-frequency row (``tf``, ``count`` x
``len(terms)``) and the UTF-8 text and article id (a byte buffer plus
``count + 1`` offsets each); ``df`` holds one document frequency per
term.

:func:`decode_shard_search` returns read-only ``np.frombuffer`` views of
the frame -- no per-hit object is built. It checks the meta's keys, a
CRC-32 of the section region, every section's dtype and shape against
``count`` and ``len(terms)``, each offset table (starts at 0, never
decreases, ends at its buffer's length, cuts UTF-8 only between
characters), that the string buffers are UTF-8 (by decoding each buffer
whole, once) and the value ranges the merge relies on; the router then
builds strings only for the rows its merge keeps. Any malformed,
truncated or corrupted frame raises :class:`FrameError` (a
``ValueError``, so the router treats it as a replica failure and fails
over).

The codec is **bit-exact**: every value is an integer or UTF-8 bytes,
so the merged BM25 scores the router computes are the floats an
in-process merge would compute (tests/test_serve_frames.py), and the
frame bytes are pinned by tests/test_frames_golden.py.

Frames are the route's only encoding: the router sends ``Accept:
application/x-wilson-rpc`` and a worker always answers with that
content type.
"""

from __future__ import annotations

import datetime
import json
import math
import zlib
from typing import Any, Dict, List

import numpy as np

from repro.search.index import DocumentColumns
from repro.search.query import ShardCandidates, ShardPayload

#: The frame format identifier (meta ``magic`` field).
RPC_SCHEMA = "wilson.rpc/v1"

#: The frames' content type; sent as ``Accept`` by the router and as
#: ``Content-Type`` by every worker's ``/v1/shard/search``.
RPC_CONTENT_TYPE = "application/x-wilson-rpc"

#: Section alignment (bytes). Eight covers every dtype used here.
_ALIGN = 8

#: Every section, in frame order, with its dtype.
_SECTIONS = (
    ("doc_ids", "<i8"),
    ("lengths", "<i8"),
    ("dates", "<i8"),
    ("publication_dates", "<i8"),
    ("tf", "<i8"),
    ("is_reference", "|u1"),
    ("text_buffer", "|u1"),
    ("text_indptr", "<i8"),
    ("article_id_buffer", "|u1"),
    ("article_id_indptr", "<i8"),
    ("df", "<i8"),
)

_DTYPES = dict(_SECTIONS)

#: The meta keys a frame must carry, with their JSON types.
_META = {
    "magic": str,
    "payload_schema": str,
    "index_version": int,
    "terms": list,
    "documents": int,
    "total_tokens": int,
    "count": int,
    "truncated": bool,
    "crc32": int,
    "sections": dict,
}

_MAX_ORDINAL = datetime.date.max.toordinal()


class FrameError(ValueError):
    """A malformed, truncated or corrupted ``wilson.rpc/v1`` frame."""


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def encode_shard_search(payload: ShardPayload) -> bytes:
    """Encode one ``/v1/shard/search`` answer as a binary frame.

    *payload* is what :func:`repro.search.query.candidates_payload`
    builds; its arrays are written as they are.
    """
    candidates, fields = payload.candidates, payload.fields
    columns = {
        "doc_ids": candidates.doc_ids,
        "lengths": candidates.lengths,
        "dates": fields.dates,
        "publication_dates": fields.publication_dates,
        "tf": candidates.tf,
        "is_reference": fields.is_reference,
        "text_buffer": fields.text_buffer,
        "text_indptr": fields.text_indptr,
        "article_id_buffer": fields.article_id_buffer,
        "article_id_indptr": fields.article_id_indptr,
        "df": candidates.document_frequencies,
    }

    sections: Dict[str, Dict[str, Any]] = {}
    chunks: List[bytes] = []
    offset = 0
    for name, dtype in _SECTIONS:
        array = np.asarray(columns[name], dtype=dtype)
        offset = _aligned(offset)
        raw = array.tobytes()
        sections[name] = {
            "dtype": dtype,
            "offset": offset,
            "shape": list(array.shape),
        }
        chunks.append(raw)
        offset += len(raw)
    data = b"".join(
        chunk.ljust(_aligned(len(chunk)), b"\x00")
        if position + 1 < len(chunks)
        else chunk
        for position, chunk in enumerate(chunks)
    )

    meta = {
        "magic": RPC_SCHEMA,
        "payload_schema": payload.schema,
        "index_version": int(payload.index_version),
        "terms": list(candidates.terms),
        "documents": int(candidates.documents),
        "total_tokens": int(candidates.total_tokens),
        "count": payload.count,
        "truncated": bool(candidates.truncated),
        "crc32": zlib.crc32(data),
        "sections": sections,
    }
    header = (
        json.dumps(meta, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
        + b"\n"
    )
    return header.ljust(_aligned(len(header)), b"\x00") + data


def decode_shard_search(frame: bytes) -> ShardPayload:
    """Decode a binary frame into read-only views of its sections.

    Raises :class:`FrameError` for any frame that is not well formed
    (see the module docstring for what is checked).
    """
    newline = frame.find(b"\n")
    if newline < 0:
        raise FrameError("no meta line in frame")
    try:
        meta = json.loads(frame[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"bad frame meta: {exc}")
    if not isinstance(meta, dict):
        raise FrameError("frame meta is not an object")
    if meta.get("magic") != RPC_SCHEMA:
        raise FrameError(
            f"not a {RPC_SCHEMA} frame: magic={meta.get('magic')!r}"
        )
    for key, kind in _META.items():
        if not isinstance(meta.get(key), kind):
            raise FrameError(
                f"frame meta {key!r} missing or not a {kind.__name__}"
            )
    terms = meta["terms"]
    if not all(isinstance(term, str) for term in terms):
        raise FrameError("frame meta 'terms' holds a non-string")
    data = memoryview(frame).toreadonly()[_aligned(newline + 1):]
    if zlib.crc32(data) != meta["crc32"]:
        raise FrameError("frame checksum mismatch")

    count, width = meta["count"], len(terms)
    for key in ("count", "documents", "total_tokens"):
        if meta[key] < 0:
            raise FrameError(f"frame meta {key!r} is negative: {meta[key]}")

    def section(name: str, shape: tuple) -> np.ndarray:
        descriptor = meta["sections"].get(name)
        if not isinstance(descriptor, dict):
            raise FrameError(f"frame section {name!r} missing")
        if descriptor.get("dtype") != _DTYPES[name]:
            raise FrameError(
                f"frame section {name!r} has dtype "
                f"{descriptor.get('dtype')!r}, expected {_DTYPES[name]!r}"
            )
        if descriptor.get("shape") != list(shape):
            raise FrameError(
                f"frame section {name!r} has shape "
                f"{descriptor.get('shape')!r}, expected {list(shape)}"
            )
        offset = descriptor.get("offset")
        size = math.prod(shape)
        itemsize = np.dtype(_DTYPES[name]).itemsize
        if (
            not isinstance(offset, int)
            or offset < 0
            or offset % _ALIGN
            or offset + size * itemsize > len(data)
        ):
            raise FrameError(
                f"frame section {name!r} at offset {offset!r} does not "
                f"fit the frame"
            )
        return np.frombuffer(
            data, dtype=_DTYPES[name], count=size, offset=offset
        ).reshape(shape)

    def strings(buffer: str, indptr: str):
        offsets = section(indptr, (count + 1,))
        if offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1]):
            raise FrameError(
                f"frame section {indptr!r} does not start at 0 and ascend"
            )
        values = section(buffer, (int(offsets[-1]),))
        # Valid UTF-8 cut only where a character starts decodes row by
        # row. The check decodes the whole buffer once; readers decode
        # the rows they keep again.
        try:
            str(memoryview(values), "utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError(f"frame section {buffer!r}: {exc}")
        starts = offsets[:-1][offsets[:-1] < len(values)]
        if np.any(values[starts] & 0xC0 == 0x80):
            raise FrameError(
                f"frame section {indptr!r} splits a UTF-8 character"
            )
        return values, offsets

    columns = {
        name: section(name, (count,))
        for name in ("doc_ids", "lengths", "dates", "publication_dates",
                     "is_reference")
    }
    tf = section("tf", (count, width))
    df = section("df", (width,))
    text_buffer, text_indptr = strings("text_buffer", "text_indptr")
    article_id_buffer, article_id_indptr = strings(
        "article_id_buffer", "article_id_indptr"
    )
    for name in ("doc_ids", "lengths"):
        if count and columns[name].min() < 0:
            raise FrameError(f"frame section {name!r} holds a negative value")
    if width and ((count and tf.min() < 0) or df.min() < 0):
        raise FrameError("frame term frequencies hold a negative value")
    # df <= documents on every slice keeps the merge's summed idf
    # argument positive.
    if width and df.max() > meta["documents"]:
        raise FrameError("frame document frequency exceeds its documents")
    for name in ("dates", "publication_dates"):
        ordinals = columns[name]
        if count and (ordinals.min() < 1 or ordinals.max() > _MAX_ORDINAL):
            raise FrameError(f"frame section {name!r} holds a non-date")

    return ShardPayload(
        schema=meta["payload_schema"],
        index_version=meta["index_version"],
        candidates=ShardCandidates(
            terms=tuple(terms),
            documents=meta["documents"],
            total_tokens=meta["total_tokens"],
            document_frequencies=tuple(df.tolist()),
            doc_ids=columns["doc_ids"],
            lengths=columns["lengths"],
            tf=tf,
            truncated=meta["truncated"],
        ),
        fields=DocumentColumns(
            dates=columns["dates"],
            publication_dates=columns["publication_dates"],
            is_reference=columns["is_reference"],
            text_buffer=text_buffer,
            text_indptr=text_indptr,
            article_id_buffer=article_id_buffer,
            article_id_indptr=article_id_indptr,
        ),
    )
