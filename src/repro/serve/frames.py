"""``wilson.rpc/v1``: binary candidate frames for ``/v1/shard/search``.

The scatter-gather fan-in ships candidate statistics -- per-hit term
frequencies, document lengths, dates, texts -- from every shard to the
router on every query. As JSON that is one dict per hit with repeated
field names, string-escaped text and decimal-rendered integers, parsed
back one token at a time. This module packs the same payload as one
JSON meta line plus aligned little-endian arrays, the same section
shape as the snapshot tier (:mod:`repro.search.snapshot`), so both
ends move columns with ``numpy`` instead of a tokenizer.

Wire layout::

    {"magic":"wilson.rpc/v1", ..., "sections":{name:{dtype,offset,shape}}}\\n
    <padding to 8 bytes>
    <section bytes, each offset 8-aligned, little-endian>

Section offsets are relative to the (aligned) end of the meta line, so
the meta's own length never feeds back into the offsets it describes.
A CRC-32 of the section region is carried in the meta and checked on
decode -- a truncated or corrupted frame raises :class:`FrameError`
(a ``ValueError``, so the router's existing bad-payload handling
treats it as a replica failure).

The codec is **bit-exact**:
``decode_shard_search(encode_shard_search(payload))`` returns a dict
equal to *payload* -- every value in a shard-search payload is an
``int``, ``bool`` or ``str`` (dates travel as proleptic-Gregorian
ordinals and come back through ``date.fromordinal().isoformat()``,
which round-trips ISO dates exactly), so the merged BM25 scores the
router computes are the floats an in-process merge would compute
(tests/test_serve_frames.py).

Frames are the route's only encoding: the router sends ``Accept:
application/x-wilson-rpc`` and a worker always answers with that
content type.
"""

from __future__ import annotations

import datetime
import json
import zlib
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.search.columns import pack_strings, unpack_strings

#: The frame format identifier (meta ``magic`` field).
RPC_SCHEMA = "wilson.rpc/v1"

#: The frames' content type; sent as ``Accept`` by the router and as
#: ``Content-Type`` by every worker's ``/v1/shard/search``.
RPC_CONTENT_TYPE = "application/x-wilson-rpc"

#: Section alignment (bytes). Eight covers every dtype used here.
_ALIGN = 8

#: Section name -> (payload column, dtype); the tf matrix and string
#: columns are handled specially.
_INT_SECTIONS = ("doc_ids", "lengths", "dates", "publication_dates")


class FrameError(ValueError):
    """A malformed, truncated or corrupted ``wilson.rpc/v1`` frame."""


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def encode_shard_search(payload: Dict[str, Any]) -> bytes:
    """Encode one ``/v1/shard/search`` payload dict as a binary frame.

    *payload* is exactly the dict the JSON path would pass to
    :func:`~repro.serve.app.canonical_json` (see
    :func:`repro.search.query.candidates_payload`).
    """
    hits = payload["hits"]
    terms = list(payload["terms"])
    n, t = len(hits), len(terms)

    ordinal_of: Dict[str, int] = {}

    def ordinal(iso: str) -> int:
        cached = ordinal_of.get(iso)
        if cached is None:
            cached = datetime.date.fromisoformat(iso).toordinal()
            ordinal_of[iso] = cached
        return cached

    columns: Dict[str, np.ndarray] = {}
    columns["doc_ids"] = np.fromiter(
        (hit["doc_id"] for hit in hits), dtype="<i8", count=n
    )
    columns["lengths"] = np.fromiter(
        (hit["length"] for hit in hits), dtype="<i8", count=n
    )
    columns["dates"] = np.fromiter(
        (ordinal(hit["date"]) for hit in hits), dtype="<i8", count=n
    )
    columns["publication_dates"] = np.fromiter(
        (ordinal(hit["publication_date"]) for hit in hits),
        dtype="<i8",
        count=n,
    )
    tf = np.zeros((n, t), dtype="<i8")
    for row, hit in enumerate(hits):
        tf[row, :] = hit["tf"]
    columns["tf"] = tf
    columns["is_reference"] = np.fromiter(
        (1 if hit["is_reference"] else 0 for hit in hits),
        dtype="|u1",
        count=n,
    )
    text_buffer, text_indptr = pack_strings(
        [hit["text"] for hit in hits]
    )
    columns["text_buffer"] = text_buffer.astype("|u1", copy=False)
    columns["text_indptr"] = text_indptr.astype("<i8", copy=False)
    article_buffer, article_indptr = pack_strings(
        [hit["article_id"] for hit in hits]
    )
    columns["article_id_buffer"] = article_buffer.astype("|u1", copy=False)
    columns["article_id_indptr"] = article_indptr.astype(
        "<i8", copy=False
    )
    columns["df"] = np.fromiter(
        (int(value) for value in payload["stats"]["df"]),
        dtype="<i8",
        count=t,
    )

    sections: Dict[str, Dict[str, Any]] = {}
    chunks: List[bytes] = []
    offset = 0
    for name, array in columns.items():
        offset = _aligned(offset)
        raw = array.tobytes()
        sections[name] = {
            "dtype": array.dtype.str,
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
        "payload_schema": payload["schema"],
        "index_version": int(payload["index_version"]),
        "terms": terms,
        "documents": int(payload["stats"]["documents"]),
        "total_tokens": int(payload["stats"]["total_tokens"]),
        "count": int(payload["count"]),
        "truncated": bool(payload["truncated"]),
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


def decode_shard_search(frame: bytes) -> Dict[str, Any]:
    """Decode a binary frame back into the exact JSON-path payload dict."""
    newline = frame.find(b"\n")
    if newline < 0:
        raise FrameError("no meta line in frame")
    try:
        meta = json.loads(frame[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"bad frame meta: {exc}")
    if not isinstance(meta, dict) or meta.get("magic") != RPC_SCHEMA:
        raise FrameError(
            f"not a {RPC_SCHEMA} frame: magic={meta.get('magic')!r}"
            if isinstance(meta, dict)
            else "frame meta is not an object"
        )
    data = frame[_aligned(newline + 1):]
    if zlib.crc32(data) != meta["crc32"]:
        raise FrameError("frame checksum mismatch")

    def section(name: str) -> np.ndarray:
        descriptor = meta["sections"][name]
        shape = tuple(descriptor["shape"])
        count = 1
        for dim in shape:
            count *= dim
        array = np.frombuffer(
            data,
            dtype=np.dtype(descriptor["dtype"]),
            count=count,
            offset=descriptor["offset"],
        )
        return array.reshape(shape)

    try:
        ints = {name: section(name).tolist() for name in _INT_SECTIONS}
        tf_rows = section("tf").tolist()
        is_reference = section("is_reference").tolist()
        texts = unpack_strings(
            section("text_buffer"), section("text_indptr")
        )
        article_ids = unpack_strings(
            section("article_id_buffer"), section("article_id_indptr")
        )
        df = section("df").tolist()
    except (KeyError, ValueError) as exc:
        raise FrameError(f"bad frame sections: {exc}")

    iso_of: Dict[int, str] = {}

    def iso(ordinal: int) -> str:
        cached = iso_of.get(ordinal)
        if cached is None:
            cached = datetime.date.fromordinal(ordinal).isoformat()
            iso_of[ordinal] = cached
        return cached

    hits = [
        {
            "doc_id": ints["doc_ids"][row],
            "length": ints["lengths"][row],
            "tf": tf_rows[row],
            "text": texts[row],
            "date": iso(ints["dates"][row]),
            "publication_date": iso(ints["publication_dates"][row]),
            "article_id": article_ids[row],
            "is_reference": bool(is_reference[row]),
        }
        for row in range(len(texts))
    ]
    return {
        "schema": meta["payload_schema"],
        "index_version": meta["index_version"],
        "terms": list(meta["terms"]),
        "stats": {
            "documents": meta["documents"],
            "total_tokens": meta["total_tokens"],
            "df": df,
        },
        "count": meta["count"],
        "truncated": meta["truncated"],
        "hits": hits,
    }
