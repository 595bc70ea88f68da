"""``wilson.rpc/v1`` binary candidate frames: bit-exactness, negotiation.

The frame codec's whole value is that it changes *nothing* but bytes
on the wire: ``decode(encode(payload))`` must hold the columns the
shard gathered, for real corpus data, empty results and unicode text
alike (a hypothesis round trip covers random columns). Every malformed
frame must fail loudly (:class:`FrameError`), inside the router's
replica failover rather than later in its merge, and
``/v1/shard/search`` answers frames, the route's only encoding, without
building a per-document object.
"""

import dataclasses
import datetime
import http.client
import json
import urllib.parse
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.search.columns import pack_strings
from repro.search.engine import SearchEngine
from repro.search.index import DocumentColumns, InvertedIndex
from repro.search.query import (
    SearchQuery,
    ShardCandidates,
    ShardPayload,
    candidates_payload,
    gather_candidates,
)
from repro.search.realtime import RealTimeTimelineSystem
from repro.serve import (
    RPC_CONTENT_TYPE,
    RPC_SCHEMA,
    BackgroundServer,
    FrameError,
    ServeConfig,
    TimelineServer,
    WIRE_SCHEMA,
    canonical_json,
    decode_shard_search,
    encode_shard_search,
    export_slices,
)
from repro.tlsdata.synthetic import make_timeline17_like


@pytest.fixture(scope="module")
def instance():
    return make_timeline17_like(scale=0.02, seed=11).instances[0]


@pytest.fixture(scope="module")
def payload(instance):
    engine = SearchEngine()
    engine.add_articles(instance.corpus.articles)
    start, end = instance.corpus.window
    candidates = gather_candidates(
        engine.index,
        SearchQuery(
            keywords=tuple(instance.corpus.query),
            start=start,
            end=end,
            limit=500,
        ),
    )
    assert len(candidates.doc_ids), "fixture must produce real hits"
    return candidates_payload(engine.index, candidates, 3, WIRE_SCHEMA)


# -- helpers --------------------------------------------------------------------


def as_dict(payload: ShardPayload) -> dict:
    """*payload* as one JSON object with a dict per hit: the encoding
    frames replace, kept here to compare against."""
    candidates, fields = payload.candidates, payload.fields
    return {
        "schema": payload.schema,
        "index_version": payload.index_version,
        "terms": list(candidates.terms),
        "stats": {
            "documents": candidates.documents,
            "total_tokens": candidates.total_tokens,
            "df": list(candidates.document_frequencies),
        },
        "count": payload.count,
        "truncated": candidates.truncated,
        "hits": [
            {
                "doc_id": doc_id,
                "length": length,
                "tf": tf,
                "text": text,
                "date": date.isoformat(),
                "publication_date": publication_date.isoformat(),
                "article_id": article_id,
                "is_reference": reference,
            }
            for doc_id, length, tf, (
                date, text, publication_date, article_id, reference
            ) in zip(
                candidates.doc_ids.tolist(),
                candidates.lengths.tolist(),
                candidates.tf.tolist(),
                fields.records(),
            )
        ],
    }


def assert_same(left: ShardPayload, right: ShardPayload) -> None:
    """*left* and *right* hold equal scalars and equal columns."""
    assert (left.schema, left.index_version, left.count) == (
        right.schema, right.index_version, right.count
    )
    for name in ("terms", "documents", "total_tokens",
                 "document_frequencies", "truncated"):
        assert getattr(left.candidates, name) == getattr(
            right.candidates, name
        ), name
    for name in ("doc_ids", "lengths", "tf"):
        ours = getattr(left.candidates, name)
        theirs = getattr(right.candidates, name)
        assert ours.shape == theirs.shape, name
        assert ours.tolist() == theirs.tolist(), name
    for field in dataclasses.fields(DocumentColumns):
        ours = getattr(left.fields, field.name)
        theirs = getattr(right.fields, field.name)
        assert ours.shape == theirs.shape, field.name
        assert ours.tolist() == theirs.tolist(), field.name


def make_payload(hits, terms=("storm",), df=None, truncated=False,
                 documents=None):
    """A payload from explicit hits: ``(doc_id, length, tf_row, date,
    publication_date, is_reference, text, article_id)`` tuples."""
    width = len(terms)
    text_buffer, text_indptr = pack_strings([hit[6] for hit in hits])
    article_buffer, article_indptr = pack_strings([hit[7] for hit in hits])
    return ShardPayload(
        schema=WIRE_SCHEMA,
        index_version=7,
        candidates=ShardCandidates(
            terms=tuple(terms),
            documents=documents if documents is not None else max(
                1, len(hits)
            ),
            total_tokens=sum(hit[1] for hit in hits),
            document_frequencies=tuple(df if df is not None else [1] * width),
            doc_ids=np.array([hit[0] for hit in hits], dtype=np.int64),
            lengths=np.array([hit[1] for hit in hits], dtype=np.int64),
            tf=np.array(
                [hit[2] for hit in hits], dtype=np.int64
            ).reshape(len(hits), width),
            truncated=truncated,
        ),
        fields=DocumentColumns(
            dates=np.array(
                [hit[3].toordinal() for hit in hits], dtype=np.int64
            ),
            publication_dates=np.array(
                [hit[4].toordinal() for hit in hits], dtype=np.int64
            ),
            is_reference=np.array(
                [1 if hit[5] else 0 for hit in hits], dtype=np.uint8
            ),
            text_buffer=text_buffer,
            text_indptr=text_indptr,
            article_id_buffer=article_buffer,
            article_id_indptr=article_indptr,
        ),
    )


DAY = datetime.date(2011, 3, 11)


class TestRoundTrip:
    def test_decode_encode_is_the_identity_on_real_payloads(self, payload):
        frame = encode_shard_search(payload)
        decoded = decode_shard_search(frame)
        assert_same(decoded, payload)
        # Re-encoding what was decoded writes the same bytes.
        assert encode_shard_search(decoded) == frame

    def test_round_trip_preserves_canonical_json_bytes(self, payload):
        """The byte-identity guarantee in one line: a JSON rendering of
        the decoded columns equals the shard's own."""
        frame = encode_shard_search(payload)
        assert canonical_json(as_dict(decode_shard_search(frame))) == (
            canonical_json(as_dict(payload))
        )

    def test_empty_hit_list_round_trips(self, payload):
        empty = make_payload([], terms=payload.candidates.terms)
        decoded = decode_shard_search(encode_shard_search(empty))
        assert_same(decoded, empty)
        assert decoded.count == 0
        assert decoded.candidates.tf.shape == (0, len(empty.candidates.terms))

    def test_unicode_text_round_trips(self, payload):
        modified = make_payload(
            [(4, 9, [2], DAY, DAY, True, "émeute — 事件 🗞 naïve",
              "árticle-0")]
        )
        decoded = decode_shard_search(encode_shard_search(modified))
        assert_same(decoded, modified)
        assert decoded.fields.texts() == ["émeute — 事件 🗞 naïve"]
        assert decoded.fields.article_ids() == ["árticle-0"]

    def test_frames_are_smaller_than_canonical_json(self, payload):
        assert len(encode_shard_search(payload)) < len(
            canonical_json(as_dict(payload))
        )

    def test_decoded_columns_are_read_only_views(self, payload):
        decoded = decode_shard_search(encode_shard_search(payload))
        for array in (
            decoded.candidates.doc_ids,
            decoded.candidates.tf,
            decoded.fields.text_buffer,
            decoded.fields.dates,
        ):
            assert not array.flags.writeable
            assert not array.flags.owndata


ordinals = st.integers(
    datetime.date(1990, 1, 1).toordinal(),
    datetime.date(2040, 12, 31).toordinal(),
).map(datetime.date.fromordinal)


@st.composite
def payloads(draw) -> ShardPayload:
    terms = draw(st.lists(st.text(max_size=6), max_size=3))
    count = draw(st.integers(0, 5))
    hits = [
        (
            draw(st.integers(0, 2**40)),
            draw(st.integers(0, 500)),
            draw(st.lists(st.integers(0, 50), min_size=len(terms),
                          max_size=len(terms))),
            draw(ordinals),
            draw(ordinals),
            draw(st.booleans()),
            draw(st.text(max_size=12)),
            draw(st.text(max_size=5)),
        )
        for _ in range(count)
    ]
    df = draw(st.lists(st.integers(0, 99), min_size=len(terms),
                       max_size=len(terms)))
    return make_payload(
        hits,
        terms=terms,
        df=df,
        truncated=draw(st.booleans()),
        documents=draw(st.integers(max(df, default=0), 10**6)),
    )


class TestColumnsRoundTrip:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(payload=payloads())
    @example(payload=make_payload([], terms=()))
    @example(
        payload=make_payload(
            [(0, 0, [], DAY, DAY, False, "", ""),
             (3, 2, [], DAY, DAY, True, "事件 🗞", "é")],
            terms=(),
        )
    )
    def test_random_columns_round_trip(self, payload):
        """0 hits, 0 terms, empty and multi-byte strings alike."""
        frame = encode_shard_search(payload)
        decoded = decode_shard_search(frame)
        assert_same(decoded, payload)
        assert encode_shard_search(decoded) == frame
        assert as_dict(decoded) == as_dict(payload)


# -- malformed frames -----------------------------------------------------------


def split(frame: bytes):
    """``(meta, section bytes)`` of *frame*."""
    newline = frame.index(b"\n")
    start = (newline + 1 + 7) // 8 * 8
    return json.loads(frame[:newline]), bytearray(frame[start:])


def join(meta: dict, data: bytes, checksum: bool = True) -> bytes:
    """A frame of *meta* over *data*, its CRC recomputed by default."""
    if checksum:
        meta = dict(meta, crc32=zlib.crc32(bytes(data)))
    header = (
        json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
        + b"\n"
    )
    return header.ljust((len(header) + 7) // 8 * 8, b"\x00") + bytes(data)


def one_hit_frame() -> bytes:
    return encode_shard_search(
        make_payload([(4, 9, [2], DAY, DAY, False, "quake", "a-1")])
    )


def set_int64(data: bytearray, meta: dict, section: str, index: int,
              value: int) -> None:
    offset = meta["sections"][section]["offset"] + 8 * index
    data[offset : offset + 8] = int(value).to_bytes(8, "little", signed=True)


class TestCorruption:
    def test_flipped_section_byte_fails_the_checksum(self, payload):
        frame = bytearray(encode_shard_search(payload))
        frame[-1] ^= 0xFF
        with pytest.raises(FrameError, match="checksum"):
            decode_shard_search(bytes(frame))

    def test_truncated_frame_is_rejected(self, payload):
        frame = encode_shard_search(payload)
        with pytest.raises(FrameError):
            decode_shard_search(frame[: len(frame) // 2])

    def test_wrong_magic_is_rejected(self, payload):
        with pytest.raises(FrameError, match="magic"):
            decode_shard_search(b'{"magic":"not-wilson"}\n')

    def test_json_body_is_rejected_as_a_frame(self, payload):
        with pytest.raises(FrameError):
            decode_shard_search(canonical_json(as_dict(payload)))


class TestMalformedFrames:
    """Doctored frames with a valid checksum: each raises FrameError."""

    def test_the_doctoring_helpers_round_trip(self):
        frame = one_hit_frame()
        assert join(*split(frame)) == frame

    @pytest.mark.parametrize("key", ["crc32", "count", "terms", "sections"])
    def test_a_missing_meta_key(self, key):
        meta, data = split(one_hit_frame())
        del meta[key]
        with pytest.raises(FrameError, match=key):
            decode_shard_search(join(meta, data, checksum=key != "crc32"))

    def test_a_count_larger_than_the_hits(self):
        meta, data = split(one_hit_frame())
        meta["count"] = 5
        with pytest.raises(FrameError, match="shape"):
            decode_shard_search(join(meta, data))

    def test_a_section_shorter_than_the_count(self):
        meta, data = split(one_hit_frame())
        meta["sections"]["doc_ids"]["shape"] = [0]
        with pytest.raises(FrameError, match="doc_ids"):
            decode_shard_search(join(meta, data))

    def test_more_terms_than_tf_columns(self):
        meta, data = split(one_hit_frame())
        meta["terms"] = ["storm", "flood"]
        with pytest.raises(FrameError, match="tf"):
            decode_shard_search(join(meta, data))

    def test_a_wrong_dtype(self):
        meta, data = split(one_hit_frame())
        meta["sections"]["lengths"]["dtype"] = "<i4"
        with pytest.raises(FrameError, match="dtype"):
            decode_shard_search(join(meta, data))

    def test_a_section_past_the_end(self):
        meta, data = split(one_hit_frame())
        meta["sections"]["df"]["offset"] = len(data)
        with pytest.raises(FrameError, match="df"):
            decode_shard_search(join(meta, data))

    def test_offsets_not_starting_at_zero(self):
        meta, data = split(one_hit_frame())
        set_int64(data, meta, "text_indptr", 0, 1)
        with pytest.raises(FrameError, match="text_indptr"):
            decode_shard_search(join(meta, data))

    def test_decreasing_offsets(self):
        meta, data = split(
            encode_shard_search(
                make_payload(
                    [(1, 3, [1], DAY, DAY, False, "ab", "a"),
                     (2, 3, [1], DAY, DAY, False, "cd", "b")]
                )
            )
        )
        set_int64(data, meta, "article_id_indptr", 1, 3)
        set_int64(data, meta, "article_id_indptr", 2, 2)
        with pytest.raises(FrameError, match="article_id_indptr"):
            decode_shard_search(join(meta, data))

    def test_offsets_ending_off_the_buffer(self):
        meta, data = split(one_hit_frame())
        set_int64(data, meta, "text_indptr", 1, 3)
        with pytest.raises(FrameError, match="text_buffer"):
            decode_shard_search(join(meta, data))

    def test_text_that_is_not_utf8(self):
        meta, data = split(one_hit_frame())
        start = meta["sections"]["text_buffer"]["offset"]
        data[start] = 0xFF
        with pytest.raises(FrameError, match="text_buffer"):
            decode_shard_search(join(meta, data))

    def test_offsets_inside_a_character(self):
        meta, data = split(
            encode_shard_search(
                make_payload(
                    [(1, 3, [1], DAY, DAY, False, "é", "a"),
                     (2, 3, [1], DAY, DAY, False, "è", "b")]
                )
            )
        )
        # "é" and "è" are two bytes each: cut the buffer at 1 and 3.
        set_int64(data, meta, "text_indptr", 1, 1)
        with pytest.raises(FrameError, match="splits"):
            decode_shard_search(join(meta, data))

    @pytest.mark.parametrize(
        "key, value",
        [("count", -1), ("documents", -1), ("total_tokens", -5),
         ("documents", 0)],
    )
    def test_slice_statistics_out_of_range(self, key, value):
        """Negative counts, or a df above the slice's documents (the
        one-hit frame's df is 1), would break the merge's idf."""
        meta, data = split(one_hit_frame())
        meta[key] = value
        with pytest.raises(FrameError):
            decode_shard_search(join(meta, data))

    @pytest.mark.parametrize(
        "section, value",
        [("doc_ids", -1), ("lengths", -3), ("tf", -1), ("df", -2),
         ("dates", 0), ("publication_dates", 10**8)],
    )
    def test_values_out_of_range(self, section, value):
        meta, data = split(one_hit_frame())
        set_int64(data, meta, section, 0, value)
        with pytest.raises(FrameError):
            decode_shard_search(join(meta, data))


# -- the route ------------------------------------------------------------------


class TestNegotiation:
    @pytest.fixture(scope="class")
    def server(self, instance):
        system = RealTimeTimelineSystem()
        system.ingest(instance.corpus.articles)
        config = ServeConfig(port=0, batch_window_ms=2.0, workers=2)
        with BackgroundServer(TimelineServer(system, config)) as running:
            yield running

    def _shard_search(self, server, instance, accept=None):
        return shard_search(server, instance, accept)

    def test_accept_header_negotiates_binary_frames(
        self, server, instance
    ):
        status, content_type, raw = self._shard_search(
            server, instance, accept=RPC_CONTENT_TYPE
        )
        assert status == 200
        assert content_type == RPC_CONTENT_TYPE
        payload = decode_shard_search(raw)
        assert payload.schema == WIRE_SCHEMA
        assert payload.count > 0

    def test_frame_decodes_to_the_in_process_payload(
        self, server, instance
    ):
        # Frames are the route's only encoding, asked for or not.
        status, content_type, raw = self._shard_search(server, instance)
        assert status == 200
        assert content_type == RPC_CONTENT_TYPE
        engine = server.system.engine
        start, end = instance.corpus.window
        candidates = gather_candidates(
            engine.index,
            SearchQuery(
                keywords=tuple(" ".join(instance.corpus.query).split()),
                start=start,
                end=end,
                limit=500,
            ),
            params=engine.bm25_params,
            cache=engine.cache,
        )
        assert_same(
            decode_shard_search(raw),
            candidates_payload(
                engine.index,
                candidates,
                server.system.index_version,
                WIRE_SCHEMA,
            ),
        )

    def test_schema_constants_are_pinned(self):
        assert RPC_SCHEMA == "wilson.rpc/v1"
        assert RPC_CONTENT_TYPE == "application/x-wilson-rpc"


def shard_search(server, instance, accept=None):
    """``(status, content type, body)`` of the instance's shard query."""
    start, end = instance.corpus.window
    path = "/v1/shard/search?" + urllib.parse.urlencode(
        [
            ("q", " ".join(instance.corpus.query)),
            ("limit", "500"),
            ("start", start.isoformat()),
            ("end", end.isoformat()),
        ]
    )
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        headers = {"Accept": accept} if accept else {}
        conn.request("GET", path, headers=headers)
        response = conn.getresponse()
        return (
            response.status,
            response.getheader("Content-Type"),
            response.read(),
        )
    finally:
        conn.close()


def test_shard_search_on_a_mapped_slice_builds_no_document(
    instance, tmp_path, monkeypatch
):
    """Hits travel as columns from the mapped arrays to the frame: no
    ``IndexedSentence`` is built on the way."""
    engine = SearchEngine()
    engine.add_articles(instance.corpus.articles)
    topology = export_slices(engine.index, tmp_path, 2)
    mapped = SearchEngine.load_snapshot(topology.shards[0].path, mode="mmap")
    assert mapped.index.mapped_sections > 0

    def no_document(self, doc_id):
        raise AssertionError("a shard search built an IndexedSentence")

    monkeypatch.setattr(InvertedIndex, "document", no_document)
    config = ServeConfig(port=0, batch_window_ms=2.0, workers=2)
    system = RealTimeTimelineSystem(engine=mapped)
    with BackgroundServer(TimelineServer(system, config)) as server:
        status, _, raw = shard_search(server, instance)
    assert status == 200
    assert decode_shard_search(raw).count > 0
