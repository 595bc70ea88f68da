"""``wilson.rpc/v1`` binary candidate frames: bit-exactness, negotiation.

The frame codec's whole value is that it changes *nothing* but bytes
on the wire: ``decode(encode(payload))`` must equal the payload the
JSON path would have shipped, for real corpus data, empty results and
unicode text alike. Corruption must fail loudly (:class:`FrameError`),
and ``/v1/shard/search`` answers frames, the route's only encoding.
"""

import http.client
import urllib.parse

import pytest

from repro.search.engine import SearchEngine
from repro.search.query import (
    SearchQuery,
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
    assert candidates.hits, "fixture must produce real hits"
    return candidates_payload(engine.index, candidates, 3, WIRE_SCHEMA)


class TestRoundTrip:
    def test_decode_encode_is_the_identity_on_real_payloads(self, payload):
        frame = encode_shard_search(payload)
        assert decode_shard_search(frame) == payload

    def test_round_trip_preserves_canonical_json_bytes(self, payload):
        """The byte-identity guarantee in one line: both wire formats
        canonicalise to the same JSON bytes."""
        frame = encode_shard_search(payload)
        assert canonical_json(decode_shard_search(frame)) == (
            canonical_json(payload)
        )

    def test_empty_hit_list_round_trips(self, payload):
        empty = dict(payload, hits=[], count=0)
        assert decode_shard_search(encode_shard_search(empty)) == empty

    def test_unicode_text_round_trips(self, payload):
        hit = dict(payload["hits"][0])
        hit["text"] = "émeute — 事件 🗞 naïve"
        hit["article_id"] = "árticle-0"
        modified = dict(payload, hits=[hit], count=1)
        assert (
            decode_shard_search(encode_shard_search(modified)) == modified
        )

    def test_frames_are_smaller_than_canonical_json(self, payload):
        assert len(encode_shard_search(payload)) < len(
            canonical_json(payload)
        )


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
            decode_shard_search(canonical_json(payload))


class TestNegotiation:
    @pytest.fixture(scope="class")
    def server(self, instance):
        system = RealTimeTimelineSystem()
        system.ingest(instance.corpus.articles)
        config = ServeConfig(port=0, batch_window_ms=2.0, workers=2)
        with BackgroundServer(TimelineServer(system, config)) as running:
            yield running

    def _shard_search(self, server, instance, accept=None):
        start, end = instance.corpus.window
        path = "/v1/shard/search?" + urllib.parse.urlencode(
            [
                ("q", " ".join(instance.corpus.query)),
                ("limit", "500"),
                ("start", start.isoformat()),
                ("end", end.isoformat()),
            ]
        )
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60
        )
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

    def test_accept_header_negotiates_binary_frames(
        self, server, instance
    ):
        status, content_type, raw = self._shard_search(
            server, instance, accept=RPC_CONTENT_TYPE
        )
        assert status == 200
        assert content_type == RPC_CONTENT_TYPE
        payload = decode_shard_search(raw)
        assert payload["schema"] == WIRE_SCHEMA
        assert payload["hits"]

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
        assert decode_shard_search(raw) == candidates_payload(
            engine.index,
            candidates,
            server.system.index_version,
            WIRE_SCHEMA,
        )

    def test_schema_constants_are_pinned(self):
        assert RPC_SCHEMA == "wilson.rpc/v1"
        assert RPC_CONTENT_TYPE == "application/x-wilson-rpc"
