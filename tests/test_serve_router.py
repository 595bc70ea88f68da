"""The scatter-gather router: byte-identity, degradation, merge math.

Drives a real :class:`~repro.serve.TimelineRouter` over actual sockets
against real in-process shard workers (each a
:class:`~repro.serve.TimelineServer` booted from a topology slice) and
pins the sharded-serving contract:

* with every shard healthy, ``/v1/search`` responses are **byte
  identical** to single-index serving, and ``/v1/timeline`` responses
  are identical up to the (timing-valued) telemetry block;
* :func:`merge_shard_candidates` reproduces single-index BM25 scores
  and ordering exactly from raw per-shard statistics;
* a dead shard degrades the response -- HTTP 200, ``X-Wilson-Degraded``
  header, ``degraded_shards`` envelope field -- and never a 5xx, and
  degraded merges are not cached;
* all shards dead is a 503, not a hang or a crash;
* the ``router.*`` telemetry stays inside the documented registry.
"""

import dataclasses
import http.client
import json
import socket

import pytest

from repro.core.pipeline import Wilson, WilsonConfig
from repro.search.engine import SearchEngine
from repro.search.query import (
    SearchQuery,
    candidates_payload,
    execute,
    gather_candidates,
)
from repro.search.realtime import RealTimeTimelineSystem
from repro.serve import (
    DEGRADED_HEADER,
    POOL_METRIC_NAMES,
    REPLICA_METRIC_NAMES,
    ROUTER_METRIC_NAMES,
    BackgroundServer,
    RouterConfig,
    ServeConfig,
    TimelineRouter,
    TimelineServer,
    canonical_json,
    export_slices,
    merge_shard_candidates,
)
from repro.obs.metrics import Metrics
from repro.tlsdata.synthetic import make_timeline17_like

NUM_SHARDS = 2


@pytest.fixture(scope="module")
def instance():
    return make_timeline17_like(scale=0.02, seed=11).instances[0]


@pytest.fixture(scope="module")
def system(instance):
    system = RealTimeTimelineSystem()
    system.ingest(instance.corpus.articles)
    return system


@pytest.fixture(scope="module")
def topology(system, tmp_path_factory):
    return export_slices(
        system.engine.index,
        tmp_path_factory.mktemp("topology"),
        NUM_SHARDS,
    )


def _shard_system(slice_path):
    wilson = Wilson(WilsonConfig())
    engine = SearchEngine.load_snapshot(slice_path, cache=wilson.cache)
    return RealTimeTimelineSystem(
        engine=engine, wilson=wilson, cache=wilson.cache
    )


@pytest.fixture(scope="module")
def shard_servers(topology):
    servers = []
    contexts = []
    for shard in topology.shards:
        context = BackgroundServer(
            TimelineServer(
                _shard_system(shard.path),
                ServeConfig(port=0, batch_window_ms=2.0),
            )
        )
        servers.append(context.__enter__())
        contexts.append(context)
    yield servers
    for context in contexts:
        context.__exit__(None, None, None)


@pytest.fixture()
def single_server(system):
    config = ServeConfig(port=0, batch_window_ms=2.0, workers=2)
    with BackgroundServer(TimelineServer(system, config)) as running:
        yield running


@pytest.fixture()
def router(topology, shard_servers):
    endpoints = [
        f"http://127.0.0.1:{server.port}" for server in shard_servers
    ]
    running = TimelineRouter(
        topology,
        endpoints,
        config=RouterConfig(port=0, shard_timeout_seconds=30.0),
        metrics=Metrics(),
    )
    with BackgroundServer(running) as server:
        yield server


def _free_port():
    """A port with nothing listening (for the dead-shard cases)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _degraded_router(topology, shard_servers, dead_shard=1):
    """Router wired with one endpoint pointing at a closed port."""
    endpoints = [
        f"http://127.0.0.1:{server.port}" for server in shard_servers
    ]
    endpoints[dead_shard] = f"http://127.0.0.1:{_free_port()}"
    return BackgroundServer(
        TimelineRouter(
            topology,
            endpoints,
            config=RouterConfig(
                port=0, shard_timeout_seconds=30.0, shard_retries=0
            ),
            metrics=Metrics(),
        )
    )


def _request(server, method, path, payload=None):
    conn = http.client.HTTPConnection(
        "127.0.0.1", server.port, timeout=120
    )
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        conn.request(
            method, path, body=body,
            headers={"Content-Type": "application/json"} if body else {},
        )
        response = conn.getresponse()
        raw = response.read()
        return response.status, dict(response.getheaders()), raw
    finally:
        conn.close()


def _timeline_payload(instance, **overrides):
    start, end = instance.corpus.window
    payload = {
        "keywords": list(instance.corpus.query),
        "start": start.isoformat(),
        "end": end.isoformat(),
        "num_dates": 5,
        "num_sentences": 1,
    }
    payload.update(overrides)
    return payload


def _without_telemetry(raw):
    envelope = json.loads(raw)
    envelope["result"].pop("telemetry")
    return canonical_json(envelope)


class TestMergeMath:
    """merge_shard_candidates == execute, bit for bit, fixture-free."""

    def _payload(self, index, query):
        return candidates_payload(
            index, gather_candidates(index, query), index.index_version, "test"
        )

    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    @pytest.mark.parametrize(
        "keywords",
        [("government",), ("government", "minister"), ("crisis", "crisis")],
    )
    def test_merged_scores_equal_single_index_exactly(
        self, system, tmp_path, num_shards, keywords
    ):
        topology = export_slices(
            system.engine.index, tmp_path / str(num_shards), num_shards
        )
        query = SearchQuery(keywords=keywords, limit=25)
        expected = execute(system.engine.index, query)

        responses = {}
        for shard in topology.shards:
            slice_engine = SearchEngine.load_snapshot(shard.path)
            responses[shard.shard_id] = self._payload(
                slice_engine.index, query
            )
        merged = merge_shard_candidates(
            responses, topology, query.limit
        )

        assert len(merged) == len(expected)
        for doc_id, score, theirs in zip(
            merged.doc_ids.tolist(), merged.scores.tolist(), expected
        ):
            assert doc_id == theirs.document.doc_id
            assert score == theirs.score  # bit-exact, not approx

    def test_window_filtered_merge_matches(self, system, tmp_path):
        topology = export_slices(system.engine.index, tmp_path, 2)
        dates = system.engine.index.dates()
        # A window inside shard 0 only: shard 1 still contributes its
        # corpus statistics, else the IDF would drift off single-index.
        query = SearchQuery(
            keywords=("government",),
            start=dates[0],
            end=dates[len(dates) // 4],
            limit=50,
        )
        expected = execute(system.engine.index, query)
        responses = {
            shard.shard_id: self._payload(
                SearchEngine.load_snapshot(shard.path).index, query
            )
            for shard in topology.shards
        }
        merged = merge_shard_candidates(responses, topology, query.limit)
        assert merged.doc_ids.tolist() == [
            h.document.doc_id for h in expected
        ]
        assert merged.scores.tolist() == [h.score for h in expected]

    def test_term_disagreement_is_rejected(self, system, tmp_path):
        topology = export_slices(system.engine.index, tmp_path, 2)
        query = SearchQuery(keywords=("government",))
        responses = {
            shard.shard_id: self._payload(
                SearchEngine.load_snapshot(shard.path).index, query
            )
            for shard in topology.shards
        }
        responses[1] = dataclasses.replace(
            responses[1],
            candidates=dataclasses.replace(
                responses[1].candidates, terms=("something-else",)
            ),
        )
        with pytest.raises(ValueError, match="analyzed the query"):
            merge_shard_candidates(responses, topology, 10)

    def test_empty_responses_merge_to_nothing(self, system, tmp_path):
        topology = export_slices(system.engine.index, tmp_path, 2)
        merged = merge_shard_candidates({}, topology, 10)
        assert len(merged) == 0
        assert merged.doc_ids.tolist() == []


class TestHealthyByteIdentity:
    def test_search_bytes_identical_to_single_index(
        self, router, single_server, instance
    ):
        query = "+".join(instance.corpus.query)
        for path in (
            f"/v1/search?q={query}&limit=20",
            f"/v1/search?q={query}&limit=3",
            "/v1/search?q=government&limit=50",
        ):
            routed_status, _, routed = _request(router, "GET", path)
            direct_status, _, direct = _request(
                single_server, "GET", path
            )
            assert routed_status == direct_status == 200
            assert routed == direct  # the full response body, verbatim

    def test_timeline_identical_to_single_index_minus_telemetry(
        self, router, single_server, instance
    ):
        payload = _timeline_payload(instance)
        routed_status, routed_headers, routed = _request(
            router, "POST", "/v1/timeline", payload
        )
        direct_status, _, direct = _request(
            single_server, "POST", "/v1/timeline", payload
        )
        assert routed_status == direct_status == 200
        assert DEGRADED_HEADER not in routed_headers
        assert _without_telemetry(routed) == _without_telemetry(direct)

    def test_timeline_cache_hit_replays_the_same_result(
        self, router, instance
    ):
        payload = _timeline_payload(instance, num_dates=4)
        _, _, cold = _request(router, "POST", "/v1/timeline", payload)
        status, _, warm = _request(
            router, "POST", "/v1/timeline", payload
        )
        assert status == 200
        cold_env, warm_env = json.loads(cold), json.loads(warm)
        assert cold_env["cache"] == "miss"
        assert warm_env["cache"] == "hit"
        assert canonical_json(cold_env["result"]) == canonical_json(
            warm_env["result"]
        )

    def test_healthz_reports_all_shards_healthy(self, router):
        status, _, raw = _request(router, "GET", "/healthz")
        assert status == 200
        payload = json.loads(raw)
        assert payload["status"] == "ok"
        assert payload["shards"] == NUM_SHARDS
        assert payload["shards_healthy"] == NUM_SHARDS


class TestDegradation:
    def test_one_shard_down_degrades_but_serves_200(
        self, topology, shard_servers, instance
    ):
        with _degraded_router(topology, shard_servers) as router:
            payload = _timeline_payload(instance)
            status, headers, raw = _request(
                router, "POST", "/v1/timeline", payload
            )
            assert status == 200  # never a 5xx for a partial outage
            assert headers.get(DEGRADED_HEADER) == "1"
            envelope = json.loads(raw)
            assert envelope["degraded_shards"] == [1]
            assert envelope["schema"] == "wilson.serve/v1"
            timeline = envelope["result"]["timeline"]
            assert isinstance(timeline, dict)  # well-formed result

    def test_degraded_search_returns_partial_hits(
        self, topology, shard_servers
    ):
        with _degraded_router(topology, shard_servers) as router:
            status, headers, raw = _request(
                router, "GET", "/v1/search?q=government&limit=50"
            )
            assert status == 200
            assert headers.get(DEGRADED_HEADER) == "1"
            envelope = json.loads(raw)
            assert envelope["degraded_shards"] == [1]
            hits = envelope["hits"]
            assert hits, "healthy shard should still contribute"
            assert envelope["count"] == len(hits)
            # Shard 1 is dead, so every hit must date-fall in shard 0.
            start, end = (
                topology.shards[0].start.isoformat(),
                topology.shards[0].end.isoformat(),
            )
            assert all(start <= hit["date"] <= end for hit in hits)

    def test_degraded_merges_are_never_cached(
        self, topology, shard_servers, instance
    ):
        with _degraded_router(topology, shard_servers) as router:
            payload = _timeline_payload(instance, num_dates=3)
            _, _, first = _request(
                router, "POST", "/v1/timeline", payload
            )
            _, _, second = _request(
                router, "POST", "/v1/timeline", payload
            )
            assert json.loads(first)["cache"] == "miss"
            assert json.loads(second)["cache"] == "miss"

    def test_degraded_healthz_reports_the_outage(
        self, topology, shard_servers
    ):
        with _degraded_router(topology, shard_servers) as router:
            status, _, raw = _request(router, "GET", "/healthz")
            assert status == 200
            payload = json.loads(raw)
            assert payload["status"] == "degraded"
            assert payload["shards_healthy"] == NUM_SHARDS - 1

    def test_all_shards_down_is_a_503(self, topology, instance):
        endpoints = [
            f"http://127.0.0.1:{_free_port()}"
            for _ in range(NUM_SHARDS)
        ]
        running = TimelineRouter(
            topology,
            endpoints,
            config=RouterConfig(
                port=0, shard_timeout_seconds=5.0, shard_retries=0
            ),
            metrics=Metrics(),
        )
        with BackgroundServer(running) as router:
            status, _, raw = _request(
                router,
                "POST",
                "/v1/timeline",
                _timeline_payload(instance),
            )
            assert status == 503
            assert json.loads(raw)["schema"] == "wilson.serve/v1"


class TestRouterContract:
    def test_bad_requests_are_400s(self, router):
        status, _, _ = _request(router, "GET", "/v1/search")
        assert status == 400
        status, _, raw = _request(
            router, "POST", "/v1/timeline", {"keywords": []}
        )
        assert status == 400
        assert "keywords" in json.loads(raw)["detail"]

    def test_unknown_route_is_a_404(self, router):
        status, _, _ = _request(router, "GET", "/nope")
        assert status == 404

    def test_emitted_metrics_stay_inside_the_registry(
        self, router, instance
    ):
        _request(router, "POST", "/v1/timeline", _timeline_payload(instance))
        _request(router, "GET", "/v1/search?q=government")
        _request(router, "GET", "/healthz")
        _request(router, "GET", "/metrics")
        snapshot = router.metrics.snapshot()
        emitted = (
            set(snapshot["counters"])
            | set(snapshot["gauges"])
            | set(snapshot["histograms"])
        )
        assert emitted <= (
            set(ROUTER_METRIC_NAMES)
            | set(REPLICA_METRIC_NAMES)
            | set(POOL_METRIC_NAMES)
        )

    def test_metrics_endpoint_renders_router_namespace(self, router):
        _request(router, "GET", "/v1/search?q=government")
        status, _, raw = _request(router, "GET", "/metrics")
        assert status == 200
        text = raw.decode("utf-8")
        assert "wilson_router_requests_total" in text
        assert "wilson_router_shards" in text
