"""Ingest over HTTP: admission, read-your-write, precise invalidation.

Drives real sockets against a :class:`~repro.serve.TimelineServer` with
an attached :class:`~repro.ingest.IngestPlane` and pins the serving-side
write-path contract of docs/ingest.md:

* ``POST /v1/ingest`` answers 202 (queued), 200 (``sync`` sealed), 429
  (queue pressure, with ``Retry-After``), 400 (malformed), 404 (no
  plane) -- never a 5xx for load;
* an ingested article is reflected by the next timeline, byte-identical
  to a cold re-index of the grown corpus, and bumps ``index_version``
  on ``/healthz`` and ``/metrics``;
* result-cache invalidation is **day-scoped**: a seal evicts exactly
  the cached windows intersecting its touched dates -- disjoint windows
  stay warm;
* the day-matrix cache survives ingestion for untouched days
  (``prune.day_matrix_hits`` keeps counting);
* shutdown drains the queued backlog into sealed segments;
* the router fans ingest out to the shard owning each article's
  publication date and merged queries keep working afterwards.
"""

import errno
import http.client
import json
import threading

import pytest

import repro.ingest.plane as plane_module
from repro.core.pipeline import Wilson, WilsonConfig
from repro.ingest import IngestConfig, IngestPlane
from repro.obs.metrics import Metrics
from repro.obs.trace import Tracer
from repro.search.engine import SearchEngine
from repro.search.query import SearchQuery, execute
from repro.search.realtime import RealTimeTimelineSystem
from repro.serve import (
    BackgroundServer,
    RouterConfig,
    ServeConfig,
    TimelineRouter,
    TimelineServer,
    canonical_json,
    export_slices,
)
from tests.conftest import d, wait_until
from tests.test_ingest_plane import (
    QUERY,
    WINDOW,
    cold_system,
    make_articles,
)

BASE = 3  # articles indexed before the server boots; the rest stream in


def wire_article(article):
    return {
        "article_id": article.article_id,
        "publication_date": article.publication_date.isoformat(),
        "title": article.title,
        "text": article.text,
    }


def _request(port, method, path, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
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


def _timeline_payload(start=None, end=None, **overrides):
    payload = {
        "keywords": list(QUERY),
        "start": (start or WINDOW[0]).isoformat(),
        "end": (end or WINDOW[1]).isoformat(),
        "num_dates": 5,
        "num_sentences": 1,
    }
    payload.update(overrides)
    return payload


@pytest.fixture()
def live_server(tmp_path):
    """A server over the first BASE articles with a started plane."""
    system = RealTimeTimelineSystem()
    system.ingest(make_articles()[:BASE])
    metrics = Metrics()
    plane = IngestPlane(
        system,
        IngestConfig(batch_age_ms=5.0, segments_dir=tmp_path / "seg"),
        metrics=metrics,
    )
    plane.start()
    server = TimelineServer(
        system,
        ServeConfig(port=0, batch_window_ms=2.0, workers=2),
        metrics=metrics,
        ingest=plane,
    )
    with BackgroundServer(server) as running:
        yield running, system, plane


class TestIngestRoute:
    def test_async_ingest_is_reflected_by_the_next_timeline(
        self, live_server
    ):
        running, system, plane = live_server
        articles = make_articles()
        before = system.index_version

        status, _, raw = _request(
            running.port, "POST", "/v1/ingest",
            {"articles": [wire_article(a) for a in articles[BASE:]]},
        )
        assert status == 202
        envelope = json.loads(raw)
        assert set(envelope) == {
            "schema", "accepted", "queue_depth", "index_version",
        }
        assert envelope["accepted"] == len(articles) - BASE

        wait_until(
            lambda: system.index_version > before
            and plane.queue.depth == 0,
            message="the writer to seal the queued batch",
        )
        # The grown corpus now serves byte-identically to a cold
        # re-index of the same six articles.
        expected = canonical_json(
            cold_system(articles)
            .generate_timeline(
                QUERY, start=WINDOW[0], end=WINDOW[1], num_dates=5
            )
            .timeline.to_dict()
        )
        status, _, raw = _request(
            running.port, "POST", "/v1/timeline", _timeline_payload()
        )
        assert status == 200
        served = json.loads(raw)
        assert canonical_json(served["result"]["timeline"]) == expected

    def test_sync_ingest_reads_its_own_write(self, live_server):
        running, system, _ = live_server
        article = make_articles()[4]  # touches 2021-03-12/13
        before = system.index_version
        status, _, raw = _request(
            running.port, "POST", "/v1/ingest",
            {"articles": [wire_article(article)], "sync": True},
        )
        assert status == 200
        envelope = json.loads(raw)
        assert set(envelope) == {
            "schema", "accepted", "documents", "queue_depth",
            "index_version",
        }
        assert envelope["documents"] > 0
        assert envelope["index_version"] == system.index_version
        assert system.index_version > before

        # No waiting: the sealed write is immediately queryable. A
        # window where only the new article has content must surface it.
        status, _, raw = _request(
            running.port, "POST", "/v1/timeline",
            _timeline_payload(start=d("2021-03-11"), end=d("2021-03-14")),
        )
        assert status == 200
        timeline = json.loads(raw)["result"]["timeline"]
        assert "2021-03-13" in timeline

    def test_a_failed_sync_seal_is_counted(self, live_server, monkeypatch):
        running, system, plane = live_server
        real_write = plane_module.write_segment
        failures = []

        def full_disk_once(segment, path):
            if not failures:
                failures.append(path)
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(segment, path)

        monkeypatch.setattr(plane_module, "write_segment", full_disk_once)
        before = system.index_version
        payload = {
            "articles": [wire_article(make_articles()[4])],
            "sync": True,
        }
        status, _, _ = _request(running.port, "POST", "/v1/ingest", payload)
        assert status == 500
        assert system.index_version == before
        status, _, raw = _request(
            running.port, "POST", "/v1/ingest", payload
        )
        assert status == 200
        assert json.loads(raw)["documents"] > 0
        assert len(failures) == 1
        assert plane.metrics.counter("ingest.seal_errors").value == 1
        assert plane.metrics.counter("ingest.articles_rejected").value == 1
        assert plane.metrics.counter("ingest.segments_sealed").value == 1

    def test_resubmitting_a_sync_batch_is_idempotent(self, live_server):
        # The router's 429-retry contract over the wire: the same batch
        # submitted twice indexes once -- the second response succeeds
        # with zero new documents and an unchanged version.
        running, system, _ = live_server
        payload = {
            "articles": [wire_article(make_articles()[4])],
            "sync": True,
        }
        status, _, raw = _request(
            running.port, "POST", "/v1/ingest", payload
        )
        assert status == 200
        assert json.loads(raw)["documents"] > 0
        version = system.index_version

        status, _, raw = _request(
            running.port, "POST", "/v1/ingest", payload
        )
        assert status == 200
        replay = json.loads(raw)
        assert replay["documents"] == 0
        assert replay["index_version"] == version
        assert system.index_version == version

        status, _, raw = _request(running.port, "GET", "/metrics")
        assert "wilson_ingest_articles_deduplicated_total 1" in raw.decode()

    def test_version_bump_is_visible_on_healthz_and_metrics(
        self, live_server
    ):
        running, system, _ = live_server
        status, _, raw = _request(running.port, "GET", "/healthz")
        assert status == 200
        health = json.loads(raw)
        assert health["ingest"]["segments"] == 0
        before = health["index_version"]

        _request(
            running.port, "POST", "/v1/ingest",
            {
                "articles": [wire_article(make_articles()[5])],
                "sync": True,
            },
        )
        status, _, raw = _request(running.port, "GET", "/healthz")
        health = json.loads(raw)
        assert health["index_version"] > before
        assert health["ingest"]["segments"] == 1
        assert health["ingest"]["queue_depth"] == 0

        status, _, raw = _request(running.port, "GET", "/metrics")
        assert status == 200
        text = raw.decode()
        assert "wilson_serve_ingest_requests_total 1" in text
        assert "wilson_ingest_segments_sealed_total 1" in text
        assert f"wilson_ingest_index_version {system.index_version}" in text

    def test_search_over_base_and_segments_matches_execute(
        self, live_server
    ):
        running, system, _ = live_server
        for article in make_articles()[BASE:]:  # one segment each
            status, _, _ = _request(
                running.port, "POST", "/v1/ingest",
                {"articles": [wire_article(article)], "sync": True},
            )
            assert status == 200
        index = system.engine.index
        assert index.segment_count == len(make_articles()) - BASE
        expected = execute(
            index, SearchQuery(keywords=QUERY + ("garrison",), limit=50)
        )
        # Best first, the hits mix base and segment documents out of id
        # order.
        ids = [hit.document.doc_id for hit in expected]
        assert ids != sorted(ids)
        assert {doc_id < index.base.num_documents for doc_id in ids} == {
            True, False
        }

        status, _, raw = _request(
            running.port, "GET", "/v1/search?q=ceasefire+rebels+garrison"
        )
        assert status == 200
        assert json.loads(raw)["hits"] == [
            {
                "text": hit.document.text,
                "date": hit.document.date.isoformat(),
                "publication_date": (
                    hit.document.publication_date.isoformat()
                ),
                "article_id": hit.document.article_id,
                "is_reference": hit.document.is_reference,
                "score": hit.score,
            }
            for hit in expected
        ]

    def test_malformed_payloads_answer_400(self, live_server):
        running, _, _ = live_server
        for payload in (
            {},  # no articles
            {"articles": []},
            {"articles": [{"article_id": ""}]},
            {"articles": [{"article_id": "x"}]},  # no publication_date
            {
                "articles": [
                    {"article_id": "x", "publication_date": "not-a-date"}
                ]
            },
            {
                "articles": [
                    {"article_id": "x", "publication_date": "2021-03-01"}
                ],
                "sync": "yes",
            },
        ):
            status, _, _ = _request(
                running.port, "POST", "/v1/ingest", payload
            )
            assert status == 400, payload

    def test_without_a_plane_ingest_is_404(self):
        system = RealTimeTimelineSystem()
        system.ingest(make_articles()[:BASE])
        server = TimelineServer(
            system, ServeConfig(port=0, batch_window_ms=2.0)
        )
        with BackgroundServer(server) as running:
            status, _, _ = _request(
                running.port, "POST", "/v1/ingest",
                {"articles": [wire_article(make_articles()[3])]},
            )
            assert status == 404

    def test_queue_pressure_sheds_with_429_never_5xx(self):
        system = RealTimeTimelineSystem()
        system.ingest(make_articles()[:BASE])
        # One-article queue and no writer: the first async POST fills
        # it, the second must shed.
        plane = IngestPlane(system, IngestConfig(queue_articles=1))
        server = TimelineServer(
            system,
            ServeConfig(port=0, batch_window_ms=2.0),
            ingest=plane,
        )
        with BackgroundServer(server) as running:
            articles = make_articles()
            status, _, _ = _request(
                running.port, "POST", "/v1/ingest",
                {"articles": [wire_article(articles[3])]},
            )
            assert status == 202
            status, headers, raw = _request(
                running.port, "POST", "/v1/ingest",
                {"articles": [wire_article(articles[4])]},
            )
            assert status == 429
            assert "Retry-After" in headers
            assert json.loads(raw)["error"] == "overloaded"
            assert (
                server.metrics.counter("serve.ingest_rejected").value == 1
            )

    def test_shutdown_drains_the_queued_backlog(self):
        system = RealTimeTimelineSystem()
        system.ingest(make_articles()[:BASE])
        plane = IngestPlane(system, IngestConfig(batch_age_ms=5.0))
        server = TimelineServer(
            system,
            ServeConfig(port=0, batch_window_ms=2.0),
            ingest=plane,
        )
        before = system.index_version
        with BackgroundServer(server) as running:
            status, _, _ = _request(
                running.port, "POST", "/v1/ingest",
                {
                    "articles": [
                        wire_article(a) for a in make_articles()[BASE:]
                    ]
                },
            )
            assert status == 202
        # The writer never ran (plane.start was never called): the exit
        # drain must seal the backlog, not drop it.
        assert system.index_version > before
        assert plane.queue.depth == 0
        assert plane.queue.closed


class TestPreciseInvalidation:
    def test_seal_evicts_only_intersecting_windows(self, live_server):
        running, _, plane = live_server
        # Prime two cache entries: a window disjoint from the incoming
        # article's days and one covering them.
        disjoint = _timeline_payload(end=d("2021-03-08"))
        covering = _timeline_payload()
        for payload in (disjoint, covering):
            status, _, raw = _request(
                running.port, "POST", "/v1/timeline", payload
            )
            assert status == 200
            assert json.loads(raw)["cache"] == "miss"
            status, _, raw = _request(
                running.port, "POST", "/v1/timeline", payload
            )
            assert json.loads(raw)["cache"] == "hit"

        # a5 touches 2021-03-12/13: outside the disjoint window.
        status, _, _ = _request(
            running.port, "POST", "/v1/ingest",
            {"articles": [wire_article(make_articles()[4])], "sync": True},
        )
        assert status == 200

        status, _, raw = _request(
            running.port, "POST", "/v1/timeline", disjoint
        )
        assert json.loads(raw)["cache"] == "hit"  # untouched: stays warm
        status, _, raw = _request(
            running.port, "POST", "/v1/timeline", covering
        )
        stale = json.loads(raw)
        assert stale["cache"] == "miss"  # intersecting: evicted
        dropped = running.metrics.counter(
            "serve.ingest_invalidated_results"
        ).value
        assert dropped >= 1

    def test_day_matrix_survives_ingest_for_untouched_days(self):
        articles = make_articles()
        system = RealTimeTimelineSystem()
        system.ingest(articles[:BASE])
        plane = IngestPlane(system)
        assert system.wilson.day_matrix_cache is not None

        # Warm the per-day matrices of the base window.
        system.generate_timeline(
            QUERY, start=WINDOW[0], end=WINDOW[1], num_dates=5
        )
        warmed = len(system.wilson.day_matrix_cache)
        assert warmed > 0

        # Stream an article touching only 2021-03-12/13, then re-query:
        # the base days' matrices must replay from cache.
        plane.ingest([articles[4]])
        tracer = Tracer()
        system.generate_timeline(
            QUERY,
            start=WINDOW[0],
            end=WINDOW[1],
            num_dates=5,
            tracer=tracer,
        )
        hits = tracer.counters.get("prune.day_matrix_hits", 0)
        assert hits >= warmed


class TestRouterIngestFanOut:
    @pytest.fixture()
    def fleet(self, tmp_path):
        """Two date-range shard workers with planes, plus their router."""
        base = RealTimeTimelineSystem()
        base.ingest(make_articles()[:4])
        topology = export_slices(
            base.engine.index, tmp_path / "topology", 2
        )
        contexts, workers, groups = [], [], []
        for shard in topology.shards:
            wilson = Wilson(WilsonConfig())
            engine = SearchEngine.load_snapshot(
                shard.path, cache=wilson.cache
            )
            system = RealTimeTimelineSystem(
                engine=engine, wilson=wilson, cache=wilson.cache
            )
            plane = IngestPlane(system)
            server = TimelineServer(
                system,
                ServeConfig(port=0, batch_window_ms=2.0),
                ingest=plane,
            )
            context = BackgroundServer(server)
            running = context.__enter__()
            contexts.append(context)
            workers.append((system, plane))
            groups.append([f"http://127.0.0.1:{running.port}"])
        router_context = BackgroundServer(
            TimelineRouter(
                topology,
                groups,
                config=RouterConfig(port=0, shard_timeout_seconds=30.0),
                metrics=Metrics(),
            )
        )
        router = router_context.__enter__()
        contexts.append(router_context)
        try:
            yield topology, workers, router
        finally:
            for context in reversed(contexts):
                context.__exit__(None, None, None)

    def test_articles_route_to_their_owning_shard(self, fleet):
        topology, workers, router = fleet
        articles = make_articles()
        versions = [system.index_version for system, _ in workers]

        # a5/a6 publish after every slice's range: both extend the
        # newest shard, the older shard stays untouched.
        status, _, raw = _request(
            router.port, "POST", "/v1/ingest",
            {
                "articles": [
                    wire_article(articles[4]), wire_article(articles[5]),
                ],
                "sync": True,
            },
        )
        assert status == 200
        envelope = json.loads(raw)
        assert set(envelope) == {
            "schema", "accepted", "rejected", "failed", "routed",
        }
        assert envelope["accepted"] == 2
        assert envelope["rejected"] == 0 and envelope["failed"] == 0
        newest = max(
            (shard for shard in topology.shards if shard.end is not None),
            key=lambda shard: shard.end,
        ).shard_id
        assert envelope["routed"] == {str(newest): 2}
        for shard_id, (system, _) in enumerate(workers):
            if shard_id == newest:
                assert system.index_version > versions[shard_id]
            else:
                assert system.index_version == versions[shard_id]

        # Merged queries keep working over post-manifest documents (the
        # synthetic merged doc ids must not crash the router).
        status, _, raw = _request(
            router.port, "POST", "/v1/timeline",
            _timeline_payload(start=d("2021-03-11"), end=d("2021-03-20")),
        )
        assert status == 200
        merged = json.loads(raw)
        assert "2021-03-13" in merged["result"]["timeline"]

    def test_sync_write_through_the_router_reads_back(self, fleet):
        # The read-your-write repro: an empty window gets cached, a
        # sync write lands in it, and the re-read must recompute.
        _, _, router = fleet
        articles = make_articles()
        window = _timeline_payload(
            start=d("2021-03-11"), end=d("2021-03-20")
        )
        status, _, raw = _request(router.port, "POST", "/v1/timeline", window)
        assert status == 200
        before = json.loads(raw)
        assert before["cache"] == "miss"
        assert before["result"]["timeline"] == {}
        status, _, raw = _request(
            router.port, "POST", "/v1/ingest",
            {
                "articles": [
                    wire_article(articles[4]), wire_article(articles[5]),
                ],
                "sync": True,
            },
        )
        assert status == 200
        assert json.loads(raw)["accepted"] == 2
        status, _, raw = _request(router.port, "POST", "/v1/timeline", window)
        assert status == 200
        after = json.loads(raw)
        assert after["cache"] == "miss"
        assert "2021-03-13" in after["result"]["timeline"]
        assert after["index_version"] > before["index_version"]

    def test_a_seal_during_the_reduce_is_not_cached(
        self, fleet, monkeypatch
    ):
        _, _, router = fleet
        articles = make_articles()
        window = _timeline_payload(
            start=d("2021-03-11"), end=d("2021-03-20")
        )
        entered, release = threading.Event(), threading.Event()
        summarize = router.wilson.summarize

        def blocked_summarize(*args, **kwargs):
            entered.set()
            assert release.wait(timeout=60)
            return summarize(*args, **kwargs)

        monkeypatch.setattr(router.wilson, "summarize", blocked_summarize)
        stale = {}
        reader = threading.Thread(
            target=lambda: stale.update(
                response=_request(
                    router.port, "POST", "/v1/timeline", window
                )
            )
        )
        reader.start()
        try:
            # The read has merged its pre-write candidates and sits in
            # the reduce while the write seals.
            assert entered.wait(timeout=60)
            status, _, _ = _request(
                router.port, "POST", "/v1/ingest",
                {
                    "articles": [
                        wire_article(articles[4]),
                        wire_article(articles[5]),
                    ],
                    "sync": True,
                },
            )
            assert status == 200
        finally:
            release.set()
            reader.join(timeout=60)
        status, _, raw = stale["response"]
        assert status == 200
        assert json.loads(raw)["result"]["timeline"] == {}
        assert len(router.cache) == 0
        status, _, raw = _request(router.port, "POST", "/v1/timeline", window)
        assert status == 200
        after = json.loads(raw)
        assert after["cache"] == "miss"
        assert "2021-03-13" in after["result"]["timeline"]

    def test_a_lagging_replica_never_lowers_the_version_vector(
        self, tmp_path
    ):
        # One slice, two replicas; only replica 1 sees a write, so the
        # replicas sit at different versions.
        base = RealTimeTimelineSystem()
        base.ingest(make_articles()[:4])
        topology = export_slices(
            base.engine.index, tmp_path / "topology", 1
        )
        contexts, replicas, urls = [], [], []
        for _ in range(2):
            wilson = Wilson(WilsonConfig())
            engine = SearchEngine.load_snapshot(
                topology.shards[0].path, cache=wilson.cache
            )
            system = RealTimeTimelineSystem(
                engine=engine, wilson=wilson, cache=wilson.cache
            )
            plane = IngestPlane(system)
            context = BackgroundServer(
                TimelineServer(
                    system,
                    ServeConfig(port=0, batch_window_ms=2.0),
                    ingest=plane,
                )
            )
            running = context.__enter__()
            contexts.append(context)
            replicas.append(system)
            urls.append(f"http://127.0.0.1:{running.port}")
        router_context = BackgroundServer(
            TimelineRouter(
                topology,
                [urls],
                config=RouterConfig(
                    port=0, shard_timeout_seconds=30.0, hedge_enabled=False
                ),
                metrics=Metrics(),
            )
        )
        router = router_context.__enter__()
        contexts.append(router_context)
        try:
            status, _, _ = _request(
                int(urls[1].rsplit(":", 1)[1]), "POST", "/v1/ingest",
                {"articles": [wire_article(make_articles()[4])], "sync": True},
            )
            assert status == 200
            lagging, leading = (system.index_version for system in replicas)
            assert leading > lagging
            # The /healthz sweep probes both replicas: the vector takes
            # the leading one's version.
            status, _, raw = _request(router.port, "GET", "/healthz")
            assert json.loads(raw)["index_version"] == leading
            # With the leading replica gone every read is served from
            # the lagging one: answered, never cached, and the vector
            # stays where it was.
            contexts[1].__exit__(None, None, None)
            window = _timeline_payload()
            for _ in range(2):
                status, _, raw = _request(
                    router.port, "POST", "/v1/timeline", window
                )
                assert status == 200
                envelope = json.loads(raw)
                assert envelope["cache"] == "miss"
                assert envelope["index_version"] == leading
            assert len(router.cache) == 0
        finally:
            for context in reversed(contexts):
                if context is not contexts[1]:
                    context.__exit__(None, None, None)

    def test_router_answers_503_only_when_no_shard_accepts(
        self, tmp_path
    ):
        base = RealTimeTimelineSystem()
        base.ingest(make_articles()[:4])
        topology = export_slices(
            base.engine.index, tmp_path / "topology", 2
        )
        # Workers without planes: every forward hits a 404, so the
        # router must report total failure as a 503, not crash.
        contexts, groups = [], []
        for shard in topology.shards:
            wilson = Wilson(WilsonConfig())
            engine = SearchEngine.load_snapshot(
                shard.path, cache=wilson.cache
            )
            server = TimelineServer(
                RealTimeTimelineSystem(
                    engine=engine, wilson=wilson, cache=wilson.cache
                ),
                ServeConfig(port=0, batch_window_ms=2.0),
            )
            context = BackgroundServer(server)
            running = context.__enter__()
            contexts.append(context)
            groups.append([f"http://127.0.0.1:{running.port}"])
        router_context = BackgroundServer(
            TimelineRouter(
                topology,
                groups,
                config=RouterConfig(port=0, shard_timeout_seconds=30.0),
                metrics=Metrics(),
            )
        )
        router = router_context.__enter__()
        contexts.append(router_context)
        try:
            status, _, raw = _request(
                router.port, "POST", "/v1/ingest",
                {"articles": [wire_article(make_articles()[4])]},
            )
            assert status == 503
            envelope = json.loads(raw)
            assert envelope["accepted"] == 0
            assert envelope["failed"] == 1
        finally:
            for context in reversed(contexts):
                context.__exit__(None, None, None)
