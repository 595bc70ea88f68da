"""The asyncio HTTP timeline service (stdlib only).

This is the network-facing layer of the Section 5 real-time system: a
single-process asyncio server wrapping one
:class:`~repro.search.realtime.RealTimeTimelineSystem` behind six
routes --

* ``POST /v1/timeline`` -- generate (or replay from cache) one timeline;
* ``POST /v1/ingest``   -- admit an article batch into the attached
  :class:`~repro.ingest.plane.IngestPlane` (202 queued / 200 sync-sealed;
  429 on queue pressure, 404 when no plane is attached -- see
  docs/ingest.md);
* ``GET /v1/search``    -- raw BM25 dated-sentence search;
* ``GET /v1/shard/search`` -- internal scatter-gather endpoint: raw
  per-term match statistics plus slice-level corpus statistics, as a
  ``wilson.rpc/v1`` frame, which a
  :class:`~repro.serve.router.TimelineRouter` merges into exact global
  BM25 rankings (see docs/serving.md);
* ``GET /healthz``      -- liveness + index freshness (503 while draining);
* ``GET /metrics``      -- the :class:`~repro.obs.metrics.Metrics`
  registry in Prometheus text exposition format.

Request flow for ``/v1/timeline``: cache lookup (key =
normalised query + ``index_version``, so incremental ingestion
invalidates exactly) -> single-flight -> admission control (bounded
in-flight; excess load is shed with ``429`` + ``Retry-After``) ->
micro-batching (requests arriving within one window run as a single
fault-isolated :func:`repro.runtime.run_sharded` sweep on the thread
backend; a poisoned query degrades its own response only) -> guarded
cache put.

Everything response-shaped goes through :func:`canonical_json`, so a
served timeline is byte-identical to the direct library call's
serialisation -- the equivalence the load benchmark and
``tests/test_serve_app.py`` enforce. The full wire contract lives in
``docs/serving.md``.

That sequence, the rejection envelopes, ``/healthz``, ``/metrics`` and
the raw HTTP/1.1 plumbing (request parsing, keep-alive, lifecycle,
graceful drain) live in :class:`HttpServerBase`, shared between this
server and the scatter-gather router in :mod:`repro.serve.router`.
"""

from __future__ import annotations

import asyncio
import datetime
import json
import os
import signal
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.ingest import IngestPlane, Segment
from repro.obs.metrics import Metrics
from repro.runtime import ShardPolicy, ShardResult
from repro.search.query import (
    SearchQuery,
    candidates_payload,
    gather_candidates,
)
from repro.search.realtime import RealTimeTimelineSystem, TimelineQuery
from repro.serve.admission import AdmissionController
from repro.serve.batching import MicroBatcher
from repro.serve.cache import (
    ResultCache,
    make_cache_key,
    window_intersects,
)
from repro.serve.flight import FlightTable
from repro.serve.frames import RPC_CONTENT_TYPE, encode_shard_search
from repro.tlsdata.types import Article

#: The wire-format identifier every JSON response envelope carries.
WIRE_SCHEMA = "wilson.serve/v1"

#: Hard cap on request body size; larger requests are rejected with 413.
MAX_BODY_BYTES = 1 << 20

#: Response header naming the shard ids missing from a partial merge.
DEGRADED_HEADER = "X-Wilson-Degraded"

#: Every metric name the serving tier may emit, by kind. The telemetry
#: contract table in docs/observability.md must list each of these, and
#: tests/test_serve_app.py asserts the server emits no name outside this
#: registry -- together they pin the ``serve.*`` vocabulary.
SERVE_COUNTERS = (
    "serve.requests",
    "serve.timeline_requests",
    "serve.search_requests",
    "serve.shard_search_requests",
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.coalesced_requests",
    "serve.shed",
    "serve.rejected_draining",
    "serve.bad_requests",
    "serve.not_found",
    "serve.errors",
    "serve.degraded",
    "serve.batches",
    "serve.batched_queries",
    "serve.ingest_requests",
    "serve.ingest_rejected",
    "serve.ingest_invalidated_results",
)
SERVE_GAUGES = (
    "serve.inflight",
    "serve.cache_entries",
    "serve.index_version",
    "serve.draining",
    # Boot-to-ready wall time, set once by the CLI boot path (not by the
    # server itself); exposed on /metrics for cold-start dashboards.
    "serve.warmup_seconds",
)
SERVE_HISTOGRAMS = (
    "serve.request_seconds",
    "serve.batch_size",
)
SERVE_METRIC_NAMES = SERVE_COUNTERS + SERVE_GAUGES + SERVE_HISTOGRAMS

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def canonical_json(payload: Any) -> bytes:
    """Deterministic JSON bytes: sorted keys, minimal separators, UTF-8.

    Both the HTTP layer and equivalence tests serialise through this one
    function, which is what makes "served == direct library call" a
    *byte*-level claim rather than a structural one.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of the HTTP service (CLI flags map 1:1 onto these)."""

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 4
    cache_size: int = 256
    cache_ttl_seconds: float = 300.0
    max_inflight: int = 32
    batch_window_ms: float = 10.0
    max_batch_size: int = 32
    batch_retries: int = 0
    retry_after_seconds: float = 1.0
    drain_timeout_seconds: float = 10.0
    default_num_dates: int = 10
    default_num_sentences: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.batch_window_ms < 0:
            raise ValueError(
                f"batch_window_ms must be >= 0, got {self.batch_window_ms}"
            )
        if self.batch_retries < 0:
            raise ValueError(
                f"batch_retries must be >= 0, got {self.batch_retries}"
            )


class _BadRequest(ValueError):
    """A client error; the message goes verbatim into the 400 body."""


class _PayloadTooLarge(Exception):
    """Body over :data:`MAX_BODY_BYTES`; answered 413, connection closed."""


@dataclass
class _Request:
    """One parsed HTTP/1.1 request."""

    method: str
    path: str
    query: Dict[str, List[str]]
    headers: Dict[str, str]
    body: bytes
    keep_alive: bool


@dataclass
class _Response:
    """One routed response, pre-serialisation."""

    status: int
    body: bytes
    content_type: str = "application/json"
    extra_headers: Tuple[Tuple[str, str], ...] = ()


def error_response(
    status: int,
    detail: str,
    error: Optional[str] = None,
    headers: Tuple[Tuple[str, str], ...] = (),
) -> _Response:
    """The canonical JSON error envelope for *status*.

    *error* replaces the reason-phrase default of the ``error`` field
    (``"draining"``, ``"overloaded"``, ``"degraded"``).
    """
    return _Response(
        status,
        canonical_json(
            {
                "schema": WIRE_SCHEMA,
                "error": error or _REASONS.get(status, "error").lower(),
                "detail": detail,
            }
        ),
        extra_headers=headers,
    )


# -- shared request parsing ----------------------------------------------------


def _parse_date_field(payload: dict, field: str) -> Optional[datetime.date]:
    raw = payload.get(field)
    if raw is None:
        return None
    if not isinstance(raw, str):
        raise _BadRequest(f"'{field}' must be an ISO date string")
    try:
        return datetime.date.fromisoformat(raw)
    except ValueError as exc:
        raise _BadRequest(f"invalid '{field}': {exc}")


def _parse_positive_int_field(payload: dict, field: str, default: int) -> int:
    raw = payload.get(field, default)
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
        raise _BadRequest(f"'{field}' must be a positive integer")
    return raw


def parse_timeline_payload(
    body: bytes,
    default_window: Optional[Tuple[datetime.date, datetime.date]],
    default_num_dates: int,
    default_num_sentences: int,
) -> TimelineQuery:
    """Parse one ``POST /v1/timeline`` body into a :class:`TimelineQuery`.

    Shared by the single-index server (window defaults from its own
    index) and the scatter-gather router (window defaults from the
    topology's overall span) so both fronts accept byte-identical
    requests. Raises :class:`_BadRequest` -- mapped to a 400 -- on any
    malformed field.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _BadRequest(f"request body is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise _BadRequest("request body must be a JSON object")
    keywords = payload.get("keywords")
    if (
        not isinstance(keywords, list)
        or not keywords
        or not all(isinstance(k, str) and k.strip() for k in keywords)
    ):
        raise _BadRequest(
            "'keywords' must be a non-empty list of non-empty strings"
        )
    start = _parse_date_field(payload, "start")
    end = _parse_date_field(payload, "end")
    if start is None or end is None:
        if default_window is None:
            raise _BadRequest(
                "'start'/'end' omitted and the index is empty; "
                "ingest articles or pass an explicit window"
            )
        start = start if start is not None else default_window[0]
        end = end if end is not None else default_window[1]
    if start > end:
        raise _BadRequest(f"start {start} must not exceed end {end}")
    num_dates = _parse_positive_int_field(
        payload, "num_dates", default_num_dates
    )
    num_sentences = _parse_positive_int_field(
        payload, "num_sentences", default_num_sentences
    )
    return TimelineQuery(
        keywords=tuple(keywords),
        start=start,
        end=end,
        num_dates=num_dates,
        num_sentences=num_sentences,
    )


def parse_search_query(
    params: Dict[str, List[str]], default_limit: int = 50
) -> SearchQuery:
    """Parse ``GET /v1/search`` query parameters into a :class:`SearchQuery`.

    Shared by the single-index search route, the internal shard route
    and the router's public search route, so all three agree on the
    query grammar. Raises :class:`_BadRequest` on malformed parameters.
    """
    raw_terms: List[str] = []
    for value in params.get("q", []):
        raw_terms.extend(value.split())
    if not raw_terms:
        raise _BadRequest("missing required query parameter 'q'")

    def param_date(name: str) -> Optional[datetime.date]:
        values = params.get(name)
        if not values:
            return None
        try:
            return datetime.date.fromisoformat(values[-1])
        except ValueError as exc:
            raise _BadRequest(f"invalid '{name}': {exc}")

    limit = default_limit
    if params.get("limit"):
        try:
            limit = int(params["limit"][-1])
        except ValueError:
            raise _BadRequest("'limit' must be an integer")
        if limit < 1:
            raise _BadRequest("'limit' must be >= 1")
    mode = params.get("mode", ["any"])[-1]
    phrase = params.get("phrase", ["0"])[-1] in ("1", "true", "yes")
    try:
        return SearchQuery(
            keywords=tuple(raw_terms),
            start=param_date("start"),
            end=param_date("end"),
            limit=limit,
            mode=mode,
            phrase=phrase,
        )
    except ValueError as exc:
        raise _BadRequest(str(exc))


def search_hits(
    records: Iterable[Tuple[datetime.date, str, datetime.date, str, bool]],
    scores: Iterable[float],
) -> List[Dict[str, Any]]:
    """The ``/v1/search`` hit list: one hit per record, best first.

    Each record of *records* is ``(date, text, publication_date,
    article_id, is_reference)``; its score is the matching entry of
    *scores*.

    The one builder behind both ``/v1/search`` handlers: the
    single-index server passes its ranked documents' fields, the router
    the rows its merge keeps (:class:`~repro.serve.router.MergeResult`
    read through :meth:`~repro.search.index.DocumentColumns.records`),
    so the two answer the same bytes.
    """
    return [
        {
            "text": text,
            "date": date.isoformat(),
            "publication_date": publication_date.isoformat(),
            "article_id": article_id,
            "is_reference": reference,
            "score": score,
        }
        for (
            date, text, publication_date, article_id, reference
        ), score in zip(records, scores)
    ]


def parse_ingest_payload(body: bytes) -> Tuple[List[Article], bool]:
    """Parse one ``POST /v1/ingest`` body into ``(articles, sync)``.

    Shared by the single-index server and the router's fan-out route so
    both accept byte-identical requests. The payload is ``{"articles":
    [{"article_id", "publication_date", "title"?, "text"?}, ...],
    "sync"?: bool}``; ``sync`` asks the server to seal the batch before
    responding instead of queueing it. Raises :class:`_BadRequest` --
    mapped to a 400 -- on any malformed field.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _BadRequest(f"request body is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise _BadRequest("request body must be a JSON object")
    raw = payload.get("articles")
    if not isinstance(raw, list) or not raw:
        raise _BadRequest(
            "'articles' must be a non-empty list of article objects"
        )
    sync = payload.get("sync", False)
    if not isinstance(sync, bool):
        raise _BadRequest("'sync' must be a boolean")
    articles: List[Article] = []
    for position, item in enumerate(raw):
        if not isinstance(item, dict):
            raise _BadRequest(f"articles[{position}] must be an object")
        article_id = item.get("article_id")
        if not isinstance(article_id, str) or not article_id.strip():
            raise _BadRequest(
                f"articles[{position}].article_id must be a "
                "non-empty string"
            )
        published = item.get("publication_date")
        if not isinstance(published, str):
            raise _BadRequest(
                f"articles[{position}].publication_date must be an "
                "ISO date string"
            )
        try:
            publication_date = datetime.date.fromisoformat(published)
        except ValueError as exc:
            raise _BadRequest(
                f"invalid articles[{position}].publication_date: {exc}"
            )
        title = item.get("title", "")
        text = item.get("text", "")
        if not isinstance(title, str) or not isinstance(text, str):
            raise _BadRequest(
                f"articles[{position}].title and .text must be strings"
            )
        articles.append(
            Article(
                article_id=article_id,
                publication_date=publication_date,
                title=title,
                text=text,
            )
        )
    return articles, sync


class HttpServerBase:
    """The request pipeline and HTTP/1.1 plumbing of the serving tier.

    Both servers of the tier -- the single-index :class:`TimelineServer`
    and the scatter-gather :class:`~repro.serve.router.TimelineRouter`
    -- are this class plus a candidate source. It owns the socket
    lifecycle (bind, accept loop, graceful drain via
    :meth:`request_shutdown` or signals), request accounting and route
    dispatch, the rejection envelopes, ``/healthz`` and ``/metrics``,
    and the one ``/v1/timeline`` sequence: cache lookup -> single-flight
    -> admission -> compute -> guarded put -> envelope.

    Subclasses set :attr:`metric_prefix` (``serve`` / ``router``) and
    :attr:`role`, and implement the two methods the timeline sequence is
    parameterised by -- :meth:`_cache_version` (the validity token the
    cache key embeds) and :meth:`_compute_timeline` (the candidate
    source plus the WILSON reduce) -- together with
    :meth:`_index_version`, :meth:`_default_window`, :meth:`_health`
    and the ``/v1/search`` and ``/v1/ingest`` handlers.
    """

    #: Namespace of every counter/gauge the base emits.
    metric_prefix = "serve"
    #: What the draining 503 detail calls this process.
    role = "server"
    #: path -> (method, handler attribute); subclasses may extend it.
    routes: Dict[str, Tuple[str, str]] = {
        "/healthz": ("GET", "_handle_healthz"),
        "/metrics": ("GET", "_handle_metrics"),
        "/v1/timeline": ("POST", "_handle_timeline"),
        "/v1/ingest": ("POST", "_handle_ingest"),
        "/v1/search": ("GET", "_handle_search"),
    }
    #: Artificial per-request delay in seconds (fault injection only; see
    #: :class:`TimelineServer`).
    _test_delay_seconds = 0.0

    def __init__(self, config: Any, metrics: Optional[Metrics]) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else Metrics()
        self.cache = ResultCache(
            capacity=config.cache_size,
            ttl_seconds=config.cache_ttl_seconds,
        )
        self.admission = AdmissionController(
            max_inflight=config.max_inflight,
            retry_after_seconds=config.retry_after_seconds,
        )
        # Single-flight table: identical concurrent misses share one
        # computation (docs/architecture.md "Data plane").
        self.flights = FlightTable()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown_event: Optional[asyncio.Event] = None

    # -- subclass hooks --------------------------------------------------------

    def _cache_version(self) -> Hashable:
        """The validity token a timeline cache key embeds at lookup."""
        raise NotImplementedError

    async def _compute_timeline(
        self, query: TimelineQuery, version: Hashable
    ) -> Union[_Response, Tuple[dict, bool, Sequence[int]]]:
        """One cache-missing timeline: ``(result, cacheable, degraded)``.

        *version* is the :meth:`_cache_version` the lookup used;
        ``cacheable`` says whether the result may be stored under it and
        ``degraded`` names shards missing from a partial merge. An error
        comes back as the :class:`_Response` to send.
        """
        raise NotImplementedError

    def _index_version(self) -> int:
        """The index version envelopes, ``/healthz`` and gauges report."""
        raise NotImplementedError

    def _default_window(
        self,
    ) -> Optional[Tuple[datetime.date, datetime.date]]:
        """The window a timeline request without ``start``/``end`` gets."""
        raise NotImplementedError

    async def _health(self) -> Tuple[str, Dict[str, Any]]:
        """``(status, extra fields)`` of a non-draining ``/healthz``."""
        raise NotImplementedError

    def _count(self, name: str) -> None:
        self.metrics.counter(f"{self.metric_prefix}.{name}").inc()

    # -- envelopes -------------------------------------------------------------

    @property
    def _retry_after(self) -> Tuple[Tuple[str, str], ...]:
        return (("Retry-After", f"{self.admission.retry_after_seconds:g}"),)

    def _rejection(self) -> _Response:
        """503 while draining, else 429: both with ``Retry-After``."""
        if self.admission.draining:
            self._count("rejected_draining")
            return error_response(
                503,
                f"{self.role} is shutting down",
                "draining",
                self._retry_after,
            )
        self._count("shed")
        return error_response(
            429,
            f"more than {self.admission.max_inflight} requests in flight",
            "overloaded",
            self._retry_after,
        )

    @staticmethod
    def _envelope(
        index_version: int,
        fields: Dict[str, Any],
        degraded: Sequence[int] = (),
    ) -> _Response:
        """A 200 ``wilson.serve/v1`` envelope.

        A partial merge names its missing shards twice: in the
        :data:`DEGRADED_HEADER` header and a ``degraded_shards`` field.
        """
        envelope = {
            "schema": WIRE_SCHEMA,
            "index_version": index_version,
            **fields,
        }
        headers: Tuple[Tuple[str, str], ...] = ()
        if degraded:
            missing = sorted(degraded)
            envelope["degraded_shards"] = missing
            headers = ((DEGRADED_HEADER, ",".join(map(str, missing))),)
        return _Response(200, canonical_json(envelope), extra_headers=headers)

    # -- the shared routes -----------------------------------------------------

    async def _handle_timeline(self, request: _Request) -> _Response:
        """``POST /v1/timeline``, identically on every server.

        Identical concurrent misses coalesce (:mod:`repro.serve.flight`):
        followers re-loop on wake so they re-check the cache first, and a
        follower that finds an unusable flight outcome computes
        independently (``solo``) rather than daisy-chaining behind the
        next leader. The put is guarded twice: the subclass's
        ``cacheable`` verdict, and the cache generation read before the
        computation started -- any invalidation sweep in between (an
        ingest seal) discards the entry atomically under the cache lock.
        The put's verdict doubles as the flight's validity, so followers
        never reuse a result an invalidation already discarded.
        """
        self._count("timeline_requests")
        query = parse_timeline_payload(
            request.body,
            default_window=self._default_window(),
            default_num_dates=self.config.default_num_dates,
            default_num_sentences=self.config.default_num_sentences,
        )
        solo = False
        while True:
            version = self._cache_version()
            key = make_cache_key(
                query.keywords,
                query.start,
                query.end,
                query.num_dates,
                query.num_sentences,
                version,
            )
            cached = self.cache.get(key)
            if cached is not None:
                self._count("cache_hits")
                return self._timeline_response(cached, "hit")
            if not solo:
                self._count("cache_misses")
            flight = self.flights.lookup(key)
            if flight is None or solo:
                break
            self._count("coalesced_requests")
            await flight.done.wait()
            if flight.ok and flight.valid:
                return self._timeline_response(flight.result, "hit")
            if self.admission.draining:
                return self._rejection()
            solo = True

        if not self.admission.try_admit():
            return self._rejection()
        lead_flight = None if solo else self.flights.lead(key)
        generation = self.cache.generation
        ok = valid = False
        result: Optional[dict] = None
        try:
            outcome = await self._compute_timeline(query, version)
            if isinstance(outcome, _Response):
                return outcome
            result, cacheable, degraded = outcome
            ok = True
            valid = cacheable and self.cache.put(
                key, result, generation=generation
            )
        finally:
            self.admission.release()
            if lead_flight is not None:
                self.flights.finish(
                    key, lead_flight, ok=ok, valid=valid, result=result
                )
        return self._timeline_response(result, "miss", degraded)

    def _timeline_response(
        self, result: dict, cache_state: str, degraded: Sequence[int] = ()
    ) -> _Response:
        return self._envelope(
            self._index_version(),
            {"cache": cache_state, "result": result},
            degraded,
        )

    async def _handle_healthz(self, request: _Request) -> _Response:
        """``GET /healthz``: liveness + index freshness; 503 while draining."""
        status, fields = await self._health()
        draining = self.admission.draining
        payload = {
            "schema": WIRE_SCHEMA,
            "status": "draining" if draining else status,
            "index_version": self._index_version(),
            "inflight": self.admission.inflight,
            "cache_entries": len(self.cache),
            **fields,
        }
        return _Response(503 if draining else 200, canonical_json(payload))

    async def _handle_metrics(self, request: _Request) -> _Response:
        """``GET /metrics``: refresh the gauges, render Prometheus text."""
        for name, value in (
            ("inflight", self.admission.inflight),
            ("cache_entries", len(self.cache)),
            ("index_version", self._index_version()),
            ("draining", 1.0 if self.admission.draining else 0.0),
        ):
            self.metrics.gauge(f"{self.metric_prefix}.{name}").set(value)
        return _Response(
            200,
            self.metrics.render_prometheus().encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _route(self, request: _Request) -> _Response:
        route = self.routes.get(request.path)
        if route is None:
            self._count("not_found")
            return error_response(404, f"no route for {request.path}")
        method, handler = route
        if request.method != method:
            return error_response(405, f"use {method}")
        return await getattr(self, handler)(request)

    async def handle_request(self, request: _Request) -> _Response:
        """Route one request, mapping failures to 4xx/5xx responses."""
        self._count("requests")
        if self._test_delay_seconds:
            await asyncio.sleep(self._test_delay_seconds)
        started = time.perf_counter()
        try:
            response = await self._route(request)
        except _BadRequest as exc:
            self._count("bad_requests")
            response = error_response(400, str(exc))
        except Exception as exc:  # noqa: BLE001 -- never drop a connection
            self._count("errors")
            response = error_response(500, f"{type(exc).__name__}: {exc}")
        self.metrics.histogram(
            f"{self.metric_prefix}.request_seconds"
        ).observe(time.perf_counter() - started)
        return response

    @property
    def draining(self) -> bool:
        """Whether the server is refusing new work (closes keep-alives)."""
        return self.admission.draining

    async def _drain(self) -> bool:
        """Stop admitting, then await in-flight work; the drain verdict."""
        self.admission.begin_drain()
        return await self.admission.wait_idle(
            self.config.drain_timeout_seconds
        )

    # -- HTTP plumbing ---------------------------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_Request]:
        try:
            header_blob = await reader.readuntil(b"\r\n\r\n")
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionResetError,
        ):
            return None
        lines = header_blob.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            return None
        method, target, version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        parsed = urllib.parse.urlsplit(target)
        length = 0
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                return None
        if length < 0:
            return None
        if length > MAX_BODY_BYTES:
            # The body was never read; the connection must close after
            # the 413 or the unread bytes would corrupt the next parse.
            raise _PayloadTooLarge(length)
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return None
        connection = headers.get("connection", "").lower()
        keep_alive = (
            connection != "close"
            if version == "HTTP/1.1"
            else connection == "keep-alive"
        )
        return _Request(
            method=method.upper(),
            path=parsed.path,
            query=urllib.parse.parse_qs(parsed.query),
            headers=headers,
            body=body,
            keep_alive=keep_alive,
        )

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        response: _Response,
        keep_alive: bool,
    ) -> None:
        headers = [
            f"HTTP/1.1 {response.status} "
            f"{_REASONS.get(response.status, 'Unknown')}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
        ]
        for name, value in response.extra_headers:
            headers.append(f"{name}: {value}")
        headers.append(
            "Connection: keep-alive" if keep_alive
            else "Connection: close"
        )
        writer.write(
            "\r\n".join(headers).encode("latin-1")
            + b"\r\n\r\n"
            + response.body
        )
        await writer.drain()

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _PayloadTooLarge as exc:
                    self._count("bad_requests")
                    await self._write_response(
                        writer,
                        error_response(
                            413,
                            f"request body of {exc.args[0]} bytes "
                            f"exceeds the {MAX_BODY_BYTES}-byte limit",
                        ),
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                response = await self.handle_request(request)
                keep_alive = request.keep_alive and not self.draining
                await self._write_response(writer, response, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancels idle keep-alive handlers; exiting
            # cleanly (instead of re-raising) keeps shutdown quiet.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``); 0 before :meth:`start`."""
        if self._server is None or not self._server.sockets:
            return 0
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_BODY_BYTES,
        )

    def request_shutdown(self) -> None:
        """Trigger graceful shutdown; safe to call from any thread."""
        if self._loop is None or self._shutdown_event is None:
            return
        self._loop.call_soon_threadsafe(self._shutdown_event.set)

    async def shutdown(self) -> bool:
        """Graceful drain: stop accepting, finish in-flight, then stop.

        Returns ``True`` when the subclass's :meth:`_drain` reported a
        clean drain, ``False`` when it timed out (stragglers are
        abandoned).
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        return await self._drain()

    async def serve_until_shutdown(
        self, install_signals: bool = True
    ) -> bool:
        """Serve until :meth:`request_shutdown` (or SIGTERM/SIGINT); drain.

        Returns :meth:`shutdown`'s drain verdict.
        """
        if self._server is None:
            await self.start()
        assert self._shutdown_event is not None
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        signum, self._shutdown_event.set
                    )
                except (NotImplementedError, RuntimeError):
                    # Non-main thread or platform without signal support.
                    pass
        await self._shutdown_event.wait()
        return await self.shutdown()

    def run(self, ready: Optional[Callable[[Any], None]] = None) -> bool:
        """Blocking entry point: serve until SIGTERM/SIGINT, then drain.

        *ready*, when given, is called with the started server (the CLI
        uses it to print the bound address after ``port=0``
        resolution). Returns the drain verdict of :meth:`shutdown`.
        """

        async def main() -> bool:
            await self.start()
            if ready is not None:
                ready(self)
            return await self.serve_until_shutdown()

        return asyncio.run(main())


class TimelineServer(HttpServerBase):
    """The asyncio HTTP front of one :class:`RealTimeTimelineSystem`."""

    metric_prefix = "serve"
    routes = {
        **HttpServerBase.routes,
        "/v1/shard/search": ("GET", "_handle_shard_search"),
    }

    def __init__(
        self,
        system: RealTimeTimelineSystem,
        config: Optional[ServeConfig] = None,
        metrics: Optional[Metrics] = None,
        ingest: Optional[IngestPlane] = None,
    ) -> None:
        self.system = system
        super().__init__(config or ServeConfig(), metrics)
        self.batcher = MicroBatcher(
            dispatch=self._dispatch_batch,
            window_seconds=self.config.batch_window_ms / 1000.0,
            max_batch_size=self.config.max_batch_size,
            on_batch=self._record_batch,
        )
        # With an ingest plane attached the result cache switches from
        # version-keyed eviction (every seal strands every entry) to
        # precise day-scoped invalidation: keys carry version 0 and the
        # seal listener drops exactly the entries whose request window
        # intersects the sealed segment's touched dates.
        self.ingest = ingest
        if ingest is not None:
            ingest.add_seal_listener(self._on_segment_sealed)
        # Fault-injection knob for smoke tests: an artificial
        # per-request delay (milliseconds) that makes this worker look
        # slow without touching any real code path -- CI's hedging
        # smoke boots one replica with it and asserts the router's
        # hedges win. Unset/0 in normal operation (docs/serving.md).
        self._test_delay_seconds = (
            float(os.environ.get("WILSON_SERVE_TEST_DELAY_MS", 0) or 0)
            / 1000.0
        )

    def _on_segment_sealed(self, segment: Segment, version: int) -> None:
        """Seal hook: evict cached timelines the new segment staled."""
        dropped = self.cache.invalidate_where(
            lambda key: window_intersects(
                key[1], key[2], segment.touched_dates
            )
        )
        if dropped:
            self.metrics.counter(
                "serve.ingest_invalidated_results"
            ).inc(dropped)

    # -- batched generation ----------------------------------------------------

    def _dispatch_batch(
        self, queries: List[TimelineQuery]
    ) -> Sequence[ShardResult]:
        """Run one micro-batch as a fault-isolated thread-backend sweep."""
        report = self.system.generate_timelines(
            queries,
            policy=ShardPolicy(
                backend="thread",
                workers=min(self.config.workers, max(1, len(queries))),
                retries=self.config.batch_retries,
            ),
            metrics=self.metrics,
        )
        return report.results

    def _record_batch(self, size: int) -> None:
        self.metrics.counter("serve.batches").inc()
        self.metrics.counter("serve.batched_queries").inc(size)
        self.metrics.histogram("serve.batch_size").observe(size)

    # -- the timeline pipeline's hooks -----------------------------------------

    def _cache_version(self) -> int:
        # Live-ingest mode keys entries under version 0: seals no longer
        # strand the whole cache, the seal listener evicts precisely and
        # the generation-guarded put closes the race with it. Segments
        # are appended to the overlay *before* the listener sweeps the
        # cache, so a seal either swept before the computation started
        # (which then sees the post-seal view) or bumps the generation
        # before the put, which is then discarded.
        return 0 if self.ingest is not None else self.system.index_version

    async def _compute_timeline(
        self, query: TimelineQuery, version: Hashable
    ) -> Union[_Response, Tuple[dict, bool, Sequence[int]]]:
        shard = await self.batcher.submit(query)
        if not shard.ok:
            self._count("degraded")
            return error_response(
                500, shard.error or "query failed", "degraded"
            )
        return shard.value.to_dict(), True, ()

    def _index_version(self) -> int:
        return self.system.index_version

    def _default_window(
        self,
    ) -> Optional[Tuple[datetime.date, datetime.date]]:
        dates = self.system.engine.index.dates()
        if not dates:
            return None
        return dates[0], dates[-1]

    async def _health(self) -> Tuple[str, Dict[str, Any]]:
        fields: Dict[str, Any] = {
            "indexed_sentences": self.system.engine.num_indexed_sentences,
            "articles": self.system.engine.num_articles,
        }
        if self.ingest is not None:
            fields["ingest"] = self.ingest.stats()
        return "ok", fields

    # -- route handlers --------------------------------------------------------

    async def _handle_search(self, request: _Request) -> _Response:
        self.metrics.counter("serve.search_requests").inc()
        search_query = parse_search_query(request.query)
        engine = self.system.engine
        loop = asyncio.get_running_loop()

        def compute() -> List[Dict[str, Any]]:
            # Documents, not columns: a repeated hit reads a memoised
            # document, where a column cut costs one cut per touched
            # sub-index of a live index.
            hits = engine.search(search_query)
            return search_hits(
                (
                    (
                        hit.document.date,
                        hit.document.text,
                        hit.document.publication_date,
                        hit.document.article_id,
                        hit.document.is_reference,
                    )
                    for hit in hits
                ),
                (hit.score for hit in hits),
            )

        hits = await loop.run_in_executor(None, compute)
        return self._envelope(
            self.system.index_version, {"count": len(hits), "hits": hits}
        )

    async def _handle_shard_search(self, request: _Request) -> _Response:
        """The scatter-gather fan-in: raw match statistics for a merger.

        Same query grammar as ``/v1/search`` but the response carries
        per-hit term frequencies and document lengths plus this slice's
        corpus statistics (document count, total token count, per-term
        document frequencies) instead of BM25 scores -- everything a
        router needs to reproduce the *global* ranking exactly (see
        :func:`repro.search.query.gather_candidates`).

        The answer is always a binary ``wilson.rpc/v1`` candidate frame
        (:mod:`repro.serve.frames`) encoding the
        :func:`~repro.search.query.candidates_payload` columns: the
        route is internal, and its one client, the router, reads frames
        only.
        """
        self.metrics.counter("serve.shard_search_requests").inc()
        search_query = parse_search_query(request.query)
        engine = self.system.engine
        loop = asyncio.get_running_loop()

        def compute() -> bytes:
            candidates = gather_candidates(
                engine.index,
                search_query,
                params=engine.bm25_params,
                cache=engine.cache,
            )
            return encode_shard_search(
                candidates_payload(
                    engine.index,
                    candidates,
                    self.system.index_version,
                    WIRE_SCHEMA,
                )
            )

        response_body = await loop.run_in_executor(None, compute)
        return _Response(200, response_body, content_type=RPC_CONTENT_TYPE)

    async def _handle_ingest(self, request: _Request) -> _Response:
        """``POST /v1/ingest``: admit a batch of articles into the plane.

        The admission decision is the plane's bounded queue: pressure
        answers 429 + ``Retry-After`` (never 5xx), a draining server
        answers 503, and an accepted batch answers 202 immediately --
        the batch becomes queryable once the writer seals it. A
        ``"sync": true`` payload seals before responding (200) so
        callers can read-their-write, at the cost of waiting on the
        seal lock.
        """
        self.metrics.counter("serve.ingest_requests").inc()
        plane = self.ingest
        if plane is None:
            self.metrics.counter("serve.not_found").inc()
            return error_response(
                404, "ingest is not enabled on this server"
            )
        if self.draining:
            return self._rejection()
        articles, sync = parse_ingest_payload(request.body)
        fields: Dict[str, Any] = {"accepted": len(articles)}
        if sync:
            loop = asyncio.get_running_loop()
            fields["documents"] = await loop.run_in_executor(
                None, plane.ingest, articles
            )
        elif not plane.submit(articles):
            self.metrics.counter("serve.ingest_rejected").inc()
            return error_response(
                429,
                "ingest queue is full "
                f"({plane.config.queue_articles} articles)",
                "overloaded",
                self._retry_after,
            )
        stats = plane.stats()
        return _Response(
            200 if sync else 202,
            canonical_json(
                {
                    "schema": WIRE_SCHEMA,
                    **fields,
                    "queue_depth": stats["queue_depth"],
                    "index_version": stats["index_version"],
                }
            ),
        )

    async def _handle_metrics(self, request: _Request) -> _Response:
        if self.ingest is not None:
            self.ingest.refresh_gauges()
        return await super()._handle_metrics(request)

    # -- lifecycle -------------------------------------------------------------

    async def _drain(self) -> bool:
        idle = await super()._drain()
        if self.ingest is not None:
            # Seal everything still queued before the process exits;
            # with a segments directory nothing is lost even on an
            # unclean exit, but a clean drain leaves the queue empty.
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None,
                lambda: self.ingest.stop(
                    drain=True,
                    timeout=self.config.drain_timeout_seconds,
                ),
            )
        return idle


def run_server(
    system: RealTimeTimelineSystem,
    config: Optional[ServeConfig] = None,
    metrics: Optional[Metrics] = None,
    ready: Optional[Any] = None,
    ingest: Optional[IngestPlane] = None,
) -> bool:
    """Blocking entry point: serve until SIGTERM/SIGINT, then drain.

    *ingest* attaches a started :class:`~repro.ingest.plane.IngestPlane`,
    enabling ``POST /v1/ingest`` (the drain path seals whatever is still
    queued). See :meth:`HttpServerBase.run` for *ready* and the result.
    """
    return TimelineServer(
        system, config=config, metrics=metrics, ingest=ingest
    ).run(ready)


class BackgroundServer:
    """Run an :class:`HttpServerBase` on a private event-loop thread.

    The harness tests and the load benchmark use this to drive the real
    network stack (a :class:`TimelineServer` or a
    :class:`~repro.serve.router.TimelineRouter`) from synchronous
    code::

        with BackgroundServer(TimelineServer(system)) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port)
            ...

    Exiting the context requests a graceful shutdown and joins the
    thread.
    """

    def __init__(self, server: HttpServerBase) -> None:
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def __enter__(self) -> HttpServerBase:
        self._thread = threading.Thread(
            target=self._run, name="wilson-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError(
                "server failed to start"
            ) from self._startup_error
        return self.server

    def _run(self) -> None:
        async def main() -> None:
            try:
                await self.server.start()
            except BaseException as exc:  # noqa: BLE001 -- report to caller
                self._startup_error = exc
                self._started.set()
                return
            self._started.set()
            await self.server.serve_until_shutdown(install_signals=False)

        asyncio.run(main())

    def __exit__(self, *exc_info: Any) -> None:
        self.server.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=30)
