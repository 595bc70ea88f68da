"""Keep-alive HTTP connection pooling for the inter-tier data plane.

Every router->shard call used to open a fresh TCP connection and send
``Connection: close``; at production fan-outs that is one three-way
handshake plus slow-start per shard per request, paid on the critical
path. :class:`ConnectionPool` keeps HTTP/1.1 connections alive per
``(host, port)`` endpoint and hands them back out, so a steady query
stream converges to zero connection setups.

Contract (what the router and the tests rely on):

* **Bounded.** At most ``max_idle_per_endpoint`` idle connections are
  parked per endpoint; a release beyond the bound closes the
  connection (counted ``pool.retired``). In-flight connections are not
  bounded here -- admission control bounds the requests that hold them.
* **Reaped.** :meth:`reap_idle` closes idle connections older than
  ``idle_timeout_seconds`` (counted ``pool.idle_reaped``); the router
  calls it from its probe loop so parked connections never outlive a
  quiet period by much. The clock is injectable for deterministic
  tests.
* **Stale reuse is retried, broken connections are retired.** A server
  may close a parked connection at any time; :func:`request` retries
  exactly once on a fresh connection when a *reused* one fails before
  yielding any response byte (the normal keep-alive race, invisible to
  callers and to replica health). A failure on a fresh connection
  propagates -- that is a real endpoint failure and the router feeds it
  to :class:`~repro.serve.health.ReplicaHealth`. Any connection that
  errors or is cancelled mid-response is closed, never re-parked.
* **Missing ``Content-Length`` forces a close.** Without a length the
  only response delimiter HTTP/1.1 leaves is EOF, so the body is read
  to EOF and the connection is always retired instead of returned to
  the pool -- parking it would make the *next* request on it hang
  waiting for bytes that already belonged to the previous response.

Metric names are pinned in :data:`POOL_METRIC_NAMES`, documented in
docs/observability.md and drift-tested by
tests/test_docs_observability.py.

Single-loop discipline: the pool is designed for one asyncio event
loop (the router's); nothing here takes locks.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.metrics import Metrics

#: Every metric name the connection pool may emit, by kind. Documented
#: in docs/observability.md and drift-tested by
#: tests/test_docs_observability.py.
POOL_COUNTERS = (
    "pool.opens",
    "pool.reuses",
    "pool.retired",
    "pool.idle_reaped",
)
POOL_GAUGES = ("pool.idle_connections",)
POOL_METRIC_NAMES = POOL_COUNTERS + POOL_GAUGES

#: One endpoint identity.
Endpoint = Tuple[str, int]


class PooledConnection:
    """One live connection plus the bookkeeping the pool needs."""

    __slots__ = ("reader", "writer", "endpoint", "reused", "idle_since")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        endpoint: Endpoint,
        reused: bool,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.endpoint = endpoint
        #: Whether this checkout came from the idle list (a keep-alive
        #: reuse) rather than a fresh ``open_connection``; decides
        #: whether a pre-response failure is transparently retried.
        self.reused = reused
        self.idle_since = 0.0

    def close(self) -> None:
        try:
            self.writer.close()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


class ConnectionPool:
    """Per-endpoint keep-alive connection pool (single event loop)."""

    def __init__(
        self,
        max_idle_per_endpoint: int = 8,
        idle_timeout_seconds: float = 30.0,
        metrics: Optional[Metrics] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_idle_per_endpoint < 1:
            raise ValueError(
                "max_idle_per_endpoint must be >= 1, got "
                f"{max_idle_per_endpoint}"
            )
        if idle_timeout_seconds <= 0:
            raise ValueError(
                "idle_timeout_seconds must be > 0, got "
                f"{idle_timeout_seconds}"
            )
        self.max_idle_per_endpoint = max_idle_per_endpoint
        self.idle_timeout_seconds = idle_timeout_seconds
        self._metrics = metrics
        self._clock = clock
        self._idle: Dict[Endpoint, Deque[PooledConnection]] = {}
        self._closed = False

    # -- metrics ---------------------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        if self._metrics is not None and value:
            self._metrics.counter(name).inc(value)

    def _sync_gauge(self) -> None:
        if self._metrics is not None:
            self._metrics.gauge("pool.idle_connections").set(
                self.idle_connections
            )

    @property
    def idle_connections(self) -> int:
        return sum(len(parked) for parked in self._idle.values())

    # -- checkout / checkin ----------------------------------------------------

    async def acquire(self, host: str, port: int) -> PooledConnection:
        """A live connection to ``host:port`` -- parked if any, else new.

        Parked connections are handed out LIFO (the most recently used
        one is the least likely to have been closed by the server's own
        idle timer). A parked connection the server already closed is
        silently retired and the next one tried.
        """
        endpoint = (host, port)
        parked = self._idle.get(endpoint)
        while parked:
            connection = parked.pop()
            if connection.writer.is_closing() or connection.reader.at_eof():
                connection.close()
                self._count("pool.retired")
                continue
            connection.reused = True
            self._count("pool.reuses")
            self._sync_gauge()
            return connection
        reader, writer = await asyncio.open_connection(host, port)
        self._count("pool.opens")
        self._sync_gauge()
        return PooledConnection(reader, writer, endpoint, reused=False)

    def release(self, connection: PooledConnection, reusable: bool) -> None:
        """Return a checkout: park it for reuse, or close it for good.

        ``reusable=False`` -- an error, a cancellation mid-response, a
        ``Connection: close`` answer, or a missing ``Content-Length`` --
        always closes (counted ``pool.retired``); so does any release
        past the per-endpoint idle bound or after :meth:`close`.
        """
        if (
            not reusable
            or self._closed
            or len(self._idle.get(connection.endpoint, ()))
            >= self.max_idle_per_endpoint
        ):
            connection.close()
            self._count("pool.retired")
            self._sync_gauge()
            return
        connection.idle_since = self._clock()
        self._idle.setdefault(connection.endpoint, deque()).append(
            connection
        )
        self._sync_gauge()

    # -- maintenance -----------------------------------------------------------

    def reap_idle(self, now: Optional[float] = None) -> int:
        """Close idle connections older than the idle timeout; the count."""
        if now is None:
            now = self._clock()
        reaped = 0
        for parked in self._idle.values():
            while (
                parked
                and now - parked[0].idle_since >= self.idle_timeout_seconds
            ):
                parked.popleft().close()
                reaped += 1
        self._count("pool.idle_reaped", reaped)
        if reaped:
            self._sync_gauge()
        return reaped

    def close(self) -> None:
        """Close every parked connection and refuse future parking."""
        self._closed = True
        for parked in self._idle.values():
            while parked:
                parked.pop().close()
        self._idle.clear()
        self._sync_gauge()


# -- pooled HTTP requests ------------------------------------------------------


def _build_head(
    method: str,
    path_and_query: str,
    host: str,
    port: int,
    body: Optional[bytes],
    content_type: Optional[str],
    headers: Sequence[Tuple[str, str]],
) -> bytes:
    lines = [
        f"{method} {path_and_query} HTTP/1.1",
        f"Host: {host}:{port}",
    ]
    if body is not None:
        lines.append(
            f"Content-Type: {content_type or 'application/json'}"
        )
        lines.append(f"Content-Length: {len(body)}")
    for name, value in headers:
        lines.append(f"{name}: {value}")
    lines.append("Connection: keep-alive")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def _roundtrip(
    connection: PooledConnection, head: bytes, body: Optional[bytes]
) -> Tuple[int, Dict[str, str], bytes, bool]:
    """One request/response exchange on *connection*.

    Returns ``(status, headers, body, reusable)`` where *reusable*
    reports whether the connection is safe to park afterwards: the
    response carried a ``Content-Length`` (so the body boundary is
    exact) and did not ask for a close.
    """
    connection.writer.write(head + body if body is not None else head)
    await connection.writer.drain()
    header_blob = await connection.reader.readuntil(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError(f"malformed status line: {lines[0]!r}")
    status = int(parts[1])
    response_headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        response_headers[name.strip().lower()] = value.strip()
    length: Optional[int] = None
    if "content-length" in response_headers:
        try:
            length = int(response_headers["content-length"])
        except ValueError:
            raise ConnectionError(
                "malformed Content-Length: "
                f"{response_headers['content-length']!r}"
            )
    if length is not None:
        payload = await connection.reader.readexactly(length)
    else:
        # No length means EOF is the only delimiter: drain to EOF and
        # force the connection closed afterwards. Parking it would hang
        # the next request on it forever.
        payload = await connection.reader.read()
    reusable = (
        length is not None
        and response_headers.get("connection", "").lower() != "close"
    )
    return status, response_headers, payload, reusable


async def request(
    host: str,
    port: int,
    method: str,
    path_and_query: str,
    pool: ConnectionPool,
    body: Optional[bytes] = None,
    content_type: Optional[str] = None,
    headers: Sequence[Tuple[str, str]] = (),
) -> Tuple[int, Dict[str, str], bytes]:
    """One stdlib-only HTTP request; ``(status, headers, body)``.

    The exchange runs on a keep-alive connection from *pool*,
    transparently retrying once when a reused connection turns out
    stale.
    """
    head = _build_head(
        method, path_and_query, host, port, body, content_type, headers
    )
    attempts = 2
    for attempt in range(attempts):
        connection = await pool.acquire(host, port)
        try:
            status, response_headers, payload, reusable = (
                await _roundtrip(connection, head, body)
            )
        except (OSError, EOFError, ConnectionError) as exc:
            pool.release(connection, reusable=False)
            if connection.reused and attempt + 1 < attempts:
                continue
            raise ConnectionError(
                f"request to {host}:{port} failed: {exc}"
            ) from exc
        except BaseException:
            # Cancellation (a hedged loser) or anything unexpected may
            # leave a half-read response on the wire: never re-park.
            pool.release(connection, reusable=False)
            raise
        pool.release(connection, reusable=reusable)
        return status, response_headers, payload
    raise ConnectionError(f"request to {host}:{port} failed")
