"""The keep-alive connection pool: reuse, retirement, reaping, retry.

Drives :mod:`repro.serve.pool` against a scriptable in-test asyncio
HTTP server so every keep-alive edge case is deterministic:

* sequential pooled requests reuse one connection (``pool.opens`` /
  ``pool.reuses`` accounting);
* a response without ``Content-Length`` is read to EOF and its
  connection retired, never parked (the keep-alive hang regression);
* a parked connection the server closed is transparently retried on a
  fresh one -- invisible to the caller;
* a failure on a *fresh* connection propagates (real endpoint failure);
* idle connections are reaped past the timeout (injected clock) and
  the per-endpoint idle bound holds.
"""

import asyncio

import pytest

from repro.obs.metrics import Metrics
from repro.serve import ConnectionPool
from repro.serve.pool import request


class ScriptedServer:
    """An asyncio HTTP/1.1 server whose responses the test scripts.

    Each accepted connection serves requests until its script is
    exhausted or the script entry says to close. ``connections`` counts
    accepts -- the number the pool could not avoid.
    """

    def __init__(self):
        self.connections = 0
        self.requests = 0
        self._server = None
        self.port = None
        #: When set, responses omit Content-Length and end with EOF.
        self.chunk_free_mode = False
        #: When set, the server closes each connection after one
        #: response despite answering keep-alive requests.
        self.close_after_response = False

    async def start(self):
        self._server = await asyncio.start_server(
            self._serve, "127.0.0.1", 0
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self):
        self._server.close()
        await self._server.wait_closed()

    async def _serve(self, reader, writer):
        self.connections += 1
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                length = 0
                for line in head.decode("latin-1").split("\r\n"):
                    if line.lower().startswith("content-length:"):
                        length = int(line.split(":", 1)[1])
                if length:
                    await reader.readexactly(length)
                self.requests += 1
                body = b'{"n": %d}' % self.requests
                if self.chunk_free_mode:
                    writer.write(
                        b"HTTP/1.1 200 OK\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Connection: close\r\n\r\n" + body
                    )
                    await writer.drain()
                    writer.close()
                    return
                writer.write(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%b" % (len(body), body)
                )
                await writer.drain()
                if self.close_after_response:
                    writer.close()
                    return
        finally:
            try:
                writer.close()
            except ConnectionError:
                pass


def run(coroutine):
    return asyncio.run(coroutine)


async def _with_server(test):
    server = ScriptedServer()
    await server.start()
    try:
        return await test(server)
    finally:
        await server.stop()


class TestKeepAliveReuse:
    def test_sequential_requests_share_one_connection(self):
        async def test(server):
            metrics = Metrics()
            pool = ConnectionPool(metrics=metrics)
            for _ in range(3):
                status, _, body = await request(
                    "127.0.0.1", server.port, "GET", "/x", pool=pool
                )
                assert status == 200
            pool.close()
            assert server.connections == 1
            snapshot = metrics.snapshot()["counters"]
            assert snapshot["pool.opens"] == 1
            assert snapshot["pool.reuses"] == 2

        run(_with_server(test))

    def test_idle_bound_closes_excess_connections(self):
        async def test(server):
            metrics = Metrics()
            pool = ConnectionPool(
                max_idle_per_endpoint=1, metrics=metrics
            )
            # Two concurrent checkouts force two opens; only one may
            # park on release.
            a = await pool.acquire("127.0.0.1", server.port)
            b = await pool.acquire("127.0.0.1", server.port)
            pool.release(a, reusable=True)
            pool.release(b, reusable=True)
            assert pool.idle_connections == 1
            snapshot = metrics.snapshot()["counters"]
            assert snapshot["pool.opens"] == 2
            assert snapshot["pool.retired"] == 1
            pool.close()
            assert pool.idle_connections == 0

        run(_with_server(test))


class TestMissingContentLength:
    def test_body_is_read_to_eof_and_connection_retired(self):
        """The keep-alive hang regression: a delimiter-free response
        must still deliver its body, and its connection must never be
        parked for the next request to hang on."""

        async def test(server):
            server.chunk_free_mode = True
            metrics = Metrics()
            pool = ConnectionPool(metrics=metrics)
            status, headers, body = await request(
                "127.0.0.1", server.port, "GET", "/x", pool=pool
            )
            assert status == 200
            assert body == b'{"n": 1}'
            assert "content-length" not in headers
            assert pool.idle_connections == 0
            snapshot = metrics.snapshot()["counters"]
            assert snapshot["pool.retired"] == 1
            # The next pooled request must open fresh and still work.
            status, _, body = await request(
                "127.0.0.1", server.port, "GET", "/x", pool=pool
            )
            assert status == 200
            assert body == b'{"n": 2}'
            assert server.connections == 2
            pool.close()

        run(_with_server(test))


class TestStaleReuse:
    def test_server_closed_parked_connection_is_retried(self):
        async def test(server):
            server.close_after_response = True
            pool = ConnectionPool()
            status, _, _ = await request(
                "127.0.0.1", server.port, "GET", "/x", pool=pool
            )
            assert status == 200
            # The server hung up after responding, but the close may
            # not have surfaced yet; the parked connection is stale.
            await asyncio.sleep(0.05)
            status, _, _ = await request(
                "127.0.0.1", server.port, "GET", "/x", pool=pool
            )
            assert status == 200
            assert server.requests == 2
            pool.close()

        run(_with_server(test))

    def test_fresh_connection_failure_propagates(self):
        async def test(server):
            port = server.port
            await server.stop()
            pool = ConnectionPool()
            with pytest.raises((ConnectionError, OSError)):
                await request("127.0.0.1", port, "GET", "/x", pool=pool)
            pool.close()
            # _with_server's stop() needs a live server object.
            await server.start()

        run(_with_server(test))


class TestIdleReaping:
    def test_idle_connections_reap_past_the_timeout(self):
        async def test(server):
            now = [0.0]
            metrics = Metrics()
            pool = ConnectionPool(
                idle_timeout_seconds=30.0,
                metrics=metrics,
                clock=lambda: now[0],
            )
            status, _, _ = await request(
                "127.0.0.1", server.port, "GET", "/x", pool=pool
            )
            assert status == 200
            assert pool.idle_connections == 1
            now[0] = 29.0
            assert pool.reap_idle() == 0
            assert pool.idle_connections == 1
            now[0] = 30.0
            assert pool.reap_idle() == 1
            assert pool.idle_connections == 0
            snapshot = metrics.snapshot()["counters"]
            assert snapshot["pool.idle_reaped"] == 1
            gauges = metrics.snapshot()["gauges"]
            assert gauges["pool.idle_connections"] == 0
            pool.close()

        run(_with_server(test))


class TestValidation:
    def test_bad_configuration_is_rejected(self):
        with pytest.raises(ValueError):
            ConnectionPool(max_idle_per_endpoint=0)
        with pytest.raises(ValueError):
            ConnectionPool(idle_timeout_seconds=0.0)
