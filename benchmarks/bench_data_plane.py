"""Inter-tier data-plane benchmark: pooling + frames, coalescing, hedging.

Three phases, one per data-plane mechanism (the design is the
data-plane section of docs/architecture.md):

1. **Scatter-gather latency.** A 4-slice topology served by in-process
   workers behind a router on the data plane (keep-alive pool +
   ``wilson.rpc/v1`` binary frames). Byte-identity of every routed
   response against single-index serving, connection reuse and binary
   frames are asserted always-on. The ``Connection: close`` + JSON wire
   this plane replaced is gone; its measured 1.53x slower p50 stays in
   the committed baseline (``plane_speedup``).
2. **Coalescing.** 32 identical concurrent cold ``/v1/timeline``
   requests against one server must produce exactly one computation
   (``serve.batched_queries == 1``) -- the thundering herd collapses
   into a leader plus followers/cache hits, every response 200 with
   identical result bytes.
3. **Hedging.** One slice, two replicas, one artificially slow
   (the ``WILSON_SERVE_TEST_DELAY_MS`` mechanism set in-process).
   Under ``BENCH_ASSERT=1`` the hedged p99 must be <= 0.5x the
   unhedged p99, with zero degraded responses either way.

Scale knobs: ``WILSON_BENCH_DATA_PLANE_SCALE`` (default 0.02),
``WILSON_BENCH_DATA_PLANE_REQUESTS`` (default 24 per router).
"""

import http.client
import itertools
import json
import os
import threading
import time

from common import assert_if_opted_in, emit, write_json_result
from repro.core.pipeline import Wilson, WilsonConfig
from repro.obs.metrics import Metrics
from repro.search.engine import SearchEngine
from repro.search.realtime import RealTimeTimelineSystem
from repro.serve import (
    BackgroundServer,
    RouterConfig,
    ServeConfig,
    TimelineRouter,
    TimelineServer,
    export_slices,
)
from repro.tlsdata.synthetic import make_timeline17_like

SCALE = float(os.environ.get("WILSON_BENCH_DATA_PLANE_SCALE", "0.05"))
REQUESTS = int(os.environ.get("WILSON_BENCH_DATA_PLANE_REQUESTS", "48"))
NUM_SHARDS = 4
CONCURRENCY = 8
HERD = 32
HEDGE_ROUNDS = 30
SLOW_REPLICA_SECONDS = 0.35


def _build_system():
    instance = make_timeline17_like(scale=SCALE, seed=11).instances[0]
    system = RealTimeTimelineSystem()
    system.ingest(instance.corpus.articles)
    return system, instance


def _replica_server(slice_path, delay_seconds=0.0):
    wilson = Wilson(WilsonConfig())
    engine = SearchEngine.load_snapshot(slice_path, cache=wilson.cache)
    server = TimelineServer(
        RealTimeTimelineSystem(
            engine=engine, wilson=wilson, cache=wilson.cache
        ),
        ServeConfig(port=0, batch_window_ms=1.0),
    )
    server._test_delay_seconds = delay_seconds
    return server


def _worker_fleet(topology, replicas_per_shard=1, slow_first=0.0):
    """In-process BackgroundServer contexts per slice; enter them all."""
    contexts, groups = [], []
    for shard in topology.shards:
        group = []
        for replica in range(replicas_per_shard):
            delay = slow_first if replica == 0 else 0.0
            context = BackgroundServer(
                _replica_server(shard.path, delay_seconds=delay)
            )
            group.append(context.__enter__())
            contexts.append(context)
        groups.append(
            [f"http://127.0.0.1:{server.port}" for server in group]
        )
    return contexts, groups


def _query_mix(index, count):
    by_df = sorted(
        index.tokens_with_postings(),
        key=index.document_frequency,
        reverse=True,
    )
    heavy = [t for t in by_df if len(t) > 2][:12] or by_df[:12]
    pairs = list(itertools.combinations(heavy, 2))
    return [
        "/v1/search?q={}+{}&limit=50".format(*pairs[i % len(pairs)])
        for i in range(count)
    ]


def _fetch(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _serial_latencies(port, paths):
    latencies, bodies = [], []
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        for path in paths:
            started = time.perf_counter()
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            latencies.append(time.perf_counter() - started)
            assert response.status == 200
            bodies.append(body)
    finally:
        conn.close()
    return latencies, bodies


def _closed_loop(port, paths, concurrency):
    """Per-request latencies and bodies (path-indexed), *concurrency*
    closed-loop clients."""
    counter = itertools.count()
    lock = threading.Lock()
    latencies = []
    bodies = [None] * len(paths)

    def client():
        conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=120
        )
        try:
            while True:
                with lock:
                    i = next(counter)
                if i >= len(paths):
                    return
                started = time.perf_counter()
                conn.request("GET", paths[i])
                response = conn.getresponse()
                body = response.read()
                elapsed = time.perf_counter() - started
                assert response.status == 200
                with lock:
                    latencies.append(elapsed)
                    bodies[i] = body
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client) for _ in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, bodies


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    rank = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[rank]


def _router(topology, groups, **overrides):
    config = dict(
        port=0,
        shard_timeout_seconds=120.0,
        max_inflight=64,
        max_inflight_per_shard=64,
    )
    config.update(overrides)
    return BackgroundServer(
        TimelineRouter(
            topology,
            groups,
            config=RouterConfig(**config),
            metrics=Metrics(),
        )
    )


def _run_scatter_phase(system, instance, tmp_path):
    """(p50, binary-frame count); bytes, reuse and frames asserted."""
    paths = _query_mix(system.engine.index, REQUESTS)
    single_config = ServeConfig(port=0, batch_window_ms=1.0, workers=2)
    with BackgroundServer(
        TimelineServer(system, single_config)
    ) as single:
        references = [
            _fetch(single.port, path) for path in paths
        ]
    assert all(status == 200 for status, _ in references)

    topology = export_slices(
        system.engine.index, tmp_path / "slices", NUM_SHARDS
    )
    contexts, groups = _worker_fleet(topology)
    try:
        with _router(topology, groups) as router:
            _serial_latencies(router.port, paths[:2])  # warm
            latencies, bodies = _closed_loop(
                router.port, paths, CONCURRENCY
            )
            for body, (_, reference) in zip(bodies, references):
                assert body == reference, (
                    "data plane diverged from single-index serving"
                )
            counters = router.metrics.snapshot()["counters"]
            latencies.sort()
    finally:
        for context in contexts:
            context.__exit__(None, None, None)

    assert counters.get("pool.reuses", 0) > 0
    assert counters.get("router.binary_frames", 0) > 0
    return _percentile(latencies, 0.50), counters["router.binary_frames"]


def _run_coalesce_phase(system, instance):
    """(computations, coalesced count); herd responses asserted."""
    start, end = instance.corpus.window
    payload = json.dumps(
        {
            "keywords": list(instance.corpus.query),
            "start": start.isoformat(),
            "end": end.isoformat(),
            "num_dates": 5,
            "num_sentences": 1,
        }
    ).encode()
    config = ServeConfig(port=0, batch_window_ms=1.0, workers=2)
    with BackgroundServer(TimelineServer(system, config)) as server:
        outcomes = []
        lock = threading.Lock()
        barrier = threading.Barrier(HERD)

        def fire():
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=120
            )
            try:
                barrier.wait()
                conn.request(
                    "POST",
                    "/v1/timeline",
                    body=payload,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                raw = response.read()
                with lock:
                    outcomes.append((response.status, raw))
            finally:
                conn.close()

        threads = [threading.Thread(target=fire) for _ in range(HERD)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert [status for status, _ in outcomes] == [200] * HERD
        results = {
            json.dumps(json.loads(raw)["result"], sort_keys=True)
            for _, raw in outcomes
        }
        assert len(results) == 1, "herd saw diverging results"
        counters = server.metrics.snapshot()["counters"]
    computations = counters.get("serve.batched_queries", 0)
    coalesced = counters.get("serve.coalesced_requests", 0)
    return computations, coalesced


def _run_hedge_phase(system, tmp_path):
    """(hedged p99, unhedged p99, hedge wins); health asserted."""
    topology = export_slices(
        system.engine.index, tmp_path / "hedge-slice", 1
    )
    contexts, groups = _worker_fleet(
        topology, replicas_per_shard=2, slow_first=SLOW_REPLICA_SECONDS
    )
    paths = [
        f"/v1/search?q=government&limit={i + 1}"
        for i in range(HEDGE_ROUNDS)
    ]
    try:
        results = {}
        for label, overrides in (
            ("hedged", {}),
            ("unhedged", {"hedge_enabled": False}),
        ):
            overrides = dict(
                overrides,
                hedge_delay_floor_seconds=0.01,
                hedge_delay_max_seconds=0.05,
            )
            with _router(topology, groups, **overrides) as router:
                latencies, _ = _serial_latencies(router.port, paths)
                counters = router.metrics.snapshot()["counters"]
                assert counters.get("router.degraded", 0) == 0
                assert counters.get("router.shard_failures", 0) == 0
                latencies.sort()
                results[label] = (latencies, counters)
    finally:
        for context in contexts:
            context.__exit__(None, None, None)

    hedged_latencies, hedged_counters = results["hedged"]
    unhedged_latencies, unhedged_counters = results["unhedged"]
    assert unhedged_counters.get("replica.hedges", 0) == 0
    return (
        _percentile(hedged_latencies, 0.99),
        _percentile(unhedged_latencies, 0.99),
        hedged_counters.get("replica.hedge_wins", 0),
    )


def test_data_plane(benchmark, capsys, json_out, tmp_path):
    system, instance = _build_system()

    def sweep():
        scatter = _run_scatter_phase(system, instance, tmp_path)
        coalesce = _run_coalesce_phase(system, instance)
        hedge = _run_hedge_phase(system, tmp_path)
        return scatter, coalesce, hedge

    (scatter, coalesce, hedge) = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    fast_p50, binary_frames = scatter
    computations, coalesced = coalesce
    hedged_p99, unhedged_p99, hedge_wins = hedge

    hedge_ratio = hedged_p99 / max(unhedged_p99, 1e-9)
    emit(
        "data_plane",
        ["phase", "metric", "value"],
        [
            [
                "scatter",
                "p50",
                f"{fast_p50 * 1e3:.1f}ms",
            ],
            [
                "scatter",
                "binary frames",
                str(binary_frames),
            ],
            [
                "coalesce",
                f"computations for {HERD} identical colds",
                f"{computations} ({coalesced} coalesced)",
            ],
            [
                "hedge",
                "p99 hedged / unhedged",
                f"{hedged_p99 * 1e3:.0f}ms / {unhedged_p99 * 1e3:.0f}ms "
                f"({hedge_ratio:.2f}x, {hedge_wins} wins)",
            ],
        ],
        title=(
            f"data plane: {NUM_SHARDS} shards, {REQUESTS} requests, "
            f"corpus scale {SCALE}"
        ),
        capsys=capsys,
        notes=[
            "scatter = keep-alive pool + wilson.rpc/v1 frames",
            "byte-identity vs single-index serving asserted always-on "
            "for every routed response",
        ],
    )

    write_json_result(
        "data_plane",
        {
            "scale": SCALE,
            "requests": REQUESTS,
            "num_shards": NUM_SHARDS,
            "fast_p50_seconds": fast_p50,
            "herd_size": HERD,
            "herd_computations": computations,
            "herd_coalesced": coalesced,
            "hedged_p99_seconds": hedged_p99,
            "unhedged_p99_seconds": unhedged_p99,
            "hedge_p99_ratio": hedge_ratio,
            "hedge_wins": hedge_wins,
        },
        json_out,
    )

    assert computations >= 1
    assert_if_opted_in(
        computations == 1,
        f"expected exactly 1 computation for {HERD} identical cold "
        f"queries, got {computations}",
        capsys,
    )
    assert_if_opted_in(
        hedge_ratio <= 0.5,
        f"expected hedged p99 <= 0.5x unhedged, got {hedge_ratio:.2f}x",
        capsys,
    )
