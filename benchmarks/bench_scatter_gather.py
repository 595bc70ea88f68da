"""Scatter-gather scaling benchmark for the sharded serve tier.

Partitions one indexed corpus into 1 / 2 / 4 date-range slices
(:func:`repro.serve.export_slices`), boots each slice as a real worker
subprocess (:class:`repro.serve.ShardWorkerPool`), fronts every
topology with a :class:`repro.serve.TimelineRouter`, and drives
``/v1/search`` with closed-loop clients.  The search fan-out is the
embarrassingly parallel part of the tier -- each worker scores only its
own slice's postings, roughly ``1/N`` of the corpus -- so throughput
should scale near-linearly with the shard count on hardware with the
cores to back it.

Two claims ride along:

1. **Correctness (always asserted):** the routed ``/v1/search``
   response is byte-identical to single-index serving, per topology.
2. **Scaling (opt-in, ``BENCH_ASSERT=1``):** QPS(2 shards) >= 1.6x
   QPS(1 shard) and QPS(4 shards) >= 2.5x QPS(1 shard).  A single-core
   container cannot exhibit multi-process speedups, hence opt-in --
   the 1-shard baseline also runs *behind the router*, so the
   comparison isolates shard parallelism from router overhead.

Scale knobs: ``WILSON_BENCH_SCATTER_SCALE`` (default 0.02) and
``WILSON_BENCH_SCATTER_REQUESTS`` (default 32 per topology).
"""

import http.client
import itertools
import os
import threading
import time

from common import assert_if_opted_in, emit, write_json_result
from repro.obs.metrics import Metrics
from repro.search.realtime import RealTimeTimelineSystem
from repro.serve import (
    BackgroundServer,
    RouterConfig,
    ServeConfig,
    ShardWorkerPool,
    TimelineRouter,
    TimelineServer,
    export_slices,
)
from repro.tlsdata.synthetic import make_timeline17_like

SCALE = float(os.environ.get("WILSON_BENCH_SCATTER_SCALE", "0.02"))
REQUESTS = int(os.environ.get("WILSON_BENCH_SCATTER_REQUESTS", "32"))
SHARD_COUNTS = (1, 2, 4)
CONCURRENCY = 8


def _build_system():
    instance = make_timeline17_like(scale=SCALE, seed=11).instances[0]
    system = RealTimeTimelineSystem()
    system.ingest(instance.corpus.articles)
    return system, instance


def _query_mix(index, count):
    """*count* full-window multi-term queries over high-df vocabulary.

    High-df terms touch long posting lists on every shard, so per-request
    work splits ~1/N across workers; rotating term pairs keeps requests
    distinct (the router does not cache ``/v1/search``, but distinct
    queries also defeat any OS-level locality artifacts).
    """
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


def _closed_loop(port, paths, concurrency):
    counter = itertools.count()
    lock = threading.Lock()
    latencies = []
    failures = []

    def client():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                with lock:
                    i = next(counter)
                if i >= len(paths):
                    return
                started = time.perf_counter()
                conn.request("GET", paths[i])
                response = conn.getresponse()
                response.read()
                elapsed = time.perf_counter() - started
                with lock:
                    latencies.append(elapsed)
                    if response.status != 200:
                        failures.append(response.status)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client) for _ in range(concurrency)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, failures, time.perf_counter() - wall_start


def _fetch(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    rank = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[rank]


def test_scatter_gather_scaling(benchmark, capsys, json_out, tmp_path):
    system, instance = _build_system()
    paths = _query_mix(system.engine.index, REQUESTS)
    probe = paths[0]

    # Single-index reference bytes for the correctness gate.
    single_config = ServeConfig(port=0, batch_window_ms=1.0, workers=2)
    with BackgroundServer(
        TimelineServer(system, single_config)
    ) as single:
        status, reference = _fetch(single.port, probe)
    assert status == 200

    def sweep():
        results = {}
        for num_shards in SHARD_COUNTS:
            topology = export_slices(
                system.engine.index,
                tmp_path / f"shards-{num_shards}",
                num_shards,
            )
            with ShardWorkerPool(topology, batch_window_ms=1.0) as pool:
                router = TimelineRouter(
                    topology,
                    pool.endpoints,
                    config=RouterConfig(
                        port=0,
                        shard_timeout_seconds=120.0,
                        max_inflight=64,
                        max_inflight_per_shard=64,
                    ),
                    metrics=Metrics(),
                )
                with BackgroundServer(router) as server:
                    # Warm every worker outside the measured region.
                    _closed_loop(server.port, paths[:2], 1)
                    probe_status, probe_body = _fetch(server.port, probe)
                    timing = _closed_loop(
                        server.port, paths, CONCURRENCY
                    )
                    results[num_shards] = (
                        timing, probe_status, probe_body
                    )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    qps = {}
    rows = []
    for num_shards in SHARD_COUNTS:
        (latencies, failures, wall), probe_status, probe_body = results[
            num_shards
        ]
        # Correctness gate: routed bytes == single-index bytes, and the
        # whole measured run stayed healthy.
        assert probe_status == 200
        assert probe_body == reference, (
            f"{num_shards}-shard routed /v1/search diverged from "
            f"single-index serving"
        )
        assert not failures, (
            f"{num_shards}-shard run returned non-200s: {failures}"
        )
        latencies.sort()
        qps[num_shards] = len(latencies) / max(wall, 1e-9)
        rows.append(
            [
                f"{num_shards} shard(s)",
                f"{_percentile(latencies, 0.50) * 1e3:.1f}ms",
                f"{_percentile(latencies, 0.99) * 1e3:.1f}ms",
                f"{qps[num_shards]:.1f} req/s",
                f"{qps[num_shards] / qps[SHARD_COUNTS[0]]:.2f}x",
            ]
        )

    speedup_2 = qps[2] / qps[1]
    speedup_4 = qps[4] / qps[1]
    emit(
        "scatter_gather",
        ["topology", "p50", "p99", "throughput", "speedup"],
        rows,
        title=(
            f"scatter-gather /v1/search scaling: {REQUESTS} requests, "
            f"{CONCURRENCY} clients, corpus scale {SCALE}"
        ),
        capsys=capsys,
        notes=[
            f"host cpus: {os.cpu_count()}; workers are real "
            "subprocesses, the 1-shard baseline also runs behind the "
            "router",
            f"speedups: 2 shards {speedup_2:.2f}x, 4 shards "
            f"{speedup_4:.2f}x (enforced >=1.6x / >=2.5x under "
            "BENCH_ASSERT=1)",
        ],
    )

    write_json_result(
        "scatter_gather",
        {
            "scale": SCALE,
            "requests": REQUESTS,
            "concurrency": CONCURRENCY,
            "qps": {str(n): qps[n] for n in SHARD_COUNTS},
            "speedup_2_shards": speedup_2,
            "speedup_4_shards": speedup_4,
        },
        json_out,
    )

    assert_if_opted_in(
        speedup_2 >= 1.6,
        f"expected >=1.6x QPS at 2 shards, got {speedup_2:.2f}x",
        capsys,
    )
    assert_if_opted_in(
        speedup_4 >= 2.5,
        f"expected >=2.5x QPS at 4 shards, got {speedup_4:.2f}x",
        capsys,
    )
