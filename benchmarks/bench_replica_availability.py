"""Replica-failover availability drill for the sharded serve tier.

Partitions one indexed corpus into 2 date-range slices, boots **2
worker replicas per slice** (:class:`repro.serve.ShardWorkerPool` with
``replicas=2`` -- all replicas of a slice mmap the same snapshot),
fronts the fleet with a :class:`repro.serve.TimelineRouter`, and drives
``/v1/search`` with closed-loop clients while **SIGKILLing one replica
of every slice mid-traffic**. The router's health-tracked failover
(docs/serving.md, "Replicated shards") should absorb the kills: each
failed replica call retries the same shard on its sibling, so clients
see neither errors nor ``X-Wilson-Degraded`` responses.

Two claims ride along:

1. **Correctness (always asserted):** every routed 200 is byte-identical
   to single-index serving -- before, during, and after the kills (the
   surviving replicas still cover every slice).
2. **Availability (opt-in, ``BENCH_ASSERT=1``):** zero non-200s and
   zero degraded responses across the whole run, and
   ``replica.failovers > 0`` on the router's ``/metrics`` (the kills
   landed mid-traffic and were actually absorbed, not missed). Opt-in
   because a starved single-core container can push replica calls past
   their deadline for reasons unrelated to the kills.

Scale knobs: ``WILSON_BENCH_REPLICA_SCALE`` (default 0.02) and
``WILSON_BENCH_REPLICA_REQUESTS`` (default 48 per phase).
"""

import http.client
import itertools
import os
import signal
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

SCALE = float(os.environ.get("WILSON_BENCH_REPLICA_SCALE", "0.02"))
REQUESTS = int(os.environ.get("WILSON_BENCH_REPLICA_REQUESTS", "48"))
NUM_SHARDS = 2
REPLICAS = 2
CONCURRENCY = 4
#: Completed requests of the kill phase before the SIGKILLs land, so the
#: kills hit a fleet that is demonstrably mid-traffic.
KILL_AFTER = 4


def _build_system():
    instance = make_timeline17_like(scale=SCALE, seed=11).instances[0]
    system = RealTimeTimelineSystem()
    system.ingest(instance.corpus.articles)
    return system, instance


def _query_mix(index, count):
    """*count* distinct full-window multi-term ``/v1/search`` paths."""
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


def _closed_loop(port, paths, reference, concurrency, on_progress=None):
    """Drive *paths* closed-loop; tally latency / errors / degradation.

    Every 200 body is compared against *reference* (path -> expected
    bytes) on the spot -- byte identity is part of the measured loop,
    not a separate probe, so a response that silently diverged during a
    kill would be caught.
    """
    counter = itertools.count()
    done = itertools.count()
    lock = threading.Lock()
    latencies = []
    failures = []
    degraded = []
    mismatches = []

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
                body = response.read()
                elapsed = time.perf_counter() - started
                with lock:
                    latencies.append(elapsed)
                    if response.status != 200:
                        failures.append(response.status)
                    elif body != reference[paths[i]]:
                        mismatches.append(paths[i])
                    if response.getheader("X-Wilson-Degraded"):
                        degraded.append(paths[i])
                if on_progress is not None:
                    on_progress(next(done))
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
    wall = time.perf_counter() - wall_start
    return {
        "latencies": sorted(latencies),
        "failures": failures,
        "degraded": degraded,
        "mismatches": mismatches,
        "wall": wall,
    }


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


def _scrape_counter(port, name):
    status, body = _fetch(port, "/metrics")
    assert status == 200
    for line in body.decode().splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[-1])
    return 0.0


def test_replica_availability_under_kills(
    benchmark, capsys, json_out, tmp_path
):
    system, _ = _build_system()
    paths = _query_mix(system.engine.index, REQUESTS)

    # Single-index reference bytes, per path, for the in-loop identity
    # checks.
    single_config = ServeConfig(port=0, batch_window_ms=1.0, workers=2)
    with BackgroundServer(
        TimelineServer(system, single_config)
    ) as single:
        reference = {}
        for path in paths:
            status, body = _fetch(single.port, path)
            assert status == 200
            reference[path] = body

    def drill():
        topology = export_slices(
            system.engine.index, tmp_path / "slices", NUM_SHARDS
        )
        with ShardWorkerPool(
            topology, batch_window_ms=1.0, replicas=REPLICAS
        ) as pool:
            router = TimelineRouter(
                topology,
                pool.replica_groups,
                config=RouterConfig(
                    port=0,
                    shard_timeout_seconds=120.0,
                    max_inflight=64,
                    max_inflight_per_shard=64,
                ),
                metrics=Metrics(),
            )
            with BackgroundServer(router) as server:
                # Warm every replica outside the measured region.
                _closed_loop(
                    server.port, paths[: 2 * NUM_SHARDS * REPLICAS],
                    reference, 1,
                )

                healthy = _closed_loop(
                    server.port, paths, reference, CONCURRENCY
                )

                # Kill replica 0 of *every* slice once the second phase
                # is demonstrably mid-traffic.
                victims = [
                    worker.process.pid
                    for worker in pool.workers
                    if worker.replica_id == 0
                ]
                killed = threading.Event()

                def on_progress(completed):
                    if completed >= KILL_AFTER and not killed.is_set():
                        killed.set()
                        for pid in victims:
                            os.kill(pid, signal.SIGKILL)

                kill_phase = _closed_loop(
                    server.port, paths, reference, CONCURRENCY,
                    on_progress=on_progress,
                )
                assert killed.is_set(), (
                    "kill phase finished before the kills landed"
                )
                failovers = _scrape_counter(
                    server.port, "wilson_replica_failovers_total"
                )
        return healthy, kill_phase, failovers

    healthy, kill_phase, failovers = benchmark.pedantic(
        drill, rounds=1, iterations=1
    )

    # Correctness gate, always on: every 200 matched the single-index
    # bytes, in both phases.
    for label, phase in (("healthy", healthy), ("kill", kill_phase)):
        assert not phase["mismatches"], (
            f"{label} phase diverged from single-index serving on "
            f"{phase['mismatches'][:3]}"
        )

    errors = len(healthy["failures"]) + len(kill_phase["failures"])
    degraded = len(healthy["degraded"]) + len(kill_phase["degraded"])
    total = len(healthy["latencies"]) + len(kill_phase["latencies"])
    error_rate = errors / max(total, 1)

    rows = []
    for label, phase in (("healthy", healthy), ("kill drill", kill_phase)):
        latencies = phase["latencies"]
        rows.append(
            [
                label,
                f"{_percentile(latencies, 0.50) * 1e3:.1f}ms",
                f"{_percentile(latencies, 0.99) * 1e3:.1f}ms",
                f"{len(latencies) / max(phase['wall'], 1e-9):.1f} req/s",
                str(len(phase["failures"])),
                str(len(phase["degraded"])),
            ]
        )
    emit(
        "replica_availability",
        ["phase", "p50", "p99", "throughput", "non-200s", "degraded"],
        rows,
        title=(
            f"replica availability: {NUM_SHARDS} slices x {REPLICAS} "
            f"replicas, {REQUESTS} requests/phase, {CONCURRENCY} "
            f"clients, one replica per slice SIGKILLed mid-traffic"
        ),
        capsys=capsys,
        notes=[
            f"replica failovers counted by the router: {failovers:.0f}",
            "byte identity vs single-index serving checked on every "
            "200 of both phases (always asserted)",
            "zero-error / zero-degraded / failovers>0 gates enforced "
            "under BENCH_ASSERT=1",
        ],
    )

    write_json_result(
        "replica_availability",
        {
            "scale": SCALE,
            "requests_per_phase": REQUESTS,
            "concurrency": CONCURRENCY,
            "shards": NUM_SHARDS,
            "replicas": REPLICAS,
            "errors": errors,
            "error_rate": error_rate,
            "degraded_responses": degraded,
            "failovers": failovers,
            "healthy_p50_seconds": _percentile(healthy["latencies"], 0.50),
            "healthy_p99_seconds": _percentile(healthy["latencies"], 0.99),
            "kill_p50_seconds": _percentile(kill_phase["latencies"], 0.50),
            "kill_p99_seconds": _percentile(kill_phase["latencies"], 0.99),
        },
        json_out,
    )

    assert_if_opted_in(
        errors == 0,
        f"expected zero non-200s with R={REPLICAS}, got "
        f"{healthy['failures'] + kill_phase['failures']}",
        capsys,
    )
    assert_if_opted_in(
        degraded == 0,
        f"expected zero degraded responses with a live sibling per "
        f"slice, got {degraded}",
        capsys,
    )
    assert_if_opted_in(
        failovers > 0,
        "expected the router to count replica failovers for the "
        "absorbed kills, got 0",
        capsys,
    )
