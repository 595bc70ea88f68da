"""Cold-path benchmark: snapshot restore speed and pruned cold queries.

Two measurements from the serving cold path:

1. **Boot** (recorded, no gate): restoring the index from a binary
   snapshot (:mod:`repro.search.snapshot`) the way ``serve --snapshot``
   does -- mapped, with a fresh token cache seeded from it -- and the
   boot-to-first-200 of a real HTTP server on top. The snapshot used to
   be compared with replaying a JSONL index through the analyzer; that
   format is gone, and the committed ``BENCH_cold_path_boot.json``
   keeps the last such comparison.
2. **Cold queries** (opt-in ``BENCH_ASSERT=1`` gate; ratios flake on
   oversubscribed runners, so by default they are recorded
   informationally): the result-cache-miss p50 at 1 / 8 / 32
   closed-loop clients, pruning on vs off. "On" is the documented
   serving profile -- the shared day-matrix/ranking cache and neighbour
   truncation at their defaults plus a tightened candidate-date cap
   (``max_graph_dates=64``; the exactness-preserving default of 512 is
   a no-op on corpora this small). The >= 1.5x gate applies to the best
   speedup across the concurrency sweep: concurrent cache-miss queries
   sharing memoised day rankings is the claim under test, but *which*
   level shows it strongest varies with scheduler noise on small hosts.
   A separate always-on assert pins that the *default* configuration
   serves bytes identical to pruning disabled.

Scale knobs: ``WILSON_BENCH_COLD_SCALE`` (index size for the load
comparison, default 0.3), ``WILSON_BENCH_COLD_QUERY_SCALE`` (corpus
behind the query matrix, default 0.06) and
``WILSON_BENCH_COLD_REQUESTS`` (requests per concurrency level,
default 24).

``--json-out DIR`` additionally writes ``BENCH_cold_path*.json``
(metrics + git SHA + timestamp; see :func:`common.write_json_result`).
"""

import http.client
import json
import os
import time

from bench_serve_load import _closed_loop, _payloads, _percentile
from common import assert_if_opted_in, emit, write_json_result
from repro.core.pipeline import Wilson, WilsonConfig
from repro.search.engine import SearchEngine
from repro.search.realtime import RealTimeTimelineSystem
from repro.serve import (
    BackgroundServer,
    ServeConfig,
    TimelineServer,
    canonical_json,
)
from repro.tlsdata.synthetic import make_timeline17_like

COLD_SCALE = float(os.environ.get("WILSON_BENCH_COLD_SCALE", "0.3"))
QUERY_SCALE = float(
    os.environ.get("WILSON_BENCH_COLD_QUERY_SCALE", "0.06")
)
REQUESTS_PER_LEVEL = int(
    os.environ.get("WILSON_BENCH_COLD_REQUESTS", "24")
)
CONCURRENCY_LEVELS = (1, 8, 32)

#: The pruning-disabled baseline the cold-query gate compares against.
BASELINE_CONFIG = dict(
    max_graph_dates=None,
    textrank_neighbors=None,
    day_matrix_cache=False,
)

#: The latency-tuned serving profile: defaults plus a candidate-date
#: cap tight enough to fire on the bench corpus (the default 512 is
#: chosen to be a no-op -- exact results -- at fixture scales).
SERVING_CONFIG = dict(max_graph_dates=64)


def _best_of(n, fn, *args, **kwargs):
    """Min wall-clock of *n* runs (load times are noise-floor sensitive)."""
    best = float("inf")
    result = None
    for _ in range(n):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return result, best


def _serve_load(path):
    """The ``serve --snapshot`` restore: mapped, seeding a fresh cache."""
    wilson = Wilson(WilsonConfig())
    engine = SearchEngine.load_snapshot(path, cache=wilson.cache, mode="mmap")
    return RealTimeTimelineSystem(
        engine=engine, wilson=wilson, cache=wilson.cache
    )


def _boot_to_first_200(path, payload):
    """Seconds from index restore to the first 200 over real HTTP."""
    started = time.perf_counter()
    system = _serve_load(path)
    config = ServeConfig(port=0, batch_window_ms=1.0)
    with BackgroundServer(TimelineServer(system, config)) as server:
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=120
        )
        try:
            conn.request(
                "POST", "/v1/timeline", body=payload,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            response.read()
            assert response.status == 200, response.status
            return time.perf_counter() - started
        finally:
            conn.close()


def test_cold_start(benchmark, capsys, json_out, tmp_path):
    instance = make_timeline17_like(
        scale=COLD_SCALE, seed=11
    ).instances[0]
    engine = SearchEngine()
    engine.add_articles(instance.corpus.articles)
    snapshot_path = tmp_path / "index.snap"
    engine.save_snapshot(snapshot_path)
    payload = _payloads(instance, 1, distinct=False)[0]

    def measure():
        system, snap_seconds = _best_of(3, _serve_load, snapshot_path)
        # The restore must reconstruct the source index.
        assert system.index_version == engine.index_version
        assert len(system.engine.index) == len(engine.index)
        return snap_seconds, _boot_to_first_200(snapshot_path, payload)

    snap_seconds, snap_boot = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    emit(
        "cold_path_boot",
        ["restore path", "index load", "boot to first 200"],
        [
            [
                "binary snapshot (mapped, cache seeded)",
                f"{snap_seconds * 1e3:.1f}ms",
                f"{snap_boot * 1e3:.1f}ms",
            ],
        ],
        title=(
            f"Cold start: {len(engine.index)} documents "
            f"(corpus scale {COLD_SCALE})"
        ),
        capsys=capsys,
        notes=[f"host cpus: {os.cpu_count()}; load times best-of-3"],
    )
    write_json_result(
        "cold_path_boot",
        {
            "documents": len(engine.index),
            "scale": COLD_SCALE,
            "snapshot_load_seconds": snap_seconds,
            "snapshot_boot_to_first_200_seconds": snap_boot,
        },
        json_out,
    )


def test_cold_query_pruning(benchmark, capsys, json_out):
    instance = make_timeline17_like(
        scale=QUERY_SCALE, seed=11
    ).instances[0]

    def build_system(**config):
        system = RealTimeTimelineSystem(
            wilson=Wilson(WilsonConfig(**config))
        )
        system.ingest(instance.corpus.articles)
        return system

    pruned = build_system(**SERVING_CONFIG)
    baseline = build_system(**BASELINE_CONFIG)
    serve_config = ServeConfig(
        port=0, workers=4, batch_window_ms=2.0,
        cache_size=1024, max_inflight=64,
    )

    def load_matrix():
        results = {}
        for label, system in (("pruned", pruned), ("baseline", baseline)):
            with BackgroundServer(
                TimelineServer(system, serve_config)
            ) as server:
                for concurrency in CONCURRENCY_LEVELS:
                    payloads = _payloads(
                        instance, REQUESTS_PER_LEVEL, distinct=True
                    )
                    # Every request must miss the *result* cache; the
                    # day-matrix cache staying warm across requests is
                    # exactly the optimisation under test.
                    server.cache.clear()
                    results[(label, concurrency)] = _closed_loop(
                        server.port, payloads, concurrency
                    )
        return results

    results = benchmark.pedantic(load_matrix, rounds=1, iterations=1)

    rows = []
    p50 = {}
    for (label, concurrency), (latencies, statuses, wall) in sorted(
        results.items()
    ):
        assert all(status == 200 for status in statuses), statuses
        latencies.sort()
        p50[(label, concurrency)] = _percentile(latencies, 0.50)
        rows.append(
            [
                f"{concurrency} clients",
                label,
                f"{_percentile(latencies, 0.50) * 1e3:.1f}ms",
                f"{_percentile(latencies, 0.99) * 1e3:.1f}ms",
                f"{len(latencies) / max(wall, 1e-9):.1f} req/s",
            ]
        )
    for concurrency in CONCURRENCY_LEVELS:
        ratio = p50[("baseline", concurrency)] / max(
            p50[("pruned", concurrency)], 1e-9
        )
        rows.append([f"{concurrency} clients", "speedup",
                     f"{ratio:.1f}x", "-", "-"])

    emit(
        "cold_path_queries",
        ["concurrency", "config", "p50", "p99", "throughput"],
        rows,
        title=(
            f"Cache-miss queries: pruned defaults vs pruning disabled, "
            f"{REQUESTS_PER_LEVEL} requests per level, "
            f"corpus scale {QUERY_SCALE}"
        ),
        capsys=capsys,
        notes=[
            f"host cpus: {os.cpu_count()}; every request misses the "
            "result cache (distinct windows, cache cleared per level)",
            "pruned = serving profile (defaults + max_graph_dates=64); "
            "baseline disables max_graph_dates / textrank_neighbors / "
            "day_matrix_cache",
        ],
    )
    write_json_result(
        "cold_path_queries",
        {
            "scale": QUERY_SCALE,
            "requests_per_level": REQUESTS_PER_LEVEL,
            "p50_seconds": {
                f"{label}_{concurrency}": value
                for (label, concurrency), value in p50.items()
            },
        },
        json_out,
    )

    # Always-on: the *default* pruning knobs must not change the served
    # bytes (the serving profile above deliberately trades the date
    # cap's exactness for latency; the defaults do not).
    defaults = build_system()
    start, end = instance.corpus.window
    query = dict(
        keywords=tuple(instance.corpus.query),
        start=start, end=end, num_dates=5, num_sentences=1,
    )
    assert canonical_json(
        defaults.generate_timeline(**query).timeline.to_dict()
    ) == canonical_json(
        baseline.generate_timeline(**query).timeline.to_dict()
    ), "pruning defaults changed the served timeline bytes"

    ratios = {
        concurrency: p50[("baseline", concurrency)]
        / max(p50[("pruned", concurrency)], 1e-9)
        for concurrency in CONCURRENCY_LEVELS
    }
    best = max(ratios, key=ratios.get)
    assert_if_opted_in(
        ratios[best] >= 1.5,
        f"expected pruned cache-miss p50 >= 1.5x faster at some "
        f"concurrency level, got "
        + ", ".join(
            f"{c} clients: {r:.2f}x" for c, r in sorted(ratios.items())
        ),
        capsys,
    )
