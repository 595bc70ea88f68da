"""Zero-copy snapshot tier benchmark: mmap boot speed + fleet memory.

Two claims about the ``wilson.snapshot/v2`` mmap serving tier
(:mod:`repro.search.snapshot`), plus one recorded figure:

1. **Boot (recorded, no gate)**: seconds from a snapshot restore to a
   serve process's first ``/healthz`` 200, in ``mmap`` and ``copy``
   mode. Both modes read the same section arrays (copy reads them into
   owned memory after verifying every checksum), so copy boots only a
   few milliseconds slower; the 2-core measurements are in
   ``baselines/BENCH_mmap_boot.json``. Neither boot seeds a token
   cache, so this is the index alone; ``bench_cold_path.py`` times the
   full ``serve --snapshot`` restore.
2. **Fleet memory (opt-in, ``BENCH_ASSERT=1``)**: 4 workers mapping the
   same snapshot add at most 1.5x the *unique* index memory of a
   single worker. Per-worker deltas come from
   ``/proc/self/smaps_rollup`` (private + shared split) with the whole
   fleet holding its mappings concurrently, so shared pages are
   attributed once; the copy-mode fleet is measured alongside for the
   contrast (it scales ~linearly with worker count). Workers load
   without a token cache: this measures the index, not the private
   cache a serving worker seeds on top.
3. **Byte identity (always on)**: the served timeline and search
   results are identical -- same canonical JSON bytes -- across the
   source index and its copy and mmap loads.

Scale knob: ``WILSON_BENCH_MMAP_SCALE`` (default 0.3).
``--json-out DIR`` writes ``BENCH_mmap_boot.json``.
"""

import http.client
import json
import os
import subprocess
import sys
import time

from common import assert_if_opted_in, emit, write_json_result
from repro.search.engine import SearchEngine
from repro.search.realtime import RealTimeTimelineSystem
from repro.serve import (
    BackgroundServer,
    ServeConfig,
    TimelineServer,
    canonical_json,
)
from repro.tlsdata.synthetic import make_timeline17_like

MMAP_SCALE = float(os.environ.get("WILSON_BENCH_MMAP_SCALE", "0.3"))
FLEET_SIZES = (1, 2, 4)

#: Runs in a subprocess per worker: load the snapshot, touch the hot
#: read paths, then hold the mapping while the parent coordinates
#: measurement across the whole fleet (shared-page accounting only
#: settles once every worker has mapped the file).
_WORKER_SCRIPT = r"""
import json, sys

def rollup():
    totals = {"private": 0, "shared": 0}
    with open("/proc/self/smaps_rollup") as handle:
        for line in handle:
            parts = line.split()
            if len(parts) < 2:
                continue
            key = parts[0].rstrip(":")
            if key in ("Private_Clean", "Private_Dirty"):
                totals["private"] += int(parts[1]) * 1024
            elif key in ("Shared_Clean", "Shared_Dirty"):
                totals["shared"] += int(parts[1]) * 1024
    return totals

path, mode, src = sys.argv[1], sys.argv[2], sys.argv[3]
sys.path.insert(0, src)
from repro.search.index import InvertedIndex

before = rollup()
index = InvertedIndex.load_snapshot(path, mode=mode, verify=True)
# Touch the structures a serving worker touches, so both modes fault
# (or materialise) comparable state.
_ = index.total_length
_ = index.vocabulary_size()
_ = sum(1 for _ in index.doc_ids_in_range())
print("LOADED", flush=True)
sys.stdin.readline()  # parent: whole fleet is mapped, measure now
print(json.dumps({"before": before, "after": rollup()}), flush=True)
sys.stdin.readline()  # parent: measurement collected, release mapping
"""


def _boot_to_healthz(path, mode):
    """Seconds from snapshot restore to the first /healthz 200."""
    started = time.perf_counter()
    engine = SearchEngine.load_snapshot(path, mode=mode)
    system = RealTimeTimelineSystem(engine=engine, cache=engine.cache)
    config = ServeConfig(port=0, batch_window_ms=1.0)
    with BackgroundServer(TimelineServer(system, config)) as server:
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60
        )
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.status == 200, response.status
            return time.perf_counter() - started
        finally:
            conn.close()


def _best_boot(path, mode, rounds=3):
    return min(_boot_to_healthz(path, mode) for _ in range(rounds))


def _fleet_unique_bytes(path, mode, workers):
    """Unique index memory a *workers*-process fleet adds, in bytes.

    Every worker loads concurrently and holds its mapping; each reports
    its private/shared deltas from ``smaps_rollup``. Private deltas sum
    (per-process copies really exist per process); the shared delta is
    counted once, at its maximum (the same mapped pages show up in every
    worker's shared total).
    """
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _WORKER_SCRIPT, str(path), mode, src],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        for _ in range(workers)
    ]
    try:
        for proc in procs:
            assert proc.stdout.readline().strip() == "LOADED"
        for proc in procs:  # fleet fully mapped -- measure
            proc.stdin.write("\n")
            proc.stdin.flush()
        reports = [json.loads(proc.stdout.readline()) for proc in procs]
    finally:
        for proc in procs:
            try:
                proc.stdin.write("\n")
                proc.stdin.flush()
            except (BrokenPipeError, OSError):
                pass
            proc.wait(timeout=30)
    private = sum(
        max(0, r["after"]["private"] - r["before"]["private"])
        for r in reports
    )
    shared = max(
        max(0, r["after"]["shared"] - r["before"]["shared"])
        for r in reports
    )
    return private + shared


def _served_bytes(engine, instance):
    """Canonical response bytes for one timeline + one search query."""
    system = RealTimeTimelineSystem(engine=engine, cache=engine.cache)
    start, end = instance.corpus.window
    response = system.generate_timeline(
        keywords=tuple(instance.corpus.query),
        start=start,
        end=end,
        num_dates=5,
        num_sentences=1,
    )
    hits = engine.fetch_dated_sentences(
        instance.corpus.query, start=start, end=end, limit=50
    )
    return canonical_json(
        {
            "timeline": response.timeline.to_dict(),
            "hits": [
                [h.date.isoformat(), h.text, h.publication_date.isoformat(),
                 h.article_id, h.is_reference]
                for h in hits
            ],
        }
    )


def test_mmap_boot(benchmark, capsys, json_out, tmp_path):
    instance = make_timeline17_like(
        scale=MMAP_SCALE, seed=11
    ).instances[0]
    engine = SearchEngine()
    engine.add_articles(instance.corpus.articles)
    path = tmp_path / "index.snap"
    engine.save_snapshot(path)

    # Always-on: identical served bytes across load modes.
    baseline_bytes = _served_bytes(engine, instance)
    loads = {
        "v2_copy": SearchEngine.load_snapshot(path, mode="copy"),
        "v2_mmap": SearchEngine.load_snapshot(path, mode="mmap"),
    }
    for label, loaded in loads.items():
        assert _served_bytes(loaded, instance) == baseline_bytes, (
            f"{label} load changed the served bytes"
        )

    def measure():
        boots = {
            "v2_copy": _best_boot(path, "copy"),
            "v2_mmap": _best_boot(path, "mmap"),
        }
        fleets = {}
        for mode in ("copy", "mmap"):
            for workers in FLEET_SIZES:
                fleets[(mode, workers)] = _fleet_unique_bytes(
                    path, mode, workers
                )
        return boots, fleets

    boots, fleets = benchmark.pedantic(measure, rounds=1, iterations=1)
    boot_speedup = boots["v2_copy"] / max(boots["v2_mmap"], 1e-9)
    rss_ratio_mmap = fleets[("mmap", 4)] / max(fleets[("mmap", 1)], 1)
    rss_ratio_copy = fleets[("copy", 4)] / max(fleets[("copy", 1)], 1)

    mib = 1024 * 1024
    emit(
        "mmap_boot",
        ["metric", "copy", "mmap"],
        [
            [
                "boot to first 200",
                f"{boots['v2_copy'] * 1e3:.1f}ms",
                f"{boots['v2_mmap'] * 1e3:.1f}ms",
            ],
            ["boot speedup", "-", f"{boot_speedup:.1f}x"],
            *[
                [
                    f"fleet unique RSS, {workers} worker(s)",
                    f"{fleets[('copy', workers)] / mib:.1f}MiB",
                    f"{fleets[('mmap', workers)] / mib:.1f}MiB",
                ]
                for workers in FLEET_SIZES
            ],
            [
                "4-worker / 1-worker RSS",
                f"{rss_ratio_copy:.2f}x",
                f"{rss_ratio_mmap:.2f}x",
            ],
        ],
        title=(
            f"Zero-copy snapshot tier: {len(engine.index)} documents "
            f"(corpus scale {MMAP_SCALE})"
        ),
        capsys=capsys,
        notes=[
            f"host cpus: {os.cpu_count()}; boot best-of-3 to /healthz",
            "unique RSS = sum of private smaps deltas + shared delta "
            "counted once, fleet mapped concurrently",
        ],
    )
    write_json_result(
        "mmap_boot",
        {
            "documents": len(engine.index),
            "scale": MMAP_SCALE,
            "v2_copy_boot_seconds": boots["v2_copy"],
            "v2_mmap_boot_seconds": boots["v2_mmap"],
            "mmap_boot_speedup": boot_speedup,
            "fleet_unique_rss_bytes": {
                f"{mode}_{workers}": fleets[(mode, workers)]
                for (mode, workers) in fleets
            },
            "mmap_fleet4_rss_ratio": rss_ratio_mmap,
            "copy_fleet4_rss_ratio": rss_ratio_copy,
        },
        json_out,
    )

    assert_if_opted_in(
        rss_ratio_mmap <= 1.5,
        f"expected 4 mmap workers to add <= 1.5x one worker's unique "
        f"index memory, got {rss_ratio_mmap:.2f}x "
        f"({fleets[('mmap', 4)] / mib:.1f}MiB vs "
        f"{fleets[('mmap', 1)] / mib:.1f}MiB; copy-path ratio "
        f"{rss_ratio_copy:.2f}x)",
        capsys,
    )
