"""Traced launcher: ``python3 perfbench/traced.py STATS_JSON CLI_ARGS...``.

Runs the shipped CLI (``repro.cli.main``) with timers wrapped around
public functions of each layer, and writes what they recorded to
``STATS_JSON`` when the CLI returns (after its SIGTERM drain). The
program's own code is untouched: the wrappers replace module attributes
in this process only, so the untraced end-to-end runs never see them.

Series are per call unless named ``req.*``: those are accumulated over
one ``Wilson.summarize`` call (one timeline request) in the calling
thread, which is where the pipeline runs its stages.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class Recorder:
    """Thread-safe named series of observations."""

    def __init__(self) -> None:
        self.series: Dict[str, List[float]] = {}
        self._lock = threading.Lock()
        self.local = threading.local()

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.series.setdefault(name, []).append(float(value))

    def bump(self, name: str, value: float = 1.0) -> None:
        """Add to the current request's accumulator (if inside one)."""
        request = getattr(self.local, "request", None)
        if request is not None:
            request[name] = request.get(name, 0.0) + value


def _replace_everywhere(original: Callable, wrapper: Callable) -> None:
    """Point every loaded module attribute bound to *original* at *wrapper*.

    Modules import functions by name (``from repro.serve.frames import
    decode_shard_search``), so patching only the defining module would
    miss those references.
    """
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or not getattr(module, "__name__", "").startswith(
            "repro"
        ):
            continue
        for name, value in list(namespace.items()):
            if value is original:
                setattr(module, name, wrapper)


def _timed(recorder: Recorder, name: Optional[str], original: Callable,
           on_result: Optional[Callable] = None) -> Callable:
    """*original* wrapped to time each call in ms.

    The time is recorded under *name* (when given) and passed, with the
    result and arguments, to *on_result* (when given).
    """
    def record(result, started, args, kwargs):
        elapsed = (time.perf_counter() - started) * 1000.0
        if name is not None:
            recorder.add(name, elapsed)
        if on_result is not None:
            on_result(result, elapsed, args, kwargs)

    if inspect.iscoroutinefunction(original):
        @functools.wraps(original)
        async def async_wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = await original(*args, **kwargs)
            record(result, started, args, kwargs)
            return result
        return async_wrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        result = original(*args, **kwargs)
        record(result, started, args, kwargs)
        return result
    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap the public functions each per-layer metric is taken from."""
    import repro.cli  # noqa: F401 -- loads the modules patched below
    import repro.serve  # noqa: F401
    from repro import kernels
    from repro.core import date_selection, daily, pipeline, postprocess
    from repro.search import engine, query, realtime
    from repro.serve import app, batching, frames, pool, topology

    def patch_function(module, attr, name, on_result=None):
        original = getattr(module, attr)
        _replace_everywhere(
            original, _timed(recorder, name, original, on_result)
        )

    def patch_method(cls, attr, name, on_result=None):
        original = getattr(cls, attr)
        setattr(cls, attr, _timed(recorder, name, original, on_result))

    # serve.app: response encoding (timeline envelopes only).
    original_json = app.canonical_json

    def canonical_json(payload: Any) -> bytes:
        if isinstance(payload, dict) and "result" in payload:
            started = time.perf_counter()
            body = original_json(payload)
            recorder.add(
                "app.encode_ms", (time.perf_counter() - started) * 1000.0
            )
            return body
        return original_json(payload)

    _replace_everywhere(original_json, canonical_json)

    # serve.batching + runtime: time from submit to the sweep start.
    submitted: Dict[int, tuple] = {}
    original_submit = batching.MicroBatcher.submit

    async def submit(self, item):
        submitted[id(item)] = (item, time.perf_counter())
        return await original_submit(self, item)

    batching.MicroBatcher.submit = submit
    original_sweep = realtime.RealTimeTimelineSystem.generate_timelines

    def generate_timelines(self, queries, *args, **kwargs):
        started = time.perf_counter()
        for query_ in queries:
            entry = submitted.pop(id(query_), None)
            if entry is not None:
                recorder.add(
                    "batching.wait_ms", (started - entry[1]) * 1000.0
                )
        recorder.add("batching.batch_size", len(queries))
        try:
            return original_sweep(self, queries, *args, **kwargs)
        finally:
            recorder.add(
                "runtime.sweep_ms", (time.perf_counter() - started) * 1000.0
            )

    realtime.RealTimeTimelineSystem.generate_timelines = generate_timelines

    # search: single-index retrieval and shard-side gathering.
    patch_method(engine.SearchEngine, "fetch_dated_sentences", "search.fetch_ms")
    # A worker's shard call runs gather_candidates then
    # candidates_payload in one executor thread: record their sum.
    original_gather = query.gather_candidates
    original_payload = query.candidates_payload

    def gather_candidates(*args, **kwargs):
        started = time.perf_counter()
        result = original_gather(*args, **kwargs)
        recorder.local.gather_ms = (time.perf_counter() - started) * 1000.0
        return result

    def candidates_payload(*args, **kwargs):
        started = time.perf_counter()
        result = original_payload(*args, **kwargs)
        recorder.add(
            "search.gather_ms",
            getattr(recorder.local, "gather_ms", 0.0)
            + (time.perf_counter() - started) * 1000.0,
        )
        return result

    _replace_everywhere(original_gather, gather_candidates)
    _replace_everywhere(original_payload, candidates_payload)
    patch_function(frames, "encode_shard_search", "frames.encode_ms")
    patch_function(frames, "decode_shard_search", "frames.decode_ms")
    patch_function(topology, "export_slices", "topology.export_ms")

    # router side of every shard call: the keep-alive pool's request().
    def on_pool_request(result, elapsed, args, kwargs):
        method = args[2] if len(args) > 2 else kwargs.get("method")
        path = args[3] if len(args) > 3 else kwargs.get("path_and_query")
        if path.startswith("/v1/shard/search"):
            recorder.add("router.shard_call_ms", elapsed)
            recorder.add("frames.bytes_per_call", len(result[2]))
        elif method == "POST" and path.startswith("/v1/ingest"):
            recorder.add("ingest.forward_ms", elapsed)

    original_request = pool.request
    _replace_everywhere(
        original_request,
        _timed(recorder, None, original_request, on_result=on_pool_request),
    )

    # worker side of a shard call, for the router's wire time.
    def on_handle(result, elapsed, args, kwargs):
        if args[1].path == "/v1/shard/search":
            recorder.add("worker.shard_handle_ms", elapsed)

    patch_method(app.TimelineServer, "handle_request", None, on_handle)

    # core: the pipeline stages, per request.
    original_summarize = pipeline.Wilson.summarize

    def summarize(self, *args, **kwargs):
        recorder.local.request = {}
        started = time.perf_counter()
        try:
            return original_summarize(self, *args, **kwargs)
        finally:
            recorder.add(
                "pipeline.summarize_ms",
                (time.perf_counter() - started) * 1000.0,
            )
            for name, value in recorder.local.request.items():
                recorder.add(f"req.{name}", value)
            recorder.local.request = None

    pipeline.Wilson.summarize = summarize
    patch_method(date_selection.DateSelector, "select", "date_selection.ms")
    original_pagerank_matrix = date_selection.pagerank_matrix

    def selection_pagerank(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original_pagerank_matrix(*args, **kwargs)
        finally:
            recorder.bump(
                "date_selection.pagerank_ms",
                (time.perf_counter() - started) * 1000.0,
            )

    date_selection.pagerank_matrix = selection_pagerank
    original_to_graph = date_selection.DateReferenceGraph.to_graph

    def to_graph(self, *args, **kwargs):
        graph = original_to_graph(self, *args, **kwargs)
        recorder.bump("date_selection.graph_nodes", graph.number_of_nodes())
        return graph

    date_selection.DateReferenceGraph.to_graph = to_graph
    patch_method(daily.DailySummarizer, "rank_days", "daily.ms")
    original_rank_day = daily.DailySummarizer.rank_day

    def rank_day(self, date, sentences, *args, **kwargs):
        recorder.bump(
            "daily.sentences_ranked",
            min(len(sentences), self.max_sentences_per_day),
        )
        return original_rank_day(self, date, sentences, *args, **kwargs)

    daily.DailySummarizer.rank_day = rank_day
    original_get = daily.DayMatrixCache.get

    def cache_get(self, key):
        entry = original_get(self, key)
        recorder.add("day_matrix.hit", 0.0 if entry is None else 1.0)
        return entry

    daily.DayMatrixCache.get = cache_get
    patch_function(postprocess, "assemble_timeline", "postprocess.ms")
    original_iterate = kernels.pagerank_iterate

    def pagerank_iterate(*args, **kwargs):
        recorder.bump("kernels.pagerank_calls")
        return original_iterate(*args, **kwargs)

    _replace_everywhere(original_iterate, pagerank_iterate)


def main(argv: List[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(recorder.series, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
