"""Command-line interface: ``wilson-tls`` / ``python -m repro``.

Subcommands:

* ``demo`` -- generate a timeline for one synthetic instance and print it;
* ``stats`` -- print the Table-4 statistics of the synthetic datasets;
* ``timeline`` -- run WILSON on a corpus JSONL file (see
  :mod:`repro.tlsdata.loaders` for the format);
* ``serve-query`` -- index a corpus file and answer one keyword +
  time-window query with the real-time system;
* ``serve`` -- boot the asyncio HTTP timeline service on a corpus (or a
  synthetic fallback): ``POST /v1/timeline``, ``GET /v1/search``,
  ``GET /healthz``, ``GET /metrics``; admission control, micro-batching
  and a versioned result cache per ``docs/serving.md``; with
  ``--snapshot PATH`` the index boots by mapping a binary snapshot
  zero-copy (a corrupt snapshot logs a warning and falls back to
  re-indexing);
  with ``--shards N`` the corpus is partitioned into N date-range
  slices, ``--replicas R`` worker processes boot per slice, and a
  scatter-gather router with health-based replica failover serves the
  same routes in front of them (see :mod:`repro.serve.router`);
* ``route`` -- boot only the scatter-gather router over an existing
  topology directory and already-running workers (``--endpoint`` per
  worker, shard-major replica order);
* ``snapshot`` -- build a binary index snapshot (see
  :mod:`repro.search.snapshot`) from a corpus file or the synthetic demo
  corpus; ``--shards N`` writes a topology directory of N slice
  snapshots plus manifest instead of one file;
* ``index-info`` -- print a snapshot's vital signs (documents,
  vocabulary, date span, ``index_version``, format version, shard-slice
  metadata when present) from its header alone;
* ``evaluate`` -- score a method on a dataset (a directory written by
  :func:`repro.tlsdata.loaders.save_dataset`, or the synthetic
  ``timeline17`` / ``crisis`` presets);
* ``diagnose`` -- per-date breakdown of WILSON's coverage of one
  instance's reference timeline.

``demo``, ``timeline`` and ``serve-query`` accept the shared
observability flags ``--trace`` (per-stage span tree on stderr) and
``--trace-json [PATH]`` (the ``wilson.trace/v1`` document; see
``docs/observability.md``), plus the shared performance flag
``--daily-workers N`` (parallel per-day summarisation).
``evaluate`` additionally accepts the sharded-runtime flags
``--shard-workers N`` / ``--shard-timeout SECONDS`` /
``--shard-retries N`` fanning topics across a fault-isolated process
pool (see ``docs/runtime.md``).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import sys
from typing import List, Optional

from repro.core.pipeline import Wilson, WilsonConfig
from repro.experiments.tables import format_table
from repro.obs.trace import Tracer
from repro.search.realtime import RealTimeTimelineSystem
from repro.tlsdata.loaders import load_corpus
from repro.tlsdata.stats import dataset_statistics
from repro.tlsdata.synthetic import make_crisis_like, make_timeline17_like
from repro.tlsdata.types import Timeline


def _print_timeline(timeline: Timeline) -> None:
    for date, sentences in timeline:
        print(date.isoformat())
        for sentence in sentences:
            print(f"  - {sentence}")


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace`` / ``--trace-json`` observability flags."""
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the per-stage span tree to stderr after the run",
    )
    parser.add_argument(
        "--trace-json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="write the wilson.trace/v1 JSON document to PATH "
             "('-' or no value: stdout); see docs/observability.md",
    )


def _add_perf_flags(parser: argparse.ArgumentParser) -> None:
    """The shared performance flag (per-day worker threads)."""
    parser.add_argument(
        "--daily-workers",
        type=int,
        default=1,
        metavar="N",
        help="worker threads for the per-day summarisation sub-tasks "
             "(default 1 = sequential)",
    )


def _add_shard_flags(parser: argparse.ArgumentParser) -> None:
    """The sharded-runtime flags (see docs/runtime.md)."""
    parser.add_argument(
        "--shard-workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the per-topic shards (default 1 = "
             "sequential; >1 fans topics across a process pool)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard deadline; a hung worker is killed, the shard "
             "retried, then reported degraded (default: no deadline)",
    )
    parser.add_argument(
        "--shard-retries",
        type=int,
        default=2,
        metavar="N",
        help="re-attempts before a crashing/hanging shard is recorded "
             "as degraded instead of aborting the sweep (default 2)",
    )


def _add_router_flags(parser: argparse.ArgumentParser) -> None:
    """The scatter-gather flags shared by ``serve --shards`` and ``route``."""
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard fan-out deadline; a shard past it is dropped "
             "from the merge and the response degrades (default 5)",
    )
    parser.add_argument(
        "--shard-retries",
        type=int,
        default=1,
        metavar="N",
        help="extra attempts beyond one per replica before a failing "
             "shard is dropped from the merge (default %(default)s)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        metavar="R",
        help="worker replicas per shard slice; a replica error fails "
             "over to a sibling before the response degrades "
             "(default %(default)s)",
    )
    parser.add_argument(
        "--no-hedge",
        action="store_true",
        help="disable hedged replica reads (by default a slow replica "
             "is raced against a healthy sibling after an adaptive "
             "p95-based delay)",
    )


def _shard_policy(args: argparse.Namespace):
    """A ShardPolicy from the ``--shard-*`` flags, or None for sequential.

    Sequential (the default, with no deadline requested) bypasses the
    runtime entirely so single-topic runs stay exactly the seed path.
    """
    workers = getattr(args, "shard_workers", 1)
    timeout = getattr(args, "shard_timeout", None)
    if workers <= 1 and timeout is None:
        return None
    from repro.runtime import ShardPolicy

    return ShardPolicy(
        workers=max(1, workers),
        timeout_seconds=timeout,
        retries=getattr(args, "shard_retries", 2),
        backend="process",
    )


def _make_tracer(args: argparse.Namespace) -> Optional[Tracer]:
    """A tracer when any trace output was requested, else None (no-op)."""
    if getattr(args, "trace", False) or getattr(args, "trace_json", None):
        return Tracer()
    return None


def _emit_trace(args: argparse.Namespace, tracer: Optional[Tracer]) -> None:
    if tracer is None:
        return
    if args.trace:
        print(tracer.render(), file=sys.stderr)
    if args.trace_json is not None:
        payload = tracer.to_json()
        if args.trace_json == "-":
            print(payload)
        else:
            with open(args.trace_json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")


def _cmd_demo(args: argparse.Namespace) -> int:
    dataset = make_timeline17_like(scale=args.scale, seed=args.seed)
    instance = dataset.instances[args.instance]
    wilson = Wilson(
        WilsonConfig(
            num_dates=args.dates or instance.target_num_dates,
            sentences_per_date=args.sentences,
            daily_workers=args.daily_workers,
        )
    )
    tracer = _make_tracer(args)
    timeline = wilson.summarize_corpus(instance.corpus, tracer=tracer)
    print(f"# {instance.name}")
    _print_timeline(timeline)
    _emit_trace(args, tracer)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    rows = []
    for dataset in (
        make_timeline17_like(scale=args.scale),
        make_crisis_like(scale=args.scale),
    ):
        rows.append(dataset_statistics(dataset).as_row())
    print(
        format_table(
            [
                "Dataset", "# of topics", "# of timelines",
                "# of doc", "# of sents", "duration days",
            ],
            rows,
            title="Dataset overview (synthetic, Table 4 layout)",
        )
    )
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    wilson = Wilson(
        WilsonConfig(
            num_dates=args.dates,
            sentences_per_date=args.sentences,
            daily_workers=args.daily_workers,
        )
    )
    tracer = _make_tracer(args)
    timeline = wilson.summarize_corpus(corpus, tracer=tracer)
    _print_timeline(timeline)
    _emit_trace(args, tracer)
    return 0


def _cmd_serve_query(args: argparse.Namespace) -> int:
    import json

    corpus = load_corpus(args.corpus)
    system = RealTimeTimelineSystem(
        wilson=Wilson(WilsonConfig(daily_workers=args.daily_workers))
    )
    system.ingest(corpus.articles)
    tracer = _make_tracer(args)
    response = system.generate_timeline(
        keywords=args.keywords,
        start=datetime.date.fromisoformat(args.start),
        end=datetime.date.fromisoformat(args.end),
        num_dates=args.dates or 10,
        num_sentences=args.sentences,
        tracer=tracer,
    )
    if args.json:
        # The same wire representation the HTTP service serves
        # (docs/serving.md); scripts can consume either identically.
        print(json.dumps(response.to_dict(), sort_keys=True, indent=2))
    else:
        print(
            f"# {response.num_candidates} candidate sentences, "
            f"retrieval {response.retrieval_seconds:.3f}s, "
            f"generation {response.generation_seconds:.3f}s"
        )
        _print_timeline(response.timeline)
    _emit_trace(args, tracer)
    return 0


def _build_serve_system(args: argparse.Namespace, metrics) -> tuple:
    """The serve boot path: ``(system, indexed_sentences, source)``.

    Snapshot-first when ``--snapshot`` was given: the index is mapped
    zero-copy and the shared analyzer cache seeded from it, the
    ``snapshot.*`` boot gauges are set, and any
    :class:`~repro.search.snapshot.SnapshotError` falls back to the
    corpus/synthetic ingest path with a warning -- serve boot never
    crashes on a bad snapshot file.

    Factored out of :func:`_cmd_serve` so tests can exercise the
    fallback without binding a socket.
    """
    import time

    wilson = Wilson(WilsonConfig(daily_workers=args.daily_workers))
    snapshot_path = getattr(args, "snapshot", None)
    if snapshot_path is not None:
        from repro.search.engine import SearchEngine
        from repro.search.snapshot import (
            SNAPSHOT_FORMAT_VERSION_V2,
            SnapshotError,
        )

        try:
            started = time.perf_counter()
            engine = SearchEngine.load_snapshot(
                snapshot_path, cache=wilson.cache, mode="mmap"
            )
            load_seconds = time.perf_counter() - started
        except SnapshotError as exc:
            metrics.counter("snapshot.corrupt_fallbacks").inc()
            print(
                f"warning: snapshot {snapshot_path!r} unusable "
                f"({exc}); falling back to re-indexing",
                file=sys.stderr,
                flush=True,
            )
        else:
            metrics.gauge("snapshot.load_seconds").set(load_seconds)
            metrics.gauge("snapshot.documents").set(len(engine.index))
            metrics.gauge("snapshot.vocabulary_terms").set(
                engine.index.vocabulary_size()
            )
            metrics.gauge("snapshot.format_version").set(
                SNAPSHOT_FORMAT_VERSION_V2
            )
            metrics.gauge("snapshot.mmap_sections").set(
                engine.index.mapped_sections
            )
            metrics.gauge("snapshot.mmap_bytes").set(
                engine.index.mapped_bytes
            )
            system = RealTimeTimelineSystem(
                engine=engine, wilson=wilson, cache=wilson.cache
            )
            return (
                system,
                engine.num_indexed_sentences,
                f"snapshot {snapshot_path}",
            )
    if args.corpus is not None:
        corpus = load_corpus(args.corpus)
        source = f"corpus {args.corpus}"
    else:
        from repro.tlsdata.synthetic import make_timeline17_like

        corpus = (
            make_timeline17_like(scale=args.scale, seed=args.seed)
            .instances[0]
            .corpus
        )
        source = "synthetic corpus"
    system = RealTimeTimelineSystem(wilson=wilson)
    indexed = system.ingest(corpus.articles)
    return system, indexed, source


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.obs.metrics import Metrics
    from repro.serve import ServeConfig, run_server

    if getattr(args, "shards", 1) > 1:
        if args.ingest:
            # The workers this spawns have no ingest planes: dropping
            # the flag silently would fail every write with a 503.
            print(
                "error: serve --shards N cannot take --ingest; for live "
                "writes on a sharded index run 'snapshot --shards N "
                "--out DIR', then one 'serve --snapshot "
                "DIR/shard-NNN.snap --ingest' per slice, then 'route DIR "
                "--endpoint URL ...' over those workers",
                file=sys.stderr,
            )
            return 2
        return _cmd_serve_sharded(args)

    metrics = Metrics()
    boot_started = time.perf_counter()
    system, indexed, source = _build_serve_system(args, metrics)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_size=args.cache_size,
        cache_ttl_seconds=args.cache_ttl,
        max_inflight=args.max_inflight,
        batch_window_ms=args.batch_window_ms,
    )
    plane = None
    if getattr(args, "ingest", False):
        from repro.ingest import IngestConfig, IngestPlane

        plane = IngestPlane(
            system,
            IngestConfig(
                queue_articles=args.ingest_queue,
                batch_articles=args.ingest_batch,
                batch_age_ms=args.ingest_batch_age_ms,
                segments_dir=args.segments_dir,
                auto_compact_docs=args.auto_compact_docs,
            ),
            metrics=metrics,
        )
        plane.start()

    def ready(server) -> None:
        # Boot-to-ready wall time: index restore/ingest plus server
        # bind, i.e. everything between process start and first byte
        # served. The gauge lands on /metrics before the first request.
        warmup = time.perf_counter() - boot_started
        metrics.gauge("serve.warmup_seconds").set(warmup)
        # Printed (and flushed) before blocking so supervisors and the
        # smoke tests can parse the bound port even with --port 0.
        ingest_note = ""
        if plane is not None:
            ingest_note = (
                f", ingest enabled ({plane.live.segment_count} segments "
                "recovered)"
            )
        print(
            f"serving on http://{config.host}:{server.port} "
            f"({indexed} sentences indexed from {source}, "
            f"index_version {system.index_version}, "
            f"warmup {warmup:.3f}s{ingest_note})",
            flush=True,
        )

    drained = run_server(
        system, config=config, metrics=metrics, ready=ready, ingest=plane
    )
    print(
        "shutdown: drained cleanly" if drained
        else "shutdown: drain timed out; in-flight requests abandoned",
        flush=True,
    )
    return 0 if drained else 1


def _router_config(args: argparse.Namespace):
    """A RouterConfig from the shared router-facing serve/route flags."""
    from repro.serve import RouterConfig

    return RouterConfig(
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        cache_ttl_seconds=args.cache_ttl,
        max_inflight=args.max_inflight,
        shard_timeout_seconds=(
            args.shard_timeout if args.shard_timeout is not None else 5.0
        ),
        shard_retries=args.shard_retries,
        hedge_enabled=not args.no_hedge,
    )


def _print_shard_layout(topology) -> None:
    """The shard-layout banner (manifest metadata only; payloads unread)."""
    for shard in topology.shards:
        print(f"  {shard.describe()}", flush=True)


def _run_router_blocking(
    args: argparse.Namespace,
    topology,
    endpoints,
    metrics,
    wilson,
    boot_started: float,
) -> int:
    """Shared blocking tail of ``serve --shards`` and ``route``."""
    import time

    from repro.serve import run_router

    config = _router_config(args)

    def ready(router) -> None:
        warmup = time.perf_counter() - boot_started
        replicas = getattr(args, "replicas", 1)
        layout = f"{topology.num_shards} shards"
        if replicas > 1:
            layout += f" x {replicas} replicas"
        # Flushed before blocking so supervisors and the smoke tests can
        # parse the bound port even with --port 0.
        print(
            f"routing on http://{config.host}:{router.port} "
            f"({layout}, "
            f"{topology.total_documents} documents, "
            f"index_version {topology.source_index_version}, "
            f"warmup {warmup:.3f}s)",
            flush=True,
        )

    drained = run_router(
        topology,
        endpoints,
        config=config,
        metrics=metrics,
        wilson=wilson,
        ready=ready,
    )
    print(
        "shutdown: drained cleanly" if drained
        else "shutdown: drain timed out; in-flight requests abandoned",
        flush=True,
    )
    return 0 if drained else 1


def _cmd_serve_sharded(args: argparse.Namespace) -> int:
    """``serve --shards N``: slice, boot N workers, route in front."""
    import shutil
    import tempfile
    import time

    from repro.obs.metrics import Metrics
    from repro.serve import ShardWorkerPool, export_slices

    metrics = Metrics()
    boot_started = time.perf_counter()
    system, indexed, source = _build_serve_system(args, metrics)
    cleanup_dir = None
    if args.topology_dir is not None:
        topology_dir = args.topology_dir
    else:
        cleanup_dir = tempfile.mkdtemp(prefix="wilson-topology-")
        topology_dir = cleanup_dir
    topology = export_slices(
        system.engine.index, topology_dir, args.shards
    )
    print(
        f"sliced {indexed} sentences from {source} into "
        f"{topology.num_shards} shards under {topology_dir}:",
        flush=True,
    )
    _print_shard_layout(topology)
    pool = ShardWorkerPool(
        topology,
        batch_window_ms=args.batch_window_ms,
        replicas=args.replicas,
    )
    try:
        for worker in pool.start():
            # One parseable line per worker: the smoke tests and the CI
            # degradation/failover drills kill a worker by this pid.
            # The replica suffix only appears on replicated fleets so
            # single-replica tooling keeps matching the classic line.
            replica = (
                f" replica {worker.replica_id}" if pool.replicas > 1 else ""
            )
            print(
                f"shard {worker.shard_id}{replica}: "
                f"pid {worker.process.pid} on {worker.base_url}",
                flush=True,
            )
        return _run_router_blocking(
            args,
            topology,
            pool.replica_groups,
            metrics,
            system.wilson,
            boot_started,
        )
    finally:
        pool.stop()
        if cleanup_dir is not None:
            shutil.rmtree(cleanup_dir, ignore_errors=True)


def _cmd_route(args: argparse.Namespace) -> int:
    """``route``: scatter-gather router over already-running workers."""
    import time

    from repro.obs.metrics import Metrics
    from repro.serve import Topology

    boot_started = time.perf_counter()
    topology = Topology.load(args.topology)
    replicas = max(1, args.replicas)
    expected = topology.num_shards * replicas
    if len(args.endpoint) != expected:
        print(
            f"error: topology has {topology.num_shards} shards x "
            f"{replicas} replicas = {expected} workers but "
            f"{len(args.endpoint)} --endpoint values were given",
            file=sys.stderr,
        )
        return 2
    # Endpoints are given shard-major: all of shard 0's replicas first,
    # then shard 1's, matching the ShardWorkerPool boot/banner order.
    groups = [
        args.endpoint[shard_id * replicas:(shard_id + 1) * replicas]
        for shard_id in range(topology.num_shards)
    ]
    _print_shard_layout(topology)
    wilson = Wilson(WilsonConfig(daily_workers=args.daily_workers))
    return _run_router_blocking(
        args, topology, groups, Metrics(), wilson, boot_started
    )


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.search.engine import SearchEngine
    from repro.search.snapshot import snapshot_info

    engine = SearchEngine()
    if args.corpus is not None:
        corpus = load_corpus(args.corpus)
        source = f"corpus {args.corpus}"
    else:
        from repro.tlsdata.synthetic import make_timeline17_like

        corpus = (
            make_timeline17_like(scale=args.scale, seed=args.seed)
            .instances[0]
            .corpus
        )
        source = "synthetic corpus"
    engine.add_articles(corpus.articles)
    if args.shards > 1:
        from repro.serve.topology import export_slices

        topology = export_slices(engine.index, args.out, args.shards)
        print(
            f"wrote {args.out}: {topology.num_shards} shards, "
            f"{topology.total_documents} documents, index_version "
            f"{topology.source_index_version} (from {source})"
        )
        for shard in topology.shards:
            print(f"  {shard.describe()}")
        return 0
    engine.save_snapshot(args.out)
    info = snapshot_info(args.out)
    print(
        f"wrote {args.out}: {info['documents']} documents, "
        f"{info['vocabulary']} terms, index_version "
        f"{info['index_version']} (from {source})"
    )
    return 0


def _cmd_index_info(args: argparse.Namespace) -> int:
    from repro.search.snapshot import SnapshotError, snapshot_info

    try:
        info = snapshot_info(args.path)
    except SnapshotError as exc:
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return 2
    span = info["date_span"]
    print(
        f"format:        {info['meta']} "
        f"(binary, format_version {info['format_version']})"
    )
    print(f"documents:     {info['documents']}")
    print(f"vocabulary:    {info['vocabulary']} terms")
    print(f"articles:      {info['articles']}")
    print(
        "date span:     "
        + (f"{span[0]} .. {span[1]}" if span else "(empty index)")
    )
    print(f"index_version: {info['index_version']}")
    slice_meta = info.get("slice")
    if slice_meta:
        # Snapshot headers are O(1) to read, so a topology's layout
        # prints without touching any payload (see docs/serving.md).
        start = slice_meta.get("start") or "(empty)"
        end = slice_meta.get("end") or "(empty)"
        print(
            f"slice:         shard {slice_meta.get('shard_id')} of "
            f"{slice_meta.get('num_shards')}, {start} .. {end}"
        )
    if getattr(args, "segments", None) is not None:
        _print_live_segments(args.segments, int(info["index_version"]))
    return 0


def _print_live_segments(directory: str, base_version: int) -> int:
    """Describe the live overlay a segments directory represents.

    Prints one line per sealed ``wilson.segment/v1`` file (headers are
    O(1) reads -- no batch is replayed) plus the totals a restarted
    worker would boot into: pending documents, pending compaction
    bytes, and the live ``index_version`` the base snapshot + overlay
    would report. Returns the number of segments described.
    """
    import pathlib as _pathlib

    from repro.ingest import list_segments, segment_info
    from repro.search.snapshot import SnapshotError

    paths = list_segments(directory)
    print(f"live segments: {len(paths)} (in {directory})")
    pending_documents = 0
    pending_bytes = 0
    live_version = base_version
    for path in paths:
        try:
            header = segment_info(path)
        except SnapshotError as exc:
            print(f"  {path.name}: unreadable ({exc})")
            continue
        documents = int(header.get("documents", 0))
        touched = header.get("touched_dates") or []
        nbytes = _pathlib.Path(path).stat().st_size
        pending_documents += documents
        pending_bytes += nbytes
        live_version += documents
        window = (
            f"{touched[0]} .. {touched[-1]}" if touched else "(no dates)"
        )
        print(
            f"  {path.name}: seq {header.get('segment_seq')}, "
            f"{documents} documents, {header.get('articles')} articles, "
            f"{window}, {nbytes} bytes"
        )
    print(f"pending documents:          {pending_documents}")
    print(f"pending compaction bytes:   {pending_bytes}")
    print(f"live index_version:         {live_version}")
    return len(paths)


_EVALUATE_METHODS = (
    "wilson", "wilson-tran", "wilson-uniform", "wilson-nopost",
    "mead", "chieu", "ets", "random", "evolution",
    "asmds", "tls-constraints",
)


def _make_method(name: str):
    from repro.baselines import (
        ChieuBaseline,
        EtsBaseline,
        EvolutionBaseline,
        MeadBaseline,
        RandomBaseline,
        asmds,
        tls_constraints,
    )
    from repro.core.variants import (
        wilson_full,
        wilson_tran,
        wilson_uniform,
        wilson_without_post,
    )
    from repro.experiments.runner import WilsonMethod

    factories = {
        "wilson": lambda: WilsonMethod(wilson_full(), name="WILSON"),
        "wilson-tran": lambda: WilsonMethod(
            wilson_tran(), name="WILSON-Tran"
        ),
        "wilson-uniform": lambda: WilsonMethod(
            wilson_uniform(), name="WILSON-uniform"
        ),
        "wilson-nopost": lambda: WilsonMethod(
            wilson_without_post(), name="WILSON w/o Post"
        ),
        "mead": MeadBaseline,
        "chieu": ChieuBaseline,
        "ets": EtsBaseline,
        "random": RandomBaseline,
        "evolution": EvolutionBaseline,
        "asmds": asmds,
        "tls-constraints": tls_constraints,
    }
    return factories[name]()


def _build_method(instance, name: str):
    """Per-instance method factory for the experiments runner.

    Module-level (and used via ``functools.partial(_build_method,
    name=...)``) so the sharded runtime's process backend can pickle it;
    constructing fresh per instance also keeps stateful baselines (e.g.
    the seeded random baseline) identical between the sequential and
    parallel paths.
    """
    return _make_method(name)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.experiments.datasets import TaggedDataset
    from repro.experiments.runner import METRIC_KEYS, run_method
    from repro.tlsdata.loaders import load_dataset
    from repro.tlsdata.synthetic import (
        make_crisis_like,
        make_timeline17_like,
    )

    if args.dataset == "timeline17":
        dataset = make_timeline17_like(scale=args.scale)
    elif args.dataset == "crisis":
        dataset = make_crisis_like(scale=args.scale)
    else:
        dataset = load_dataset(args.dataset)
    if args.instances:
        dataset.instances = dataset.instances[: args.instances]
    tagged = TaggedDataset(dataset)

    policy = _shard_policy(args)
    tracer = _make_tracer(args)
    rows = []
    results = []
    for name in args.methods:
        result = run_method(
            functools.partial(_build_method, name=name),
            tagged,
            include_s_star=False,
            parallel=policy,
            tracer=tracer,
        )
        results.append(result)
        rows.append(
            [result.method_name]
            + [result.mean(key) for key in METRIC_KEYS if key != "concat_s*"]
            + [f"{result.mean_seconds:.2f}s"]
        )
        for degraded in result.degraded_instances:
            print(
                f"warning: shard {degraded!r} degraded "
                f"(scored 0.0; see --shard-retries/--shard-timeout)",
                file=sys.stderr,
            )
    headers = ["Method"] + [
        key for key in METRIC_KEYS if key != "concat_s*"
    ] + ["time"]
    print(
        format_table(
            headers, rows,
            title=f"Evaluation on {dataset.name} ({len(dataset)} timelines)",
        )
    )
    if args.compare and len(results) >= 2:
        from repro.experiments.comparison import comparison_report

        print()
        for line in comparison_report(results[0], results[1]):
            print(line)
    _emit_trace(args, tracer)
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.evaluation.diagnostics import diagnose_timeline
    from repro.tlsdata.synthetic import make_timeline17_like

    dataset = make_timeline17_like(scale=args.scale, seed=args.seed)
    instance = dataset.instances[args.instance]
    wilson = Wilson(
        WilsonConfig(
            num_dates=instance.target_num_dates,
            sentences_per_date=instance.target_sentences_per_date,
        )
    )
    timeline = wilson.summarize_corpus(instance.corpus)
    diagnostics = diagnose_timeline(
        timeline, instance.reference, tolerance_days=args.tolerance
    )
    print(f"# {instance.name}")
    for line in diagnostics.summary_lines():
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="wilson-tls",
        description="WILSON news timeline summarization (EDBT 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run WILSON on a synthetic topic")
    demo.add_argument("--scale", type=float, default=0.05)
    demo.add_argument("--seed", type=int, default=17)
    demo.add_argument("--instance", type=int, default=0)
    demo.add_argument("--dates", type=int, default=None)
    demo.add_argument("--sentences", type=int, default=2)
    _add_trace_flags(demo)
    _add_perf_flags(demo)
    demo.set_defaults(func=_cmd_demo)

    stats = sub.add_parser("stats", help="print dataset statistics")
    stats.add_argument("--scale", type=float, default=0.05)
    stats.set_defaults(func=_cmd_stats)

    timeline = sub.add_parser(
        "timeline", help="summarize a corpus JSONL file"
    )
    timeline.add_argument("corpus", help="path to corpus.jsonl")
    timeline.add_argument("--dates", type=int, default=None)
    timeline.add_argument("--sentences", type=int, default=2)
    _add_trace_flags(timeline)
    _add_perf_flags(timeline)
    timeline.set_defaults(func=_cmd_timeline)

    serve = sub.add_parser(
        "serve-query",
        help="index a corpus and answer one keyword+window query",
    )
    serve.add_argument("corpus", help="path to corpus.jsonl")
    serve.add_argument("--keywords", nargs="+", required=True)
    serve.add_argument("--start", required=True, help="YYYY-MM-DD")
    serve.add_argument("--end", required=True, help="YYYY-MM-DD")
    serve.add_argument("--dates", type=int, default=10)
    serve.add_argument("--sentences", type=int, default=1)
    serve.add_argument(
        "--json",
        action="store_true",
        help="print the timeline as the wilson.serve wire-format JSON "
             "(the same representation the HTTP service returns)",
    )
    _add_trace_flags(serve)
    _add_perf_flags(serve)
    serve.set_defaults(func=_cmd_serve_query)

    server = sub.add_parser(
        "serve",
        help="boot the HTTP timeline service (see docs/serving.md)",
    )
    server.add_argument(
        "corpus",
        nargs="?",
        default=None,
        help="path to corpus.jsonl (omitted: a synthetic demo corpus)",
    )
    server.add_argument(
        "--host", default="127.0.0.1", help="bind address (default %(default)s)"
    )
    server.add_argument(
        "--port", type=int, default=8080,
        help="bind port; 0 picks a free port (default %(default)s)",
    )
    server.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="worker threads per micro-batch sweep (default %(default)s)",
    )
    server.add_argument(
        "--cache-size", type=int, default=256, metavar="N",
        help="result-cache capacity in entries (default %(default)s)",
    )
    server.add_argument(
        "--cache-ttl", type=float, default=300.0, metavar="SECONDS",
        help="result-cache entry TTL (default %(default)s)",
    )
    server.add_argument(
        "--max-inflight", type=int, default=32, metavar="N",
        help="admission limit; excess requests are shed with 429 "
             "(default %(default)s)",
    )
    server.add_argument(
        "--batch-window-ms", type=float, default=10.0, metavar="MS",
        help="micro-batch collection window (default %(default)s)",
    )
    server.add_argument(
        "--scale", type=float, default=0.05,
        help="synthetic corpus scale when no corpus file is given",
    )
    server.add_argument("--seed", type=int, default=17)
    server.add_argument(
        "--snapshot",
        default=None,
        metavar="PATH",
        help="boot from a binary index snapshot (see 'wilson-tls "
             "snapshot'); a corrupt or incompatible file logs a warning "
             "and falls back to re-indexing the corpus",
    )
    server.add_argument(
        "--ingest",
        action="store_true",
        help="attach a streaming ingest plane: POST /v1/ingest admits "
             "article batches into delta segments queryable without a "
             "restart (see docs/ingest.md)",
    )
    server.add_argument(
        "--ingest-queue", type=int, default=1024, metavar="N",
        help="with --ingest: queued-article admission bound; beyond it "
             "POST /v1/ingest answers 429 (default %(default)s)",
    )
    server.add_argument(
        "--ingest-batch", type=int, default=64, metavar="N",
        help="with --ingest: max articles sealed per segment "
             "(default %(default)s)",
    )
    server.add_argument(
        "--ingest-batch-age-ms", type=float, default=50.0, metavar="MS",
        help="with --ingest: max staleness before a partial batch "
             "seals (default %(default)s)",
    )
    server.add_argument(
        "--segments-dir",
        default=None,
        metavar="DIR",
        help="with --ingest: persist sealed segments here and recover "
             "them on boot (default: memory-only segments)",
    )
    server.add_argument(
        "--auto-compact-docs", type=int, default=None, metavar="N",
        help="with --ingest: fold segments into a fresh base once N "
             "pending documents accumulate (default: never)",
    )
    server.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="partition the index into N date-range slices, boot one "
             "worker process per slice, and serve through a "
             "scatter-gather router (default 1 = single-index serving)",
    )
    server.add_argument(
        "--topology-dir",
        default=None,
        metavar="DIR",
        help="with --shards: write the slice snapshots + topology.json "
             "here (default: a temporary directory, removed on exit)",
    )
    _add_router_flags(server)
    _add_perf_flags(server)
    server.set_defaults(func=_cmd_serve)

    route = sub.add_parser(
        "route",
        help="boot only the scatter-gather router over an existing "
             "topology and already-running workers",
    )
    route.add_argument(
        "topology",
        help="topology directory written by 'snapshot --shards' / "
             "'serve --shards --topology-dir'",
    )
    route.add_argument(
        "--endpoint",
        action="append",
        required=True,
        metavar="URL",
        help="one worker base URL per shard replica, shard-major "
             "(shard 0's replicas first; repeat the flag; "
             "shards x --replicas values total)",
    )
    route.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default %(default)s)",
    )
    route.add_argument(
        "--port", type=int, default=8080,
        help="bind port; 0 picks a free port (default %(default)s)",
    )
    route.add_argument(
        "--cache-size", type=int, default=256, metavar="N",
        help="merged-result cache capacity (default %(default)s)",
    )
    route.add_argument(
        "--cache-ttl", type=float, default=300.0, metavar="SECONDS",
        help="merged-result cache TTL (default %(default)s)",
    )
    route.add_argument(
        "--max-inflight", type=int, default=32, metavar="N",
        help="admission limit; excess requests are shed with 429 "
             "(default %(default)s)",
    )
    _add_router_flags(route)
    _add_perf_flags(route)
    route.set_defaults(func=_cmd_route)

    snapshot = sub.add_parser(
        "snapshot",
        help="write a binary index snapshot for fast serve boot",
    )
    snapshot.add_argument(
        "corpus",
        nargs="?",
        default=None,
        help="path to corpus.jsonl to index (omitted: the synthetic "
             "demo corpus)",
    )
    snapshot.add_argument(
        "--out", required=True, metavar="PATH",
        help="snapshot file to write",
    )
    snapshot.add_argument(
        "--scale", type=float, default=0.05,
        help="synthetic corpus scale when no corpus file is given",
    )
    snapshot.add_argument("--seed", type=int, default=17)
    snapshot.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="write a topology directory of N date-range slice "
             "snapshots plus topology.json at --out instead of one "
             "snapshot file (default 1)",
    )
    snapshot.set_defaults(func=_cmd_snapshot)

    index_info = sub.add_parser(
        "index-info",
        help="print a snapshot's vital signs from its header",
    )
    index_info.add_argument("path", help="a binary snapshot file")
    index_info.add_argument(
        "--segments",
        default=None,
        metavar="DIR",
        help=(
            "also describe the live delta segments in DIR: per-segment "
            "document/article counts and touched-date windows, plus "
            "pending-compaction totals and the live index_version "
            "(headers only; O(1) per segment)"
        ),
    )
    index_info.set_defaults(func=_cmd_index_info)

    evaluate = sub.add_parser(
        "evaluate", help="score methods on a dataset"
    )
    evaluate.add_argument(
        "--dataset",
        default="timeline17",
        help="'timeline17', 'crisis', or a saved dataset directory",
    )
    evaluate.add_argument("--scale", type=float, default=0.05)
    evaluate.add_argument(
        "--methods",
        nargs="+",
        default=["wilson"],
        choices=_EVALUATE_METHODS,
    )
    evaluate.add_argument(
        "--instances", type=int, default=None,
        help="evaluate only the first N timelines",
    )
    evaluate.add_argument(
        "--compare", action="store_true",
        help="head-to-head report (CI + significance) of the first two "
             "methods",
    )
    _add_trace_flags(evaluate)
    _add_shard_flags(evaluate)
    evaluate.set_defaults(func=_cmd_evaluate)

    diagnose = sub.add_parser(
        "diagnose",
        help="per-date coverage breakdown on a synthetic instance",
    )
    diagnose.add_argument("--scale", type=float, default=0.05)
    diagnose.add_argument("--seed", type=int, default=17)
    diagnose.add_argument("--instance", type=int, default=0)
    diagnose.add_argument("--tolerance", type=int, default=3)
    diagnose.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
