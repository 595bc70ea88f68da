"""The repository benchmark: one workload of the shipped serving tier.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload single_cold --seed 1 --seconds 12 --trace 0

Generates the inputs from ``--seed``, boots the serving processes through
the CLI (``snapshot``, ``serve``, ``route``; every flag at its default
except ports, paths, ``--snapshot``, ``--shards`` and ``--ingest``),
drives the workload from this process with two threads, checks every
response, and prints one JSON line last on stdout::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured on the
plain CLI. With ``--trace 1`` the serving processes start under
``traced.py`` and the metrics are the per-layer ones. Progress, the exact
command lines launched and a human-readable summary go to stderr. See
README.md in this directory for the workloads, metrics and reference
figures.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import http.client

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")

from checks import (  # noqa: E402
    check_probe,
    check_reference,
    check_retrieval,
    check_timeline,
    check_write,
    timeline_of,
)
from fleet import (  # noqa: E402
    READY_TIMEOUT_SECONDS,
    BenchError,
    Fleet,
    Process,
    await_healthy,
    cpu_ms,
    http_call,
    parse_prometheus,
    pss_kb,
)

#: Boots per run; ``setup_s`` is their median.
SETUP_BOOTS = 3
#: Client threads (and connections) of the cold workloads.
CLIENTS = 2
#: Timed requests per ``--seconds``: the cold closed loops complete about
#: 27-30 a second on the 2-core reference machine; the live reader is
#: paced at 26 a second. Runs attempt whole rounds, enough that the
#: rounds kept (see ``DROP_EVERY``) hold at least ``MIN_TIMED``
#: requests, so p95 has at least ten samples beyond it.
COLD_RATE = 27.0
LIVE_READ_RATE = 26.0
MIN_TIMED = 200
#: Rounds of distinct requests served before timing starts.
WARM_ROUNDS = 2
#: The end-to-end figures leave out one timed round in ``DROP_EVERY``:
#: the rounds in which the host stole the largest share of the CPU time
#: the machine's cores wanted. Every round has the same make-up, so no
#: kind of request is dropped more than another, and a slower program is
#: slower in every round.
DROP_EVERY = 3
#: A sync write through the router is normally acknowledged within
#: 20-30 ms; a live read is aimed at the writes due this long before it.
WRITE_SETTLE_SECONDS = 0.1
#: Seeded sample of timed requests recomputed in this process.
REFERENCE_SAMPLE = 24
#: A stalled server must not hold a run past three minutes: each request
#: times out, and requests still unsent when the cap expires fail unsent.
REQUEST_TIMEOUT_SECONDS = 20.0
TIMED_PHASE_CAP_SECONDS = 60.0

def declared_metrics() -> Tuple[Dict[str, str], Dict[str, str]]:
    """``(end-to-end, per-layer)`` metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in declared["end_to_end"]},
        {m["name"]: m["unit"] for m in declared["per_layer"]},
    )


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile *q* (0-100) of *values*."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


class Sample:
    """One timed HTTP exchange."""

    __slots__ = ("request", "status", "body", "sent", "done", "due")

    def __init__(self, request, status, body, sent, done, due=None):
        self.request = request
        self.status = status
        self.body = body
        self.sent = sent
        self.done = done
        self.due = due if due is not None else sent

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


class CpuMeter:
    """CPU of the serving processes and the host's steal, read at marks.

    :meth:`mark` reads ``/proc/<pid>/stat`` of every serving process and
    the machine's ticks from ``/proc/stat``; the other methods give the
    figures between two marks, by default the first and the last.
    """

    def __init__(self, pids: Sequence[Tuple[str, int]]) -> None:
        self.pids = list(pids)
        #: ``(instant, role:pid -> CPU ms, steal ticks, wanted ticks)``.
        self.marks: List[Tuple[float, Dict[str, float], int, int]] = []

    def mark(self) -> int:
        """Take a reading now; returns its index."""
        spent = {f"{role}:{pid}": cpu_ms(pid) for role, pid in self.pids}
        with open("/proc/stat", encoding="ascii") as handle:
            ticks = [int(v) for v in handle.readline().split()[1:9]]
        # Every tick but idle and iowait: stolen ticks are ones in which a
        # core wanted to run and the host ran something else.
        wanted = sum(ticks) - ticks[3] - ticks[4]
        self.marks.append((time.perf_counter(), spent, ticks[7], wanted))
        return len(self.marks) - 1

    def seconds(self, first: int = 0, last: int = -1) -> float:
        return self.marks[last][0] - self.marks[first][0]

    def spent(self, first: int = 0, last: int = -1, prefix: str = "") -> float:
        """CPU (ms) of the processes whose role starts with *prefix*."""
        before, after = self.marks[first][1], self.marks[last][1]
        return sum(after[k] - before[k] for k in after if k.startswith(prefix))

    def steal_share(self, first: int = 0, last: int = -1) -> float:
        """Share of the CPU time the machine's cores wanted that was stolen."""
        _, _, steal_before, wanted_before = self.marks[first]
        _, _, steal_after, wanted_after = self.marks[last]
        wanted = wanted_after - wanted_before
        return (steal_after - steal_before) / wanted if wanted > 0 else 0.0


def granted_share(stolen: float) -> float:
    """Share of wall time the host let the machine's cores run.

    Latencies and throughput are given in granted time, wall time times
    this share: what they would have taken had the host stolen nothing.
    On the shared 2-core reference machine the host stole 0-50% of the
    CPU time the cores wanted in one run, and wall-clock latency followed
    1 / (1 - stolen) (routed_live p50: 28 ms at 0.3%, 45 ms at 35%). CPU
    time needs no scaling: stolen ticks are counted to no process.
    """
    return 1.0 - stolen


@dataclass
class Round:
    """One timed round: its requests' samples between two meter marks."""

    first: int
    last: int
    samples: List[Sample]


class Client:
    """One keep-alive connection to a serving process."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._connection: Optional[http.client.HTTPConnection] = None

    def call(self, method: str, path: str, body: bytes) -> Tuple[int, bytes]:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_SECONDS
            )
        try:
            self._connection.request(
                method, path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self._connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return 0, f"{type(exc).__name__}: {exc}".encode()

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


def closed_loop(
    port: int, requests: Sequence, clients: int, deadline: float
) -> List[Sample]:
    """Drive *requests* through *clients* callers that wait for replies.

    Returns the samples in request order. Requests left at *deadline*
    are reported as failed (status 0) without being sent.
    """
    samples: List[Optional[Sample]] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]

    def caller() -> None:
        client = Client(port)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(requests):
                    return
                request = requests[index]
                sent = time.perf_counter()
                if sent > deadline:
                    samples[index] = Sample(request, 0, b"phase cap", sent, sent)
                    continue
                status, body = client.call("POST", "/v1/timeline", request.body())
                samples[index] = Sample(request, status, body, sent, time.perf_counter())
        finally:
            client.close()

    threads = [threading.Thread(target=caller) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def timed_rounds(port: int, rounds: Sequence[Sequence], meter: CpuMeter) -> List[Round]:
    """Each round as its own closed loop, with a meter mark between rounds."""
    deadline = time.perf_counter() + TIMED_PHASE_CAP_SECONDS
    done: List[Round] = []
    first = meter.mark()
    for requests in rounds:
        samples = closed_loop(port, requests, CLIENTS, deadline)
        last = meter.mark()
        done.append(Round(first, last, samples))
        first = last
    return done


def reference_timeline(system, request) -> dict:
    """``result.timeline`` an in-process system serves for *request*."""
    return system.generate_timeline(
        request.keywords,
        start=request.start,
        end=request.end,
        num_dates=request.num_dates,
        num_sentences=request.num_sentences,
    ).timeline.to_dict()


class Run:
    """State of one benchmark run: inputs, processes, operation ledger."""

    def __init__(self, args: argparse.Namespace, tmp_dir: str) -> None:
        from inputs import RequestSource, build_corpus, corpus_sentences

        self.started = time.perf_counter()
        self.args = args
        self.tmp_dir = tmp_dir
        self.trace = bool(args.trace)
        self.corpus = build_corpus()
        self.sentences = corpus_sentences(self.corpus.articles)
        self.source = RequestSource(self.corpus, args.seed)
        self.rng = random.Random(args.seed * 31 + 7)
        launcher = (
            [sys.executable, os.path.join(HERE, "traced.py")]
            if self.trace else [sys.executable, "-m", "repro"]
        )
        self.fleet = Fleet(CHECKOUT, tmp_dir, launcher)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.problems: List[str] = []
        self.notes: List[str] = []
        self.setup_seconds: List[float] = []
        self._stats_files: Dict[int, str] = {}

    def phase(self, name: str) -> None:
        """Log the start of a run phase, with the time since the run began."""
        print(f"[{time.perf_counter() - self.started:6.1f}s] {name}", file=sys.stderr)

    # -- paths and inputs ------------------------------------------------------

    def path(self, name: str) -> str:
        return os.path.join(self.tmp_dir, name)

    def write_corpus(self, name: str, articles) -> str:
        from repro.tlsdata.loaders import save_corpus
        from repro.tlsdata.types import Corpus

        path = self.path(name)
        save_corpus(Corpus(topic="benchmark", articles=list(articles)), path)
        return path

    # -- ledger ----------------------------------------------------------------

    def operation(self, failure: Optional[str] = None) -> None:
        """Count one attempted operation, failed when *failure* is given."""
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.failures.append(failure)

    def problem(self, text: str) -> None:
        """A wrong output from an operation that did not fail."""
        self.problems.append(text)

    # -- processes -------------------------------------------------------------

    def serve(self, role: str, cli_args: List[str]) -> Process:
        """Launch one serving process (traced when this is a traced run)."""
        if not self.trace:
            return self.fleet.start_server(role, cli_args)
        stats = self.path(f"stats-{role}-{len(self._stats_files)}.json")
        process = self.fleet.start_server(role, [stats, *cli_args])
        self._stats_files[process.pid] = stats
        return process

    def stats_of(self, process: Process) -> Dict[str, List[float]]:
        """What the traced launcher of *process* recorded."""
        path = self._stats_files.get(process.pid)
        if path is None or not os.path.exists(path):
            raise BenchError(f"{process.role} wrote no trace statistics")
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def setup(self, boot: Callable[[float], List[Process]]) -> List[Process]:
        """Boot ``SETUP_BOOTS`` times; keep the last fleet running.

        Each boot is timed from the first spawn until every serving
        process answers ``/healthz`` with 200; earlier fleets are stopped
        (and their drains checked) before the next boot.
        """
        processes: List[Process] = []
        for number in range(SETUP_BOOTS):
            if processes:
                self.stop(processes)
            started = time.perf_counter()
            processes = boot(time.monotonic() + READY_TIMEOUT_SECONDS)
            self.setup_seconds.append(time.perf_counter() - started)
        return processes

    def stop(self, processes: Sequence[Process]) -> None:
        """SIGTERM each process in order; each drain is one operation."""
        for process in processes:
            problems = self.fleet.stop(process)
            self.operation("; ".join(problems) if problems else None)

    @staticmethod
    def serving_pids(processes: Sequence[Process]) -> List[Tuple[str, int]]:
        """``(role, pid)`` of every process serving, spawned ones too."""
        pids = []
        for process in processes:
            pids.append((process.role, process.pid))
            for shard, pid, _ in process.children:
                pids.append((f"worker{shard}", pid))
        return pids

    # -- requests --------------------------------------------------------------

    def warm_up(self, port: int, requests: Sequence) -> None:
        deadline = time.perf_counter() + TIMED_PHASE_CAP_SECONDS
        samples = closed_loop(port, requests, CLIENTS, deadline)
        self.check_samples(samples, "warm-up")

    def check_samples(self, samples: Sequence[Sample], phase: str) -> None:
        """Ledger + content checks of timeline samples."""
        for sample in samples:
            if sample.status != 200:
                self.operation(
                    f"{phase} timeline HTTP {sample.status}: "
                    f"{sample.body[:120]!r}"
                )
                continue
            self.operation()
            for problem in check_timeline(
                sample.status, sample.body, sample.request, self.sentences
            ):
                self.problem(f"{phase} {sample.request.keywords}: {problem}")

    def check_against(self, system, samples: Sequence[Sample], phase: str) -> None:
        """Byte-compare ``result.timeline`` with an in-process system."""
        for sample in samples:
            if sample.status != 200:
                continue
            for problem in check_reference(
                sample.body, reference_timeline(system, sample.request)
            ):
                self.problem(f"{phase} {sample.request.keywords}: {problem}")

    def check_retrieval_against(self, system, samples: Sequence[Sample], phase: str) -> None:
        """Exact retrieval against an in-process system; timelines noted.

        Used where the serving pipeline's token cache was not seeded from
        the same snapshot as the reference (``route`` starts with an
        empty one): which of two near-tied sentences wins a day then
        depends on token-id order, so a byte difference is reported as
        a note, not as a wrong output.
        """
        for sample in samples:
            if sample.status != 200:
                continue
            request = sample.request
            candidates = system.engine.fetch_dated_sentences(
                request.keywords,
                start=request.start,
                end=request.end,
                limit=system.retrieval_limit,
            )
            for problem in check_retrieval(
                sample.body, [(c.date.isoformat(), c.text) for c in candidates]
            ):
                self.problem(f"{phase} {request.keywords}: {problem}")
            for problem in check_reference(
                sample.body, reference_timeline(system, request)
            ):
                self.notes.append(f"{phase} {request.keywords}: {problem}")

    def reference_system(self, snapshot: str, extra_articles=()):
        """The single-index system a ``serve --snapshot`` would build."""
        from repro.core.pipeline import Wilson, WilsonConfig
        from repro.search.engine import SearchEngine
        from repro.search.realtime import RealTimeTimelineSystem

        wilson = Wilson(WilsonConfig())
        engine = SearchEngine.load_snapshot(
            snapshot, cache=wilson.cache, mode="copy"
        )
        if extra_articles:
            engine.add_articles(extra_articles)
        return RealTimeTimelineSystem(
            engine=engine, wilson=wilson, cache=wilson.cache
        )

    def sample(self, samples: Sequence[Sample]) -> List[Sample]:
        return self.rng.sample(list(samples), min(REFERENCE_SAMPLE, len(samples)))

    # -- measurement -------------------------------------------------------------

    def end_to_end(
        self,
        rounds: Sequence[Round],
        writes: Sequence[Sample],
        meter: CpuMeter,
        pss_kb_total: float,
    ) -> Dict[str, float]:
        """The end-to-end metrics of the timed *rounds*.

        Taken over the rounds left when one in ``DROP_EVERY`` is dropped,
        those with the most host steal. Times are granted time (see
        ``granted_share``): throughput is timeline requests completed per
        granted second of those rounds, latencies are percentiles over
        their requests (at least ``MIN_TIMED``, so at least ten lie
        beyond p95), and CPU is what the serving processes spent in them
        per completed request, counting the *writes* that completed
        inside them.
        """
        ranked = sorted(
            rounds, key=lambda r: (meter.steal_share(r.first, r.last), r.first)
        )
        kept = ranked[: len(rounds) - len(rounds) // DROP_EVERY]
        reads, wall, granted = [], [], []
        seconds = granted_seconds = 0.0
        for r in kept:
            share = granted_share(meter.steal_share(r.first, r.last))
            done = [s for s in r.samples if s.status == 200]
            reads += done
            wall += [s.latency_ms for s in done]
            granted += [s.latency_ms * share for s in done]
            seconds += meter.seconds(r.first, r.last)
            granted_seconds += meter.seconds(r.first, r.last) * share
        if len(reads) < MIN_TIMED:
            raise BenchError(
                f"only {len(reads)} timed samples; p95 needs {MIN_TIMED}"
            )
        spans = [(meter.marks[r.first][0], meter.marks[r.last][0]) for r in kept]
        written = sum(1 for s in writes for low, high in spans if low < s.done <= high)
        print(
            f"host steal: {meter.steal_share():.1%} of the CPU time wanted in "
            f"the timed phase, {1.0 - granted_seconds / seconds:.1%} in the "
            f"{len(kept)} of {len(rounds)} rounds kept; wall-clock figures of "
            f"those rounds: qps {len(reads) / seconds:.2f}, p50 "
            f"{percentile(wall, 50.0):.2f} ms, p95 {percentile(wall, 95.0):.2f} ms",
            file=sys.stderr,
        )
        return {
            "setup_s": median(self.setup_seconds),
            "qps": len(reads) / granted_seconds,
            "p50_ms": percentile(granted, 50.0),
            "p95_ms": percentile(granted, 95.0),
            "cpu_ms_per_req": sum(meter.spent(r.first, r.last) for r in kept)
            / (len(reads) + written),
            "pss_mb": pss_kb_total * 1024.0 / 1e6,
        }

    def scrape(self, ports: Dict[str, int]) -> Tuple[Dict[str, Dict[str, float]], float, int]:
        """One ``/metrics`` scrape per process: samples, total ms, bytes."""
        scraped: Dict[str, Dict[str, float]] = {}
        total_ms, total_bytes = 0.0, 0
        for role, port in ports.items():
            started = time.perf_counter()
            status, body = http_call(port, "GET", "/metrics")
            total_ms += (time.perf_counter() - started) * 1000.0
            total_bytes += len(body)
            if status != 200:
                raise BenchError(f"{role} /metrics answered {status}")
            scraped[role] = parse_prometheus(body.decode("utf-8"))
        return scraped, total_ms, total_bytes


# -- per-layer assembly ------------------------------------------------------------


def pipeline_layers(stats: Dict[str, List[float]]) -> Dict[str, float]:
    """Stage times and work counts of the process running the pipeline."""
    hits = stats.get("day_matrix.hit", [])
    return {
        "pipeline.summarize_ms": median(stats.get("pipeline.summarize_ms", [])),
        "date_selection.ms": median(stats.get("date_selection.ms", [])),
        "date_selection.pagerank_ms": median(
            stats.get("req.date_selection.pagerank_ms", [])
        ),
        "daily.ms": median(stats.get("daily.ms", [])),
        "postprocess.ms": median(stats.get("postprocess.ms", [])),
        "kernels.pagerank_calls": median(
            stats.get("req.kernels.pagerank_calls", [])
        ),
        "day_matrix.hit_ratio": mean(hits),
        "date_selection.graph_nodes": median(
            stats.get("req.date_selection.graph_nodes", [])
        ),
        "daily.sentences_ranked": median(
            stats.get("req.daily.sentences_ranked", [])
        ),
        "app.encode_ms": median(stats.get("app.encode_ms", [])),
    }


def quantile_ms(samples: Dict[str, float], name: str) -> float:
    """The p50 of a ``/metrics`` summary, in ms."""
    return samples.get(f'wilson_{name}{{quantile="0.5"}}', 0.0) * 1000.0


def handled_ms(scraped: Sequence[Dict[str, float]]) -> float:
    """Mean ``serve.request_seconds`` over worker scrapes, in ms."""
    total = sum(s.get("wilson_serve_request_seconds_sum", 0.0) for s in scraped)
    count = sum(s.get("wilson_serve_request_seconds_count", 0.0) for s in scraped)
    return total / count * 1000.0 if count else 0.0


def pool_reuse(samples: Dict[str, float]) -> float:
    reuses = samples.get("wilson_pool_reuses_total", 0.0)
    opens = samples.get("wilson_pool_opens_total", 0.0)
    return reuses / (reuses + opens) if reuses + opens else 0.0


def candidates_median(samples: Sequence[Sample]) -> float:
    counts = []
    for sample in samples:
        if sample.status == 200:
            counts.append(json.loads(sample.body)["result"]["num_candidates"])
    return median(counts)


def cpu_split(cpu: CpuMeter, requests: int) -> Dict[str, float]:
    """CPU per request of the router and of the workers, whole phase."""
    return {
        "router.cpu_ms_per_req": cpu.spent(prefix="router") / requests,
        "worker.cpu_ms_per_req": cpu.spent(prefix="worker") / requests,
    }


def replay_shard_calls(topology_dir: str, requests: Sequence) -> Dict[str, float]:
    """Worker-side gather and frame encoding, replayed in this process.

    ``serve --shards`` workers reset ``PYTHONPATH``, so no timer can be
    put inside them; their shard calls are repeated here against the
    same slice snapshots, loaded the way the workers load them.
    """
    from repro.core.pipeline import Wilson, WilsonConfig
    from repro.search.engine import SearchEngine
    from repro.search.query import SearchQuery, candidates_payload, gather_candidates
    from repro.serve.app import WIRE_SCHEMA
    from repro.serve.frames import encode_shard_search
    from repro.serve.topology import Topology

    topology = Topology.load(topology_dir)
    engines = []
    for shard in topology.shards:
        wilson = Wilson(WilsonConfig())
        engines.append(
            SearchEngine.load_snapshot(shard.path, cache=wilson.cache, mode="mmap")
        )
    gather, encode = [], []
    for number, request in enumerate(requests):
        query = SearchQuery(
            keywords=tuple(" ".join(request.keywords).split()),
            start=request.start,
            end=request.end,
            limit=5000,
        )
        for engine in engines:
            started = time.perf_counter()
            candidates = gather_candidates(
                engine.index, query, params=engine.bm25_params, cache=engine.cache
            )
            payload = candidates_payload(
                engine.index, candidates, engine.index_version, WIRE_SCHEMA
            )
            middle = time.perf_counter()
            encode_shard_search(payload)
            done = time.perf_counter()
            if number >= 4:  # the first calls decode lazily mapped strings
                gather.append((middle - started) * 1000.0)
                encode.append((done - middle) * 1000.0)
    return {"search.gather_ms": median(gather), "frames.encode_ms": median(encode)}


# -- workloads -----------------------------------------------------------------------


def rounds_for(run: Run, rate: float, round_size: int) -> int:
    """Whole timed rounds: ``--seconds`` at *rate*, and at least enough
    that the rounds kept hold ``MIN_TIMED`` requests."""
    rounds = round(run.args.seconds * rate / round_size)
    while (rounds - rounds // DROP_EVERY) * round_size < MIN_TIMED:
        rounds += 1
    return rounds


def cold_requests(run: Run) -> Tuple[list, list]:
    """Warm-up requests and the timed rounds of a cold workload."""
    warm = run.source.cold_rounds(WARM_ROUNDS)
    count = rounds_for(run, COLD_RATE, len(warm) // WARM_ROUNDS)
    return warm, [run.source.cold_round() for _ in range(count)]


def cold_snapshot(run: Run) -> str:
    """Write the corpus and build its snapshot with the CLI; its path."""
    corpus_path = run.write_corpus("corpus.jsonl", run.corpus.articles)
    snapshot = run.path("index.snap")
    run.phase("snapshot")
    run.fleet.run_clis([("snapshot", ["snapshot", corpus_path, "--out", snapshot])])
    run.phase("setup")
    return snapshot


def single_cold(run: Run) -> Dict[str, float]:
    snapshot = cold_snapshot(run)
    warm, timed = cold_requests(run)

    def boot(deadline: float) -> List[Process]:
        server = run.serve("server", ["serve", "--snapshot", snapshot, "--port", "0"])
        run.fleet.await_banner(server, deadline)
        await_healthy(server.port, deadline)
        return [server]

    (server,) = run.setup(boot)
    return cold_phase(run, server, [server], warm, timed, snapshot, None)


def routed_cold(run: Run) -> Dict[str, float]:
    snapshot = cold_snapshot(run)
    warm, timed = cold_requests(run)
    topologies: List[str] = []

    def boot(deadline: float) -> List[Process]:
        topologies.append(run.path(f"topology-{len(topologies)}"))
        router = run.serve(
            "router",
            ["serve", "--snapshot", snapshot, "--shards", "2",
             "--topology-dir", topologies[-1], "--port", "0"],
        )
        run.fleet.await_banner(router, deadline)
        for _, _, port in router.children:
            await_healthy(port, deadline)
        await_healthy(router.port, deadline)
        return [router]

    (router,) = run.setup(boot)
    return cold_phase(run, router, [router], warm, timed, snapshot, topologies[-1])


def cold_phase(run, front, processes, warm, timed, snapshot, topology_dir):
    """Warm up, time the closed loop, stop, check: the cold workloads."""
    run.phase("warm-up")
    run.warm_up(front.port, warm)
    run.phase("timed")
    pids = run.serving_pids(processes)
    cpu = CpuMeter(pids)
    rounds = timed_rounds(front.port, timed, cpu)
    samples = [s for r in rounds for s in r.samples]
    pss = sum(pss_kb(pid) for _, pid in pids)
    layers: Dict[str, float] = {}
    if run.trace:
        ports = {front.role: front.port}
        ports.update({f"worker{s}": p for s, _, p in front.children})
        scraped, scrape_ms, scrape_bytes = run.scrape(ports)
        layers.update({"metrics.scrape_ms": scrape_ms, "metrics.scrape_bytes": scrape_bytes})
    run.phase("stop")
    run.stop(processes)
    run.phase("check")
    run.check_samples(samples, "timed")
    ok = [s for s in samples if s.status == 200]
    run.check_against(run.reference_system(snapshot), run.sample(ok), "reference")
    metrics = run.end_to_end(rounds, [], cpu, pss)
    summary(run, metrics)
    if not run.trace:
        return metrics
    stats = run.stats_of(front)
    front_metrics = scraped[front.role]
    layers.update(pipeline_layers(stats))
    layers["search.candidates"] = candidates_median(ok)
    layers["snapshot.load_s"] = front_metrics.get("wilson_snapshot_load_seconds", 0.0)
    if topology_dir is None:
        layers.update({
            "batching.wait_ms": median(stats.get("batching.wait_ms", [])),
            "batching.batch_size": mean(stats.get("batching.batch_size", [])),
            "runtime.sweep_ms": median(stats.get("runtime.sweep_ms", [])),
            "search.fetch_ms": median(stats.get("search.fetch_ms", [])),
        })
        return layer_result(layers)
    workers = [scraped[k] for k in scraped if k.startswith("worker")]
    layers.update(router_layers(stats, front_metrics, handled_ms(workers)))
    layers.update(cpu_split(cpu, len(ok)))
    layers["topology.export_s"] = median(stats.get("topology.export_ms", [])) / 1000.0
    layers.update(replay_shard_calls(
        topology_dir, [s.request for s in run.sample(ok)]
    ))
    return layer_result(layers)


def router_layers(stats, router_metrics, worker_handle_ms) -> Dict[str, float]:
    return {
        "router.fanout_ms": quantile_ms(router_metrics, "router_fanout_seconds"),
        "router.merge_ms": quantile_ms(router_metrics, "router_merge_seconds"),
        "router.wire_ms": mean(stats.get("router.shard_call_ms", [])) - worker_handle_ms,
        "frames.decode_ms": median(stats.get("frames.decode_ms", [])),
        "frames.bytes_per_call": median(stats.get("frames.bytes_per_call", [])),
        "pool.reuse_ratio": pool_reuse(router_metrics),
    }


def routed_live(run: Run) -> Dict[str, float]:
    from inputs import write_schedule

    base, held_back = run.corpus.split_held_back()
    base_path = run.write_corpus("base.jsonl", base)
    topology = run.path("topology")
    base_snapshot = run.path("base.snap")
    # The unsliced base snapshot only feeds the post-drain reference;
    # both are written by the CLI, side by side.
    run.phase("snapshot")
    run.fleet.run_clis([
        ("snapshot-shards", ["snapshot", base_path, "--out", topology, "--shards", "2"]),
        ("snapshot-reference", ["snapshot", base_path, "--out", base_snapshot]),
    ])
    schedule = write_schedule(held_back, float(run.args.seconds), run.args.seed)
    newest_base = base[-1].publication_date
    size = run.source.live_round_size()
    warm = run.source.live_reads([newest_base] * (WARM_ROUNDS * size))
    reads = run.source.live_reads(frontiers(
        schedule, newest_base, rounds_for(run, LIVE_READ_RATE, size) * size,
        float(run.args.seconds),
    ))
    verify = run.source.live_reads([run.corpus.end] * size)
    probes = run.source.probes()
    slices = sorted(
        os.path.join(topology, name) for name in os.listdir(topology)
        if name.endswith(".snap")
    )
    boots = [0]

    def boot(deadline: float) -> List[Process]:
        workers = []
        for shard, slice_path in enumerate(slices):
            segments = run.path(f"segments-{boots[0]}-{shard}")
            workers.append(run.serve(
                f"worker{shard}",
                ["serve", "--snapshot", slice_path, "--port", "0",
                 "--ingest", "--segments-dir", segments],
            ))
        boots[0] += 1
        for worker in workers:
            run.fleet.await_banner(worker, deadline)
        endpoints = []
        for worker in workers:
            endpoints += ["--endpoint", f"http://127.0.0.1:{worker.port}"]
        router = run.serve("router", ["route", topology, *endpoints, "--port", "0"])
        run.fleet.await_banner(router, deadline)
        for worker in workers:
            await_healthy(worker.port, deadline)
        await_healthy(router.port, deadline)
        # The router drains before the workers it forwards to.
        return [router, *workers]

    run.phase("setup")
    processes = run.setup(boot)
    router = processes[0]
    run.phase("warm-up")
    run.warm_up(router.port, warm)
    run.phase("timed")
    pids = run.serving_pids(processes)
    cpu = CpuMeter(pids)
    rounds, write_samples = live_phase(
        router.port, reads, size, schedule, float(run.args.seconds), cpu
    )
    read_samples = [s for r in rounds for s in r.samples]
    pss = sum(pss_kb(pid) for _, pid in pids)
    layers: Dict[str, float] = {}
    if run.trace:
        ports = {p.role: p.port for p in processes}
        scraped, scrape_ms, scrape_bytes = run.scrape(ports)
        layers.update({"metrics.scrape_ms": scrape_ms, "metrics.scrape_bytes": scrape_bytes})
    acknowledged = []
    for sample, batch in zip(write_samples, schedule):
        if sample.status not in (200, 202):
            run.operation(f"write HTTP {sample.status}: {sample.body[:120]!r}")
            continue
        run.operation()
        problems = check_write(sample.status, sample.body, len(batch.articles))
        for problem in problems:
            run.problem(f"write: {problem}")
        if not problems:
            acknowledged.extend(batch.articles)
    run.check_samples(read_samples, "timed")
    # Post-drain: never-read windows, compared below with a cold single
    # index of the base plus every acknowledged write, in order.
    client = Client(router.port)
    verified = []
    for request in verify:
        sent = time.perf_counter()
        status, body = client.call("POST", "/v1/timeline", request.body())
        verified.append(Sample(request, status, body, sent, time.perf_counter()))
    run.check_samples(verified, "post-drain")
    run.phase("probes")
    probe_phase(run, client, probes)
    client.close()
    run.phase("stop")
    run.stop(processes)
    run.phase("check")
    from repro.tlsdata.types import Article

    written = [
        Article(article_id=a.article_id, publication_date=a.publication_date,
                title=a.title, text=a.text)
        for a in acknowledged
    ]
    run.check_retrieval_against(
        run.reference_system(base_snapshot, written), verified, "post-drain"
    )
    ok = [s for s in read_samples if s.status == 200]
    writes_ok = [s for s in write_samples if s.status in (200, 202)]
    metrics = run.end_to_end(rounds, writes_ok, cpu, pss)
    lateness = [(s.sent - s.due) * 1000.0 for s in write_samples]
    writer = {
        "writer.p50_ms": percentile([s.latency_ms for s in writes_ok], 50.0),
        "writer.late_p50_ms": percentile(lateness, 50.0),
        "writer.late_max_ms": max(lateness) if lateness else 0.0,
    }
    summary(run, {**metrics, **writer})
    if not run.trace:
        return metrics
    router_stats = run.stats_of(router)
    worker_stats = [run.stats_of(p) for p in processes[1:]]
    layers.update(writer)
    layers.update(pipeline_layers(router_stats))
    layers["search.candidates"] = candidates_median(ok)
    workers = [scraped[p.role] for p in processes[1:]]
    layers["snapshot.load_s"] = max(
        w.get("wilson_snapshot_load_seconds", 0.0) for w in workers
    )
    handle = [v for s in worker_stats for v in s.get("worker.shard_handle_ms", [])]
    layers.update(router_layers(router_stats, scraped["router"], mean(handle)))
    layers.update(cpu_split(cpu, len(ok) + len(writes_ok)))
    # Writes past the manifest's end go to the newest slice.
    layers["search.gather_ms"] = median(worker_stats[0].get("search.gather_ms", []))
    layers["search.gather_live_ms"] = median(worker_stats[-1].get("search.gather_ms", []))
    layers["frames.encode_ms"] = median(
        [v for s in worker_stats for v in s.get("frames.encode_ms", [])]
    )
    layers["ingest.forward_ms"] = median(router_stats.get("ingest.forward_ms", []))
    layers["ingest.seal_ms"] = quantile_ms(workers[-1], "ingest_seal_seconds")
    layers["ingest.live_segments"] = sum(
        w.get("wilson_ingest_live_segments", 0.0) for w in workers
    )
    return layer_result(layers)


def frontiers(schedule, newest_base, reads: int, duration: float) -> list:
    """The newest publication date written when each paced read is due.

    Read *i* is due ``i * duration / reads`` into the phase (see
    :func:`live_phase`); a write batch counts once it was due
    ``WRITE_SETTLE_SECONDS`` before the read.
    """
    dates = []
    for number in range(reads):
        due = number * duration / reads - WRITE_SETTLE_SECONDS
        written = [b.articles[-1].publication_date for b in schedule
                   if b.offset_seconds <= due]
        dates.append(max([newest_base, *written]))
    return dates


def live_phase(port, reads, round_size, schedule, duration, meter):
    """One reader beside one writer on a fixed schedule.

    The reader waits for each reply and never sends read *i* before
    ``i * duration / len(reads)`` into the phase. Without that pace a
    faster reader would run ahead of the writer and read windows aimed
    at writes not yet made; with it, every run's reads see the same
    writes. The reader marks *meter* before each round of *round_size*
    reads and after the last. Returns the rounds and the write samples.
    """
    interval = duration / len(reads)
    read_samples: List[Sample] = []
    write_samples: List[Sample] = []
    marks: List[int] = []
    start = time.perf_counter() + 0.05

    def reader() -> None:
        client = Client(port)
        for number, request in enumerate(reads):
            delay = start + number * interval - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if number % round_size == 0:
                marks.append(meter.mark())
            sent = time.perf_counter()
            if sent - start > TIMED_PHASE_CAP_SECONDS:
                read_samples.append(Sample(request, 0, b"phase cap", sent, sent))
                continue
            status, body = client.call("POST", "/v1/timeline", request.body())
            read_samples.append(Sample(request, status, body, sent, time.perf_counter()))
        marks.append(meter.mark())
        client.close()

    def writer() -> None:
        client = Client(port)
        for batch in schedule:
            due = start + batch.offset_seconds
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            if sent - start > TIMED_PHASE_CAP_SECONDS:
                write_samples.append(Sample(batch, 0, b"phase cap", sent, sent, due))
                continue
            status, body = client.call("POST", "/v1/ingest", batch.body())
            write_samples.append(Sample(batch, status, body, sent, time.perf_counter(), due))
        client.close()

    threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    rounds = [
        Round(marks[n], marks[n + 1], read_samples[n * round_size:(n + 1) * round_size])
        for n in range(len(marks) - 1)
    ]
    return rounds, write_samples


def probe_phase(run: Run, client: Client, probes) -> None:
    """Read an empty window, sync-write into it, read it again.

    Runs with no other traffic and never calls the router's /healthz,
    whose replica sweep refreshes the version vector the merge cache is
    keyed on.
    """
    for probe in probes:
        status, before = client.call("POST", "/v1/timeline", probe.request.body())
        problems = []
        if status != 200 or timeline_of(before) != {}:
            problems.append(f"window not empty before the write (HTTP {status})")
        write_status, write_body = client.call("POST", "/v1/ingest", probe.write_body())
        read_status, after = client.call("POST", "/v1/timeline", probe.request.body())
        problems += check_probe(write_status, write_body, read_status, after, probe)
        run.operation(f"probe {probe.article.article_id}: " + "; ".join(problems)
                      if problems else None)


def layer_result(layers: Dict[str, float]) -> Dict[str, float]:
    """Every declared per-layer metric; 0 for layers off this workload's path."""
    _, per_layer = declared_metrics()
    unknown = set(layers) - set(per_layer)
    if unknown:
        raise BenchError(f"undeclared per-layer metrics {sorted(unknown)}")
    return {name: layers.get(name, 0.0) for name in per_layer}


def summary(run: Run, metrics: Dict[str, float]) -> None:
    boots = ", ".join(f"{s:.3f}" for s in run.setup_seconds)
    print(f"setup boots (s): {boots}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name}: {value:.4f}", file=sys.stderr)


WORKLOADS = {
    "single_cold": single_cold,
    "routed_cold": routed_cold,
    "routed_live": routed_live,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    units = per_layer if args.trace else end_to_end
    sys.path.insert(0, SRC)
    tmp_root = os.path.join(CHECKOUT, ".perfbench-tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    run = None
    try:
        run = Run(args, tmp_dir)
        metrics = WORKLOADS[args.workload](run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if run is not None:
            run.fleet.close()
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    for failure in run.failures:
        print(f"failed: {failure}", file=sys.stderr)
    for problem in run.problems:
        print(f"wrong: {problem}", file=sys.stderr)
    for note in run.notes:
        print(f"note: {note}", file=sys.stderr)
    print(f"attempted {run.attempted}, failed {run.failed}, "
          f"wrong outputs {len(run.problems)}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
