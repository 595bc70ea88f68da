"""The scatter-gather router: one front door over N shard workers.

This is the horizontal scale-out half of the serving tier (ROADMAP
"Horizontal scale-out"): the corpus is partitioned into date-range
slices (:mod:`repro.serve.topology`), each slice runs the ordinary
single-index asyncio app in its own process, and this router fans every
``/v1/timeline`` and ``/v1/search`` request out to **all** shards,
merges the per-shard candidates into one canonical response, and
degrades to partial results when shards misbehave.

Correctness contract (the acceptance bar of the sharded tier):

* **Byte identity when healthy.** Shards answer the internal
  ``/v1/shard/search`` route with raw match statistics
  (:func:`repro.search.query.gather_candidates`): per-hit term
  frequencies and document lengths plus slice-level document counts,
  token totals and per-term document frequencies. Those statistics sum
  *exactly* across disjoint slices (integer sums), so
  :func:`merge_shard_candidates` reproduces the unsliced index's BM25
  scores bit-for-bit -- same IDF, same ``avgdl``, same
  accumulation order -- and the topology's local->global doc-id mapping
  restores the exact tie-break order. The merged response then goes
  through the same :func:`~repro.serve.app.canonical_json`, producing
  bytes identical to single-index serving (tests/test_serve_router.py).
* **Failover before degradation.** Each shard may be served by R
  worker replicas (``--replicas``); the router picks one per request
  via tiered power-of-two-choices on in-flight count
  (:mod:`repro.serve.health`) and, when a replica errors or times out,
  retries the *same shard* on a sibling replica before ever giving up
  on the slice. Passive outcomes plus active ``/healthz`` probes drive
  a healthy/suspect/dead state machine with exponential-backoff
  re-probing, so a killed worker costs one in-flight retry, a dead one
  is routed around entirely, and a recovered one is re-admitted after
  consecutive probe successes.
* **Degraded, never broken.** A shard whose *every* replica fails past
  the retry budget is dropped from the merge; the response is still
  HTTP 200, carries an ``X-Wilson-Degraded`` header naming the missing
  shard ids, and a ``degraded_shards`` envelope field. Only a *total*
  fan-out failure becomes a 503. Degraded merges are never cached --
  partial data must not outlive the outage.

Timeline requests scatter the retrieval stage only: candidate fetching
is what shards parallelise, while WILSON summarisation of the merged
candidate pool runs once, centrally, on the router -- the same
divide-and-conquer shape as the paper's batch decomposition, lifted
into the serving path.
"""

from __future__ import annotations

import asyncio
import datetime
import json
import math
import time
import urllib.parse
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Deque,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro import kernels
from repro.core.pipeline import Wilson, WilsonConfig
from repro.obs.metrics import Metrics
from repro.search.index import DocumentColumns
from repro.search.query import SearchQuery, ShardPayload
from repro.search.realtime import TimelineQuery
from repro.serve.admission import ShardAdmission
from repro.serve.app import (
    WIRE_SCHEMA,
    HttpServerBase,
    _Request,
    _Response,
    canonical_json,
    error_response,
    parse_ingest_payload,
    parse_search_query,
    search_hits,
)
from repro.serve.frames import RPC_CONTENT_TYPE, decode_shard_search
from repro.serve.health import (
    HEALTHY,
    HealthConfig,
    ReplicaHealth,
    ReplicaKey,
)
from repro.serve.pool import ConnectionPool
from repro.serve.pool import request as _pool_request
from repro.serve.topology import Topology
from repro.text.bm25 import BM25Parameters
from repro.tlsdata.types import DatedSentence

#: Every metric name the router may emit, by kind. Documented in
#: docs/observability.md and drift-tested by
#: tests/test_docs_observability.py; tests/test_serve_router.py asserts
#: the router emits no name outside this registry.
ROUTER_COUNTERS = (
    "router.requests",
    "router.timeline_requests",
    "router.search_requests",
    "router.cache_hits",
    "router.cache_misses",
    "router.coalesced_requests",
    "router.binary_frames",
    "router.shed",
    "router.rejected_draining",
    "router.bad_requests",
    "router.not_found",
    "router.errors",
    "router.degraded",
    "router.fanouts",
    "router.shard_requests",
    "router.shard_failures",
    "router.shard_retries",
    "router.truncated_merges",
    "router.ingest_requests",
    "router.ingest_rejected",
    "router.ingest_routed_articles",
)
ROUTER_GAUGES = (
    "router.shards",
    "router.shards_healthy",
    "router.inflight",
    "router.draining",
    "router.cache_entries",
    "router.index_version",
)
ROUTER_HISTOGRAMS = (
    "router.request_seconds",
    "router.fanout_seconds",
    "router.merge_seconds",
)
ROUTER_METRIC_NAMES = ROUTER_COUNTERS + ROUTER_GAUGES + ROUTER_HISTOGRAMS


@dataclass(frozen=True)
class RouterConfig:
    """Tuning knobs of the scatter-gather router."""

    host: str = "127.0.0.1"
    port: int = 8080
    cache_size: int = 256
    cache_ttl_seconds: float = 300.0
    max_inflight: int = 32
    max_inflight_per_shard: int = 32
    shard_timeout_seconds: float = 5.0
    shard_retries: int = 1
    retry_after_seconds: float = 1.0
    drain_timeout_seconds: float = 10.0
    #: Tick of the background probe loop re-checking suspect/dead
    #: replicas (each replica additionally backs off exponentially
    #: between its own probes; see :class:`repro.serve.health.HealthConfig`).
    probe_interval_seconds: float = 0.25
    #: Per-shard candidate budget for scattered retrieval. Matches the
    #: single-index system's ``retrieval_limit`` so merged timeline
    #: candidate pools are identical; a shard with more matches than
    #: this truncates to its local top (the only inexactness case,
    #: surfaced via ``router.truncated_merges``).
    fanout_limit: int = 5000
    default_num_dates: int = 10
    default_num_sentences: int = 1
    #: Keep-alive connection pooling to shard workers
    #: (:mod:`repro.serve.pool`).
    pool_max_idle_per_endpoint: int = 8
    pool_idle_timeout_seconds: float = 30.0
    #: Hedged replica reads: when a slice has a second healthy replica
    #: and the primary has not answered within the adaptive delay
    #: (rolling p95 of the shard's latency, clamped to
    #: ``[hedge_delay_floor_seconds, hedge_delay_max_seconds]``), a
    #: hedge is sent to a sibling and the first response wins. At most
    #: ``hedge_max_outstanding`` hedges may be in flight router-wide.
    hedge_enabled: bool = True
    hedge_delay_floor_seconds: float = 0.01
    hedge_delay_max_seconds: float = 0.1
    hedge_max_outstanding: int = 32

    def __post_init__(self) -> None:
        if self.shard_timeout_seconds <= 0:
            raise ValueError(
                "shard_timeout_seconds must be > 0, got "
                f"{self.shard_timeout_seconds}"
            )
        if self.shard_retries < 0:
            raise ValueError(
                f"shard_retries must be >= 0, got {self.shard_retries}"
            )
        if self.fanout_limit < 1:
            raise ValueError(
                f"fanout_limit must be >= 1, got {self.fanout_limit}"
            )
        if self.probe_interval_seconds <= 0:
            raise ValueError(
                "probe_interval_seconds must be > 0, got "
                f"{self.probe_interval_seconds}"
            )
        if self.hedge_delay_floor_seconds <= 0:
            raise ValueError(
                "hedge_delay_floor_seconds must be > 0, got "
                f"{self.hedge_delay_floor_seconds}"
            )
        if self.hedge_delay_max_seconds < self.hedge_delay_floor_seconds:
            raise ValueError(
                "hedge_delay_max_seconds must be >= "
                "hedge_delay_floor_seconds, got "
                f"{self.hedge_delay_max_seconds} < "
                f"{self.hedge_delay_floor_seconds}"
            )
        if self.hedge_max_outstanding < 1:
            raise ValueError(
                "hedge_max_outstanding must be >= 1, got "
                f"{self.hedge_max_outstanding}"
            )


@dataclass(frozen=True, eq=False)
class MergeResult:
    """The canonical global ranking merged from per-shard candidates.

    Columns, best first: ``doc_ids`` (the source index's global ids),
    their ``scores`` and their ``rows`` of ``fields``, which holds the
    document fields of every merged candidate, shard after shard in
    shard-id order. Readers build strings only for the rows they keep
    (:func:`candidate_pool`, :func:`~repro.serve.app.search_hits`).
    """

    doc_ids: np.ndarray
    scores: np.ndarray
    rows: np.ndarray
    fields: DocumentColumns
    index_version: int
    truncated: bool

    def __len__(self) -> int:
        return len(self.rows)


def _global_ids(
    topology: Topology, shard_id: int, local: np.ndarray
) -> np.ndarray:
    """The source-index ids of shard *shard_id*'s local ids *local*.

    A document ingested after the manifest was cut has no source-index
    id. It gets a deterministic global id above every manifest id,
    disjoint across shards, so tie-breaks stay stable (post-manifest
    docs lose ties to snapshot docs, mirroring their higher doc ids on
    a live single index).
    """
    mapping = topology.shards[shard_id].global_ids
    known = len(mapping)
    ids = local + (topology.total_documents + (shard_id << 40) - known)
    inside = local < known
    ids[inside] = mapping[local[inside]]
    return ids


def merge_shard_candidates(
    responses: Mapping[int, ShardPayload],
    topology: Topology,
    limit: int,
    params: BM25Parameters = BM25Parameters(),
) -> MergeResult:
    """Merge ``/v1/shard/search`` answers into the exact global ranking.

    Reconstructs whole-corpus BM25 statistics by summing each slice's
    contributions (document count, token total, per-term document
    frequencies -- all integers, so the sums are exact), then re-scores
    every candidate with the same arithmetic, in the same term order, as
    :func:`repro.search.query.execute` on the unsliced index. Local doc
    ids are mapped back to source-index ids through the topology
    manifest, making the final ``(score desc, doc_id asc)`` order --
    including ties -- identical to single-index serving.

    *responses* maps shard id to decoded answer; absent shards (the
    degraded case) simply contribute nothing. Raises ``ValueError`` if
    shards disagree on the analyzed query terms (impossible for workers
    booted from one topology; indicates a mixed deployment).
    """
    terms: Optional[Tuple[str, ...]] = None
    global_docs = 0
    global_tokens = 0
    df: List[int] = []
    truncated = False
    index_version = 0
    order = sorted(responses)
    for shard_id in order:
        payload = responses[shard_id]
        candidates = payload.candidates
        if terms is None:
            terms = candidates.terms
            df = [0] * len(terms)
        elif candidates.terms != terms:
            raise ValueError(
                f"shard {shard_id} analyzed the query as "
                f"{candidates.terms!r}, other shards as {terms!r}"
            )
        global_docs += candidates.documents
        global_tokens += candidates.total_tokens
        for position, frequency in enumerate(
            candidates.document_frequencies
        ):
            df[position] += frequency
        truncated = truncated or candidates.truncated
        index_version = max(index_version, payload.index_version)

    fields = DocumentColumns.concat(
        [responses[shard_id].fields for shard_id in order]
    )
    if terms is None or global_docs == 0:
        nothing = np.zeros(0, dtype=np.int64)
        return MergeResult(
            doc_ids=nothing,
            scores=np.zeros(0, dtype=np.float64),
            rows=nothing,
            fields=fields,
            index_version=index_version,
            truncated=truncated,
        )

    # Identical arithmetic to execute(): one float division for avgdl,
    # the same idf formula, contributions accumulated in term order by
    # the same kernel. A term adds to the hits whose tf is non-zero.
    idf = [
        math.log(1.0 + (global_docs - d + 0.5) / (d + 0.5)) if d else 0.0
        for d in df
    ]
    shards = [responses[shard_id].candidates for shard_id in order]
    keys = np.concatenate(
        [
            _global_ids(topology, shard_id, candidates.doc_ids)
            for shard_id, candidates in zip(order, shards)
        ]
    )
    lengths = np.concatenate([candidates.lengths for candidates in shards])
    tf = np.concatenate([candidates.tf for candidates in shards])
    postings = []
    for position, frequency in enumerate(df):
        column = tf[:, position]
        nonzero = np.flatnonzero(column) if frequency else column[:0]
        postings.append((nonzero, column[nonzero]))
    rows, scores = kernels.bm25_rank(
        postings,
        idf,
        lengths,
        (global_tokens / global_docs) or 1.0,
        params.k1,
        params.b,
        np.arange(len(keys)),
        limit,
        keys=keys,
    )
    return MergeResult(
        doc_ids=keys[rows],
        scores=scores,
        rows=rows,
        fields=fields,
        index_version=index_version,
        truncated=truncated,
    )


def candidate_pool(merged: MergeResult) -> List[DatedSentence]:
    """The merged candidates as WILSON's dated-sentence pool, best first.

    Only the kept rows' texts and article ids become strings.
    """
    return [
        DatedSentence(*record)
        for record in merged.fields.records(merged.rows)
    ]


@dataclass(frozen=True)
class _ShardEndpoint:
    shard_id: int
    host: str
    port: int
    replica_id: int = 0

    @property
    def key(self) -> ReplicaKey:
        return (self.shard_id, self.replica_id)


def _normalize_endpoint_groups(
    endpoints: Sequence[Any],
) -> List[List[str]]:
    """Endpoint groups from either router input shape.

    A flat ``["url", ...]`` (one worker per shard, the pre-replica
    shape) becomes singleton groups; a nested ``[["url", ...], ...]``
    passes through. Mixing shapes or empty groups is an error.
    """
    if not endpoints:
        return []
    if all(isinstance(entry, str) for entry in endpoints):
        return [[entry] for entry in endpoints]
    groups: List[List[str]] = []
    for shard_id, group in enumerate(endpoints):
        if isinstance(group, str) or not isinstance(group, Sequence):
            raise ValueError(
                "endpoints must be all-URLs or all-groups; shard "
                f"{shard_id} entry is {group!r}"
            )
        members = list(group)
        if not members or not all(
            isinstance(member, str) for member in members
        ):
            raise ValueError(
                f"shard {shard_id} needs a non-empty list of endpoint "
                f"URLs, got {group!r}"
            )
        groups.append(members)
    return groups


class TimelineRouter(HttpServerBase):
    """Async scatter-gather front over one shard topology.

    *endpoints* are the workers' base URLs in shard-id order: either a
    flat sequence with exactly one URL per topology slice, or -- for a
    replicated fleet -- a sequence of per-shard *groups*, each listing
    that slice's replica URLs (the shape of
    :attr:`~repro.serve.topology.ShardWorkerPool.replica_groups`).
    *wilson* is the summarisation pipeline used for the central reduce
    of timeline requests; it must be configured identically to the
    workers' (the default configuration on both sides) for the
    byte-identity guarantee to hold. *health_config* tunes the replica
    state machine; the defaults fit subsecond shard timeouts.
    """

    metric_prefix = "router"
    role = "router"

    def __init__(
        self,
        topology: Topology,
        endpoints: Sequence[Any],
        config: Optional[RouterConfig] = None,
        metrics: Optional[Metrics] = None,
        wilson: Optional[Wilson] = None,
        bm25_params: BM25Parameters = BM25Parameters(),
        health_config: Optional[HealthConfig] = None,
    ) -> None:
        groups = _normalize_endpoint_groups(endpoints)
        if len(groups) != topology.num_shards:
            raise ValueError(
                f"{topology.num_shards} shards in the topology but "
                f"{len(groups)} endpoint groups"
            )
        self.topology = topology
        super().__init__(config or RouterConfig(), metrics)
        self.wilson = wilson or Wilson(WilsonConfig())
        self.bm25_params = bm25_params
        #: Per-shard replica endpoint groups, shard-id order.
        self.replica_groups: List[List[_ShardEndpoint]] = []
        #: Every endpoint, flat, (shard, replica) order.
        self.endpoints: List[_ShardEndpoint] = []
        for shard_id, group in enumerate(groups):
            members: List[_ShardEndpoint] = []
            for replica_id, endpoint in enumerate(group):
                parsed = urllib.parse.urlsplit(endpoint)
                if parsed.hostname is None or parsed.port is None:
                    raise ValueError(
                        f"endpoint needs host:port: {endpoint!r}"
                    )
                members.append(
                    _ShardEndpoint(
                        shard_id=shard_id,
                        host=parsed.hostname,
                        port=parsed.port,
                        replica_id=replica_id,
                    )
                )
            self.replica_groups.append(members)
            self.endpoints.extend(members)
        self._endpoint_by_key: Dict[ReplicaKey, _ShardEndpoint] = {
            endpoint.key: endpoint for endpoint in self.endpoints
        }
        self.health = ReplicaHealth(
            [endpoint.key for endpoint in self.endpoints],
            config=health_config,
            metrics=self.metrics,
        )
        self._probe_task: Optional[asyncio.Task] = None
        self.shard_admission = ShardAdmission(
            num_shards=topology.num_shards,
            max_inflight_per_shard=self.config.max_inflight_per_shard,
            retry_after_seconds=self.config.retry_after_seconds,
        )
        # The version vector: the highest index version seen per shard,
        # seeded from the manifest (slice snapshots inherit the source
        # revision) and raised -- never lowered -- by every fan-out
        # response, probe and sync ingest forward (:meth:`_observe`).
        # Merged-result cache keys embed it.
        self._shard_versions: List[int] = [
            topology.source_index_version
        ] * topology.num_shards
        # -- data plane (docs/architecture.md "Data plane") ------------------
        self._pool = ConnectionPool(
            max_idle_per_endpoint=(
                self.config.pool_max_idle_per_endpoint
            ),
            idle_timeout_seconds=(
                self.config.pool_idle_timeout_seconds
            ),
            metrics=self.metrics,
        )
        #: Rolling per-shard latency samples (successful calls only)
        #: feeding the adaptive hedge delay.
        self._latency_windows: List[Deque[float]] = [
            deque(maxlen=64) for _ in range(topology.num_shards)
        ]
        self._outstanding_hedges = 0
        self.metrics.gauge("router.shards").set(topology.num_shards)

    # -- the timeline pipeline's hooks -----------------------------------------

    def _cache_version(self) -> Tuple[int, ...]:
        return tuple(self._shard_versions)

    async def _compute_timeline(
        self, query: TimelineQuery, version: Hashable
    ) -> Union[_Response, Tuple[dict, bool, Sequence[int]]]:
        """Scatter retrieval, merge, then one central WILSON reduce.

        The result is cacheable under the lookup's version vector only
        when the merge is complete and the versions of the responses it
        merged equal that vector and the vector after the reduce: a
        lagging replica's response, or a write acked while the reduce
        ran, must not be stored under a key that claims newer data.
        """
        retrieval_started = time.perf_counter()
        search_query = SearchQuery(
            keywords=query.keywords,
            start=query.start,
            end=query.end,
            limit=self.config.fanout_limit,
        )
        responses, degraded = await self._fanout(
            self._shard_search_path(
                search_query, self.config.fanout_limit
            )
        )
        if not responses:
            return error_response(
                503, "all shards unavailable; cannot merge"
            )
        dated = candidate_pool(
            self._merge(responses, self.config.fanout_limit)
        )
        retrieval_seconds = time.perf_counter() - retrieval_started

        # Central reduce: one WILSON run over the merged candidate
        # pool -- identical inputs to the single-index path, so an
        # identical timeline comes out.
        matrix_cache = getattr(self.wilson, "day_matrix_cache", None)
        if matrix_cache is not None:
            matrix_cache.sync_version(self._index_version())
        generation_started = time.perf_counter()
        loop = asyncio.get_running_loop()
        timeline = await loop.run_in_executor(
            None,
            lambda: self.wilson.summarize(
                dated,
                num_dates=query.num_dates,
                num_sentences=query.num_sentences,
                query=query.keywords,
            ),
        )
        generation_seconds = time.perf_counter() - generation_started
        result = {
            "timeline": timeline.to_dict(),
            "num_candidates": len(dated),
            "telemetry": {
                "retrieval_seconds": retrieval_seconds,
                "generation_seconds": generation_seconds,
                "total_seconds": (
                    retrieval_seconds + generation_seconds
                ),
            },
        }
        merged_versions = tuple(
            responses[shard_id].index_version
            for shard_id in sorted(responses)
        )
        cacheable = not degraded and (
            merged_versions == version == self._cache_version()
        )
        return result, cacheable, degraded

    def _index_version(self) -> int:
        return max(self._shard_versions)

    def _default_window(
        self,
    ) -> Optional[Tuple[datetime.date, datetime.date]]:
        return self.topology.window()

    # -- shard I/O -------------------------------------------------------------

    def _observe(self, shard_id: int, version: Optional[int]) -> None:
        """Raise *shard_id*'s vector entry to a response's index
        *version* (``None``: the response carried none).

        Max per shard: replicas of one slice seal independently, so a
        lagging replica's answer must never pull the vector back.
        """
        if version is not None:
            self._shard_versions[shard_id] = max(
                self._shard_versions[shard_id], int(version)
            )

    async def _exchange(
        self,
        endpoint: _ShardEndpoint,
        method: str,
        path_and_query: str,
        body: Optional[bytes] = None,
        headers: Sequence[Tuple[str, str]] = (),
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One pooled HTTP exchange with *endpoint* under the shard deadline.

        Every shard call, ingest forward and health probe goes through
        here, on a keep-alive connection from :mod:`repro.serve.pool`.
        """
        return await asyncio.wait_for(
            _pool_request(
                endpoint.host,
                endpoint.port,
                method,
                path_and_query,
                self._pool,
                body=body,
                headers=headers,
            ),
            timeout=self.config.shard_timeout_seconds,
        )

    async def _replica_attempt(
        self, key: ReplicaKey, path_and_query: str
    ) -> ShardPayload:
        """One shard search on one replica; the decoded payload.

        Asks for a ``wilson.rpc/v1`` candidate frame. Raises on any
        failure -- connection error, timeout, non-200, a body that is
        not a valid frame -- and the caller records the outcome with the
        health tracker.
        """
        endpoint = self._endpoint_by_key[key]
        self.metrics.counter("router.shard_requests").inc()
        loop = asyncio.get_running_loop()
        started = loop.time()
        self.health.inflight.acquire(key)
        try:
            status, _, body = await self._exchange(
                endpoint,
                "GET",
                path_and_query,
                headers=(("Accept", RPC_CONTENT_TYPE),),
            )
            if status != 200:
                raise ConnectionError(f"shard answered HTTP {status}")
            payload = decode_shard_search(body)
            self.metrics.counter("router.binary_frames").inc()
            self._latency_windows[key[0]].append(loop.time() - started)
            return payload
        finally:
            self.health.inflight.release(key)

    def _hedge_delay(self, shard_id: int) -> float:
        """The adaptive hedge trigger delay for *shard_id*.

        Rolling p95 of the shard's recent successful-call latencies,
        clamped to ``[hedge_delay_floor_seconds,
        hedge_delay_max_seconds]``. The clamp matters at both ends: the
        floor keeps a microsecond-fast shard from hedging every call,
        and the cap keeps one consistently slow replica (whose samples
        inflate the p95 toward its own latency) from pushing the
        trigger so far out that hedging can never beat it. With fewer
        than 8 samples the cap is used -- conservative until the window
        warms up.
        """
        window = self._latency_windows[shard_id]
        if len(window) >= 8:
            ordered = sorted(window)
            delay = ordered[
                min(len(ordered) - 1, int(len(ordered) * 0.95))
            ]
        else:
            delay = self.config.hedge_delay_max_seconds
        return min(
            max(delay, self.config.hedge_delay_floor_seconds),
            self.config.hedge_delay_max_seconds,
        )

    def _hedge_candidate(
        self,
        shard_id: int,
        primary_key: ReplicaKey,
        failed: Set[ReplicaKey],
    ) -> Optional[ReplicaKey]:
        """A healthy sibling to hedge to, or ``None`` (no hedge).

        Hedges only target *healthy* replicas: racing a suspect or dead
        sibling would spend the hedge budget on the least likely
        winner.
        """
        if not self.config.hedge_enabled:
            return None
        if len(self.replica_groups[shard_id]) < 2:
            return None
        key = self.health.choose(
            shard_id, frozenset(failed | {primary_key})
        )
        if key is None or self.health.state(key) != HEALTHY:
            return None
        return key

    def _try_hedge(self) -> bool:
        if self._outstanding_hedges >= self.config.hedge_max_outstanding:
            return False
        self._outstanding_hedges += 1
        return True

    async def _attempt_with_hedge(
        self,
        shard_id: int,
        primary_key: ReplicaKey,
        path_and_query: str,
        failed: Set[ReplicaKey],
    ) -> Tuple[Optional[ShardPayload], int]:
        """Race the primary replica against at most one hedge.

        Sends the primary immediately; if a healthy sibling exists and
        the primary has not answered within :meth:`_hedge_delay`, sends
        one hedge (subject to the router-wide outstanding cap). The
        first successful response wins, the loser is cancelled and its
        connection retired, and every *completed* failure feeds passive
        health (a cancelled loser is no evidence either way). Returns
        ``(payload or None, failed-attempt count)`` -- the count keeps
        the caller's retry budget exact when a hedge consumes an
        attempt.
        """
        loop = asyncio.get_running_loop()
        primary = loop.create_task(
            self._replica_attempt(primary_key, path_and_query)
        )
        inflight: Dict[asyncio.Task, ReplicaKey] = {primary: primary_key}
        hedge: Optional[asyncio.Task] = None
        hedged = False
        hedge_key = self._hedge_candidate(shard_id, primary_key, failed)
        if hedge_key is not None:
            done, _ = await asyncio.wait(
                {primary}, timeout=self._hedge_delay(shard_id)
            )
            if not done and self._try_hedge():
                hedged = True
                self.metrics.counter("replica.hedges").inc()
                hedge = loop.create_task(
                    self._replica_attempt(hedge_key, path_and_query)
                )
                inflight[hedge] = hedge_key
        consumed = 0
        payload: Optional[ShardPayload] = None
        winner: Optional[Tuple[asyncio.Task, ReplicaKey]] = None
        try:
            while inflight and payload is None:
                done, _ = await asyncio.wait(
                    set(inflight), return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    task_key = inflight.pop(task)
                    if task.cancelled() or task.exception() is not None:
                        consumed += 1
                        self.health.record_failure(task_key)
                        failed.add(task_key)
                    elif payload is None:
                        payload = task.result()
                        winner = (task, task_key)
        finally:
            if inflight:
                # First response wins: cancel the loser, then wait for
                # its cleanup (in-flight release, connection
                # retirement) before letting the caller proceed.
                for task in inflight:
                    task.cancel()
                await asyncio.gather(
                    *inflight, return_exceptions=True
                )
            if hedged:
                self._outstanding_hedges -= 1
        if payload is not None and winner is not None:
            task, task_key = winner
            self.health.record_success(task_key)
            if hedge is not None and task is hedge:
                self.metrics.counter("replica.hedge_wins").inc()
        return payload, consumed

    async def _call_shard(
        self, shard_id: int, path_and_query: str
    ) -> Optional[ShardPayload]:
        """One admitted, replica-failing-over shard call; ``None`` marks
        the shard degraded for this request.

        Each attempt picks a replica through the health-tiered
        power-of-two-choices selector, excluding replicas that already
        failed *this request*, so a worker death costs exactly one
        in-flight retry on a sibling -- never a degraded response while
        any replica of the slice is alive. The attempt budget is
        ``shard_retries`` plus the replica count, which reduces to the
        pre-replica ``shard_retries + 1`` for unreplicated shards; a
        failed hedge consumes budget like any other failed attempt.
        """
        deadline = (
            asyncio.get_running_loop().time()
            + self.config.shard_timeout_seconds
        )
        admitted = False
        while not (admitted := self.shard_admission.try_admit(shard_id)):
            if asyncio.get_running_loop().time() >= deadline:
                break
            await asyncio.sleep(0.005)
        if not admitted:
            self.metrics.counter("router.shard_failures").inc()
            return None
        failed: Set[ReplicaKey] = set()
        previous: Optional[ReplicaKey] = None
        budget = self.config.shard_retries + len(
            self.replica_groups[shard_id]
        )
        attempt = 0
        try:
            while attempt < budget:
                key = self.health.choose(shard_id, frozenset(failed))
                if key is None:
                    # Every replica failed once already; retry budget
                    # left, so take the healthiest of the full group.
                    key = self.health.choose(shard_id)
                    assert key is not None  # groups are never empty
                if attempt:
                    self.metrics.counter("router.shard_retries").inc()
                    if key != previous:
                        self.metrics.counter("replica.failovers").inc()
                previous = key
                payload, consumed = await self._attempt_with_hedge(
                    shard_id, key, path_and_query, failed
                )
                if payload is not None:
                    self._observe(shard_id, payload.index_version)
                    return payload
                attempt += max(1, consumed)
            self.metrics.counter("router.shard_failures").inc()
            return None
        finally:
            self.shard_admission.release(shard_id)

    async def _fanout(
        self, path_and_query: str
    ) -> Tuple[Dict[int, ShardPayload], List[int]]:
        """Scatter one request to every shard; gather responses.

        Returns ``(responses by shard id, degraded shard ids)``. Every
        shard is always queried -- even ones whose date range cannot
        intersect the query window -- because the merge needs each
        slice's corpus statistics for exact global IDF; non-matching
        shards answer with cheap stats-only payloads.
        """
        self.metrics.counter("router.fanouts").inc()
        started = time.perf_counter()
        results = await asyncio.gather(
            *(
                self._call_shard(shard_id, path_and_query)
                for shard_id in range(self.topology.num_shards)
            )
        )
        self.metrics.histogram("router.fanout_seconds").observe(
            time.perf_counter() - started
        )
        responses: Dict[int, ShardPayload] = {}
        degraded: List[int] = []
        for shard_id, payload in enumerate(results):
            if payload is None:
                degraded.append(shard_id)
            else:
                responses[shard_id] = payload
        if degraded:
            self.metrics.counter("router.degraded").inc()
        return responses, degraded

    @staticmethod
    def _shard_search_path(query: SearchQuery, limit: int) -> str:
        params = [("q", " ".join(query.keywords)), ("limit", str(limit))]
        if query.start is not None:
            params.append(("start", query.start.isoformat()))
        if query.end is not None:
            params.append(("end", query.end.isoformat()))
        if query.mode != "any":
            params.append(("mode", query.mode))
        if query.phrase:
            params.append(("phrase", "1"))
        return "/v1/shard/search?" + urllib.parse.urlencode(params)

    def _merge(
        self, responses: Mapping[int, ShardPayload], limit: int
    ) -> MergeResult:
        started = time.perf_counter()
        merged = merge_shard_candidates(
            responses, self.topology, limit, params=self.bm25_params
        )
        self.metrics.histogram("router.merge_seconds").observe(
            time.perf_counter() - started
        )
        if merged.truncated:
            self.metrics.counter("router.truncated_merges").inc()
        return merged

    # -- route handlers --------------------------------------------------------

    async def _handle_search(self, request: _Request) -> _Response:
        self.metrics.counter("router.search_requests").inc()
        search_query = parse_search_query(request.query)
        if not self.admission.try_admit():
            return self._rejection()
        try:
            # Shards get the larger fan-out budget so the *global* top
            # ``limit`` is assembled from complete local candidate sets,
            # not each slice's (differently ranked) local top ``limit``.
            shard_limit = max(
                search_query.limit, self.config.fanout_limit
            )
            responses, degraded = await self._fanout(
                self._shard_search_path(search_query, shard_limit)
            )
            if not responses:
                return error_response(
                    503, "all shards unavailable; cannot merge"
                )
            merged = self._merge(responses, search_query.limit)
        finally:
            self.admission.release()
        return self._envelope(
            merged.index_version,
            {
                "count": len(merged),
                "hits": search_hits(
                    merged.fields.records(merged.rows),
                    merged.scores.tolist(),
                ),
            },
            degraded,
        )

    # -- ingest fan-out --------------------------------------------------------

    def _owning_shard(self, date: datetime.date) -> int:
        """The shard whose content-date range owns *date*.

        Exact containment wins; a date outside every slice's range (the
        common case for freshly published news, which lands after the
        manifest was cut) goes to the chronologically nearest non-empty
        slice -- i.e. new articles extend the newest shard. With no
        non-empty slice at all, shard 0 takes everything.
        """
        best_id, best_distance = 0, None
        for shard in self.topology.shards:
            if shard.start is None or shard.end is None:
                continue
            if shard.start <= date <= shard.end:
                return shard.shard_id
            distance = min(
                abs((date - shard.start).days),
                abs((date - shard.end).days),
            )
            if best_distance is None or distance < best_distance:
                best_id, best_distance = shard.shard_id, distance
        return best_id

    async def _handle_ingest(self, request: _Request) -> _Response:
        """``POST /v1/ingest``: fan articles out to their owning shards.

        Articles are grouped by the shard owning their publication
        date, then each group is forwarded to **every** replica of that
        shard (replicas hold independent index copies, so each must
        apply the write). A shard group counts rejected when any
        replica answers 429 (the caller should retry the whole batch)
        and failed when every replica errors; partial outcomes are
        reported per shard and the response is never a 5xx unless no
        shard accepted anything.

        Retrying a 429 -- or re-submitting after a partial ``failed``
        count -- is safe and is the repair path for divergent replicas:
        replica application is idempotent per article id (the ingest
        plane drops already-indexed ids, see docs/ingest.md), so
        replicas that sealed the batch before a sibling rejected it
        simply ignore the retry while the laggards catch up, converging
        the group instead of duplicating documents.

        A ``"sync": true`` batch answers 200 only when every replica of
        every owning shard sealed it (answered 200), so the caller can
        read its write back: each sealed replica's post-seal
        ``index_version`` raises the version vector, which strands the
        merged results cached before the write. Anything less answers
        202, like an async batch.
        """
        self.metrics.counter("router.ingest_requests").inc()
        if self.draining:
            return self._rejection()
        articles, sync = parse_ingest_payload(request.body)
        groups: Dict[int, List[Any]] = {}
        for article in articles:
            shard_id = self._owning_shard(article.publication_date)
            groups.setdefault(shard_id, []).append(article)

        async def forward(shard_id: int, group: List[Any]) -> List[int]:
            body = canonical_json(
                {
                    "articles": [
                        {
                            "article_id": article.article_id,
                            "publication_date": (
                                article.publication_date.isoformat()
                            ),
                            "title": article.title,
                            "text": article.text,
                        }
                        for article in group
                    ],
                    "sync": sync,
                }
            )
            statuses = []
            for endpoint in self.replica_groups[shard_id]:
                try:
                    status, _, answer = await self._exchange(
                        endpoint, "POST", "/v1/ingest", body
                    )
                except (
                    OSError,
                    asyncio.TimeoutError,
                    ConnectionError,
                    ValueError,
                ):
                    status, answer = 0, b""
                if sync and status == 200:
                    self._observe(
                        shard_id, json.loads(answer).get("index_version")
                    )
                statuses.append(status)
            return statuses

        shard_ids = sorted(groups)
        outcomes = await asyncio.gather(
            *(forward(shard_id, groups[shard_id]) for shard_id in shard_ids)
        )
        routed: Dict[str, int] = {}
        accepted = rejected = failed = 0
        for shard_id, statuses in zip(shard_ids, outcomes):
            routed[str(shard_id)] = len(groups[shard_id])
            if 429 in statuses:
                rejected += len(groups[shard_id])
            elif 200 in statuses or 202 in statuses:
                accepted += len(groups[shard_id])
            else:
                failed += len(groups[shard_id])
        if accepted:
            self.metrics.counter("router.ingest_routed_articles").inc(
                accepted
            )
        if rejected:
            self.metrics.counter("router.ingest_rejected").inc(rejected)
        payload = {
            "schema": WIRE_SCHEMA,
            "accepted": accepted,
            "rejected": rejected,
            "failed": failed,
            "routed": routed,
        }
        if accepted == 0 and failed:
            return _Response(503, canonical_json(payload))
        if rejected:
            return _Response(
                429, canonical_json(payload), extra_headers=self._retry_after
            )
        sealed = sync and all(
            status == 200 for statuses in outcomes for status in statuses
        )
        return _Response(200 if sealed else 202, canonical_json(payload))

    async def _health(self) -> Tuple[str, Dict[str, Any]]:
        """Probe every replica; report shard coverage and replica fleet.

        Each probe outcome also feeds the health state machine, so two
        consecutive ``/healthz`` sweeps re-admit a recovered replica
        (with the default ``readmit_after=2``) without waiting for the
        background probe loop. A shard counts healthy while *any* of
        its replicas answers; ``status`` distinguishes a fully healthy
        fleet (``ok``), dead replicas behind full shard coverage
        (``impaired`` -- no user-visible impact yet), and uncovered
        shards (``degraded``).
        """
        probes = await asyncio.gather(
            *(
                self._probe_replica(endpoint)
                for endpoint in self.endpoints
            )
        )
        shard_ok = [False] * self.topology.num_shards
        replicas_healthy = 0
        for endpoint, ok in zip(self.endpoints, probes):
            self.health.record_probe(endpoint.key, ok)
            if ok:
                shard_ok[endpoint.shard_id] = True
                replicas_healthy += 1
        healthy = sum(shard_ok)
        self.metrics.gauge("router.shards_healthy").set(healthy)
        if healthy < self.topology.num_shards:
            status = "degraded"
        elif replicas_healthy < len(self.endpoints):
            status = "impaired"
        else:
            status = "ok"
        return status, {
            "shards": self.topology.num_shards,
            "shards_healthy": healthy,
            "replicas": len(self.endpoints),
            "replicas_healthy": replicas_healthy,
            "replica_states": {
                f"{shard_id}/{replica_id}": state
                for (shard_id, replica_id), state in sorted(
                    (key, self.health.state(key))
                    for key in self.health.replicas
                )
            },
            "total_documents": self.topology.total_documents,
        }

    async def _probe_replica(self, endpoint: _ShardEndpoint) -> bool:
        try:
            status, _, body = await self._exchange(
                endpoint, "GET", "/healthz"
            )
            if status != 200:
                return False
            self._observe(
                endpoint.shard_id, json.loads(body).get("index_version")
            )
            return True
        except (
            OSError,
            asyncio.TimeoutError,
            ConnectionError,
            ValueError,
        ):
            return False

    async def _probe_loop(self) -> None:
        """Re-probe suspect/dead replicas until cancelled.

        Runs every ``probe_interval_seconds``; each replica's own
        exponential backoff (``next_probe_at``) spaces its probes out,
        so a long outage converges to a few probes per backoff-max
        rather than hammering a dead port every tick. Healthy replicas
        are never actively probed -- passive traffic covers them.
        """
        while True:
            await asyncio.sleep(self.config.probe_interval_seconds)
            self._pool.reap_idle()
            due = self.health.due_probes()
            if not due:
                continue
            endpoints = [self._endpoint_by_key[key] for key in due]
            results = await asyncio.gather(
                *(self._probe_replica(endpoint) for endpoint in endpoints)
            )
            for key, ok in zip(due, results):
                self.health.record_probe(key, ok)

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        self._probe_task = asyncio.get_running_loop().create_task(
            self._probe_loop()
        )

    async def shutdown(self) -> bool:
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
            self._probe_task = None
        drained = await super().shutdown()
        self._pool.close()
        return drained

    async def _drain(self) -> bool:
        self.shard_admission.begin_drain()
        drained = await super()._drain()
        return (
            await self.shard_admission.wait_idle(
                self.config.drain_timeout_seconds
            )
            and drained
        )


def run_router(
    topology: Topology,
    endpoints: Sequence[Any],
    config: Optional[RouterConfig] = None,
    metrics: Optional[Metrics] = None,
    wilson: Optional[Wilson] = None,
    ready: Optional[Any] = None,
) -> bool:
    """Blocking entry point: route until SIGTERM/SIGINT, then drain.

    The sharded sibling of :func:`repro.serve.app.run_server`; see
    :meth:`~repro.serve.app.HttpServerBase.run` for *ready* and the
    result.
    """
    return TimelineRouter(
        topology,
        endpoints,
        config=config,
        metrics=metrics,
        wilson=wilson,
    ).run(ready)
