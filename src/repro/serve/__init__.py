"""The network-facing serving tier of the real-time system.

``repro.serve`` wraps one
:class:`~repro.search.realtime.RealTimeTimelineSystem` in a stdlib-only
asyncio HTTP service with the three properties a production timeline
service needs under concurrency (docs/serving.md):

* **admission control** -- a bounded in-flight limit; excess load is shed
  with fast ``429`` responses instead of queue collapse
  (:mod:`repro.serve.admission`);
* **micro-batching** -- concurrent requests within a small window run as
  one fault-isolated sharded sweep, so a poisoned query degrades only
  its own response (:mod:`repro.serve.batching`);
* **versioned result caching** -- an LRU+TTL cache keyed on the
  normalised query *and* the index's monotonic ``index_version``, so
  incremental ingestion invalidates exactly (:mod:`repro.serve.cache`).

Beyond the single-index server, the tier scales out horizontally: a
corpus partitions into date-range snapshot slices
(:mod:`repro.serve.topology`), each slice boots as its own worker
process, and a scatter-gather :class:`~repro.serve.router.TimelineRouter`
merges per-shard candidates into responses byte-identical to
single-index serving. Each slice can run R worker **replicas**
(:mod:`repro.serve.health`): the router tracks per-replica health
(healthy / suspect / dead) from passive outcomes and active probes,
balances load with power-of-two-choices, and fails a dying replica's
request over to a sibling -- degrading to partial results (HTTP 200 +
``X-Wilson-Degraded``) only when a whole slice is down
(:mod:`repro.serve.router`).

The tier also exposes the streaming write path: ``POST /v1/ingest``
admits article batches into an attached
:class:`~repro.ingest.plane.IngestPlane` (bounded queue -> 429 on
pressure, never 5xx), each sealed delta segment bumps
``index_version``, and invalidation is *day-scoped*: only cached
results whose request window intersects the segment's touched content
dates are evicted (:func:`~repro.serve.cache.window_intersects`). The
router fans ingest batches out to the shard owning each article's
publication date. See docs/ingest.md.

Start one from the command line with ``wilson-tls serve`` (or
``wilson-tls serve --shards N --replicas R`` for a sharded topology).
"""

from repro.serve.admission import (
    AdmissionController,
    InflightTracker,
    ShardAdmission,
)
from repro.serve.app import (
    DEGRADED_HEADER,
    SERVE_COUNTERS,
    SERVE_GAUGES,
    SERVE_HISTOGRAMS,
    SERVE_METRIC_NAMES,
    WIRE_SCHEMA,
    BackgroundServer,
    HttpServerBase,
    ServeConfig,
    TimelineServer,
    canonical_json,
    parse_ingest_payload,
    parse_search_query,
    parse_timeline_payload,
    run_server,
)
from repro.serve.batching import MicroBatcher
from repro.serve.flight import Flight, FlightTable
from repro.serve.frames import (
    RPC_CONTENT_TYPE,
    RPC_SCHEMA,
    FrameError,
    decode_shard_search,
    encode_shard_search,
)
from repro.serve.pool import (
    POOL_COUNTERS,
    POOL_GAUGES,
    POOL_METRIC_NAMES,
    ConnectionPool,
    PooledConnection,
)
from repro.serve.cache import (
    ResultCache,
    make_cache_key,
    normalize_keywords,
    window_intersects,
)
from repro.serve.health import (
    DEAD,
    HEALTHY,
    REPLICA_COUNTERS,
    REPLICA_GAUGES,
    REPLICA_METRIC_NAMES,
    REPLICA_STATES,
    SUSPECT,
    HealthConfig,
    ReplicaHealth,
    replica_keys,
)
from repro.serve.router import (
    ROUTER_COUNTERS,
    ROUTER_GAUGES,
    ROUTER_HISTOGRAMS,
    ROUTER_METRIC_NAMES,
    MergeResult,
    RouterConfig,
    TimelineRouter,
    merge_shard_candidates,
    run_router,
)
from repro.serve.topology import (
    TOPOLOGY_SCHEMA,
    ShardSlice,
    ShardWorker,
    ShardWorkerPool,
    Topology,
    TopologyError,
    export_engine_slices,
    export_slices,
    plan_date_ranges,
)

__all__ = [
    "AdmissionController",
    "BackgroundServer",
    "ConnectionPool",
    "DEAD",
    "DEGRADED_HEADER",
    "Flight",
    "FlightTable",
    "FrameError",
    "HEALTHY",
    "HealthConfig",
    "HttpServerBase",
    "InflightTracker",
    "MergeResult",
    "MicroBatcher",
    "POOL_COUNTERS",
    "POOL_GAUGES",
    "POOL_METRIC_NAMES",
    "PooledConnection",
    "REPLICA_COUNTERS",
    "REPLICA_GAUGES",
    "REPLICA_METRIC_NAMES",
    "REPLICA_STATES",
    "ROUTER_COUNTERS",
    "ROUTER_GAUGES",
    "ROUTER_HISTOGRAMS",
    "ROUTER_METRIC_NAMES",
    "RPC_CONTENT_TYPE",
    "RPC_SCHEMA",
    "ReplicaHealth",
    "ResultCache",
    "RouterConfig",
    "SUSPECT",
    "SERVE_COUNTERS",
    "SERVE_GAUGES",
    "SERVE_HISTOGRAMS",
    "SERVE_METRIC_NAMES",
    "ServeConfig",
    "ShardAdmission",
    "ShardSlice",
    "ShardWorker",
    "ShardWorkerPool",
    "TOPOLOGY_SCHEMA",
    "TimelineRouter",
    "TimelineServer",
    "Topology",
    "TopologyError",
    "WIRE_SCHEMA",
    "canonical_json",
    "decode_shard_search",
    "encode_shard_search",
    "export_engine_slices",
    "export_slices",
    "make_cache_key",
    "merge_shard_candidates",
    "normalize_keywords",
    "parse_ingest_payload",
    "parse_search_query",
    "parse_timeline_payload",
    "plan_date_ranges",
    "replica_keys",
    "run_router",
    "run_server",
    "window_intersects",
]
