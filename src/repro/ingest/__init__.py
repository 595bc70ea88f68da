"""Streaming ingest: live document ingest under serving traffic.

The write path of the serving stack (see ``docs/ingest.md``): articles
stream into a bounded :class:`IngestQueue`, a :class:`SegmentWriter`
thread seals them into append-only delta segments (persisted as
``wilson.snapshot/v2`` files with a ``"segment"`` header key), a
:class:`LiveIndex` overlays sealed segments on the base (mmap or
copied) snapshot with exact merged BM25 statistics, and a
:class:`Compactor` periodically folds segments back into a fresh
snapshot off the hot path. Each seal bumps ``index_version`` and
reports its touched content dates, driving precise day-scoped cache
invalidation instead of full flushes.
"""

from repro.ingest.compactor import CompactionReport, Compactor
from repro.ingest.live import LiveIndex
from repro.ingest.plane import (
    INGEST_COUNTERS,
    INGEST_GAUGES,
    INGEST_HISTOGRAMS,
    INGEST_METRIC_NAMES,
    IngestConfig,
    IngestPlane,
)
from repro.ingest.queue import IngestQueue
from repro.ingest.segment import (
    Segment,
    build_segment,
    list_segments,
    load_segment,
    write_segment,
)
from repro.ingest.writer import SegmentWriter

__all__ = [
    "CompactionReport",
    "Compactor",
    "INGEST_COUNTERS",
    "INGEST_GAUGES",
    "INGEST_HISTOGRAMS",
    "INGEST_METRIC_NAMES",
    "IngestConfig",
    "IngestPlane",
    "IngestQueue",
    "LiveIndex",
    "Segment",
    "SegmentWriter",
    "build_segment",
    "list_segments",
    "load_segment",
    "write_segment",
]
