"""The ingest plane: the write path of a live WILSON serving system.

:class:`IngestPlane` attaches to a :class:`~repro.search.realtime.
RealTimeTimelineSystem` and turns its read-only engine into a live one:

* the engine's index is wrapped in a :class:`~repro.ingest.live.
  LiveIndex` overlay (idempotent -- attaching twice is a no-op);
* HTTP handlers :meth:`submit` article batches into the bounded
  :class:`~repro.ingest.queue.IngestQueue` (``False`` -> 429, the only
  admission decision);
* one :class:`~repro.ingest.writer.SegmentWriter` thread drains the
  queue and calls the seal path: drop already-indexed article ids
  (ingest is idempotent -- a retried batch never duplicates documents
  or skews BM25 statistics), expand the rest exactly as
  ``SearchEngine.add_article`` would, build a mini index, optionally
  persist it as a ``wilson.snapshot/v2`` file with a ``"segment"``
  header key, append the sealed segment to the overlay (bumping
  ``index_version`` by its document count), then notify seal listeners
  with the segment's touched dates -- the hook serving layers use for
  precise result-cache invalidation;
* a :class:`~repro.ingest.compactor.Compactor` folds segments back
  into a fresh base off the hot path, automatically once
  ``auto_compact_docs`` pending documents accumulate. With a segments
  directory the fold is durable: the recovery snapshot
  (``compacted.snapshot``) is written before any folded segment file
  is unlinked, and :meth:`IngestPlane._recover_segments` prefers it
  over a stale boot base.

Every instrument lives in the ``ingest.*`` registry pinned below and
documented in ``docs/observability.md`` (drift-tested by
``tests/test_docs_observability.py``).
"""

from __future__ import annotations

import pathlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

from repro.ingest.compactor import CompactionReport, Compactor
from repro.ingest.live import LiveIndex
from repro.ingest.queue import IngestQueue
from repro.ingest.segment import (
    Segment,
    build_segment,
    list_segments,
    load_segment,
    write_segment,
)
from repro.ingest.writer import SegmentWriter
from repro.obs.metrics import Metrics
from repro.tlsdata.types import Article

PathLike = Union[str, pathlib.Path]

#: Counters the ingest plane may increment.
INGEST_COUNTERS = (
    "ingest.articles_accepted",
    "ingest.articles_rejected",
    "ingest.articles_deduplicated",
    "ingest.documents_indexed",
    "ingest.segments_sealed",
    "ingest.segments_recovered",
    "ingest.seal_errors",
    "ingest.compactions",
    "ingest.invalidated_days",
)

#: The durable recovery snapshot a compaction leaves in the segments
#: directory: a restarted plane boots its base from it (instead of the
#: possibly stale snapshot the engine was constructed with), because
#: the segment files it covers were unlinked when it was written.
COMPACTED_SNAPSHOT_NAME = "compacted.snapshot"

#: Gauges describing the live overlay's current shape.
INGEST_GAUGES = (
    "ingest.queue_depth",
    "ingest.live_segments",
    "ingest.pending_documents",
    "ingest.pending_compaction_bytes",
    "ingest.index_version",
)

#: Timing/size distributions of the write path.
INGEST_HISTOGRAMS = (
    "ingest.seal_seconds",
    "ingest.seal_documents",
    "ingest.compaction_seconds",
)

INGEST_METRIC_NAMES = INGEST_COUNTERS + INGEST_GAUGES + INGEST_HISTOGRAMS

#: A seal listener: ``(segment, new_index_version) -> None``.
SealListener = Callable[[Segment, int], None]


@dataclass(frozen=True)
class IngestConfig:
    """Tunables of the ingest plane.

    ``queue_articles`` bounds admission (beyond it, :meth:`IngestPlane.
    submit` rejects -> 429). ``batch_articles`` / ``batch_age_ms``
    bound a seal batch by size and staleness: a lone document becomes
    queryable within roughly one batch age. ``segments_dir`` persists
    sealed segments (and recovers them on attach); ``None`` keeps
    segments memory-only. ``auto_compact_docs`` folds segments into a
    fresh base once that many pending documents accumulate (``None``
    disables automatic compaction).
    """

    queue_articles: int = 1024
    batch_articles: int = 64
    batch_age_ms: float = 50.0
    segments_dir: Optional[PathLike] = None
    auto_compact_docs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.queue_articles < 1:
            raise ValueError(
                f"queue_articles must be >= 1, got {self.queue_articles}"
            )
        if self.batch_articles < 1:
            raise ValueError(
                f"batch_articles must be >= 1, got {self.batch_articles}"
            )
        if self.batch_age_ms <= 0:
            raise ValueError(
                f"batch_age_ms must be > 0, got {self.batch_age_ms}"
            )
        if self.auto_compact_docs is not None and self.auto_compact_docs < 1:
            raise ValueError(
                "auto_compact_docs must be >= 1 or None, "
                f"got {self.auto_compact_docs}"
            )


class IngestPlane:
    """Streaming write path over a real-time timeline system."""

    def __init__(
        self,
        system,
        config: Optional[IngestConfig] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.system = system
        self.config = config or IngestConfig()
        self.metrics = metrics if metrics is not None else Metrics()
        engine = system.engine
        self.live: LiveIndex = (
            engine.index
            if isinstance(engine.index, LiveIndex)
            else LiveIndex(engine.index, cache=engine.cache)
        )
        self.queue = IngestQueue(self.config.queue_articles)
        self.writer = SegmentWriter(self)
        self._seal_lock = threading.Lock()
        self._seq = 0
        self._listeners: List[SealListener] = []
        #: Article ids already present in the live view, the dedup set
        #: making ingest idempotent. Built lazily on first seal (under
        #: the seal lock) so attaching to a large mmap snapshot stays
        #: O(1); ``None`` until then.
        self._seen_article_ids: Optional[set] = None
        self._segments_dir: Optional[pathlib.Path] = (
            pathlib.Path(self.config.segments_dir)
            if self.config.segments_dir is not None
            else None
        )
        if self._segments_dir is not None:
            self._segments_dir.mkdir(parents=True, exist_ok=True)
            # May replace self.live's base with the durable compacted
            # snapshot, so the compactor is constructed afterwards.
            self._recover_segments()
        # The overlay goes in only once recovery has succeeded: an
        # attach that raises leaves the engine's own, writable index.
        engine.index = self.live
        self.compactor = Compactor(self.live)
        # Expose the plane so RealTimeTimelineSystem.ingest routes here
        # (LiveIndex rejects direct writes).
        system.ingest_plane = self
        self.refresh_gauges()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the background writer thread (idempotent)."""
        self.writer.start()

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop the writer; with *drain*, seal everything still queued."""
        self.writer.stop(drain=drain, timeout=timeout)
        self.refresh_gauges()

    def _recover_segments(self) -> None:
        """Restore the durable live state of an earlier incarnation.

        Two sources, in order: the compacted recovery snapshot, when a
        compaction left one (its documents' segment files were unlinked
        when it was written, so it *must* replace a stale boot base --
        skipped only when the engine already booted from something at
        least as new), then every remaining segment file, re-overlaid
        on top, in sequence order. Together they reconstruct every
        acknowledged persisted write across any crash point.

        Every file is loaded and verified before the live state
        changes: a file that does not load raises
        :class:`~repro.search.snapshot.SnapshotError` naming it, and is
        never skipped -- skipping would drop acknowledged writes. Both
        sources are snapshots, so recovery tokenises nothing.
        """
        from repro.search.snapshot import load_snapshot

        engine = self.system.engine
        compacted = self._segments_dir / COMPACTED_SNAPSHOT_NAME
        restored = (
            load_snapshot(compacted, cache=engine.cache)
            if compacted.is_file()
            else None
        )
        segments = [
            load_segment(path, cache=engine.cache)
            for path in list_segments(self._segments_dir)
        ]
        base = self.live.base
        if (
            restored is not None
            and restored.num_documents >= base.num_documents
            and restored.index_version >= base.index_version
        ):
            self.live = LiveIndex(restored, cache=engine.cache)
            engine._num_articles = len(restored.article_ids())
        for segment in segments:
            if segment.documents:
                self.live.append_segment(segment)
                engine._num_articles += segment.articles
                self.metrics.counter("ingest.segments_recovered").inc()
            self._seq = max(self._seq, segment.seq + 1)

    # -- listeners ----------------------------------------------------------

    def add_seal_listener(self, listener: SealListener) -> None:
        """Call *listener(segment, version)* after every seal."""
        self._listeners.append(listener)

    # -- write path ---------------------------------------------------------

    def submit(self, articles: Sequence[Article]) -> bool:
        """Enqueue a batch for asynchronous sealing; ``False`` on pressure.

        The admission decision of ``POST /v1/ingest``: rejection is
        all-or-nothing and the caller maps it to 429.
        """
        articles = list(articles)
        accepted = self.queue.offer(articles)
        if accepted:
            self.metrics.counter("ingest.articles_accepted").inc(
                len(articles)
            )
        else:
            self.metrics.counter("ingest.articles_rejected").inc(
                len(articles)
            )
        self.metrics.gauge("ingest.queue_depth").set(self.queue.depth)
        return accepted

    def ingest(self, articles: Sequence[Article]) -> int:
        """Synchronously seal *articles*; returns documents indexed.

        The library path (``RealTimeTimelineSystem.ingest``): bypasses
        the queue, returns once the batch is queryable.
        """
        articles = list(articles)
        if not articles:
            return 0
        self.metrics.counter("ingest.articles_accepted").inc(
            len(articles)
        )
        try:
            segment = self._seal_batch(articles)
        except Exception:
            self._record_seal_error(len(articles))
            raise
        return segment.documents if segment is not None else 0

    def flush(self, timeout: float = 10.0) -> bool:
        """Wait until every queued article has been sealed."""
        flushed = self.writer.flush(timeout=timeout)
        self.refresh_gauges()
        return flushed

    def _known_article_ids(self) -> set:
        """The dedup set, built lazily (caller holds the seal lock).

        Seeded from the article tables of the live view -- base,
        recovered and sealed segments alike -- then maintained
        incrementally by every seal. The seed runs once, on the first
        seal, off the boot path.
        """
        if self._seen_article_ids is None:
            self._seen_article_ids = set(self.live.article_ids())
        return self._seen_article_ids

    def _seal_batch(self, articles: Sequence[Article]) -> Optional[Segment]:
        engine = self.system.engine
        with self._seal_lock:
            started = time.perf_counter()
            # Idempotency: an article id already indexed (or repeated
            # within the batch) is dropped, so re-submitting a batch --
            # a client retrying a router 429, a replica receiving a
            # write a sibling already applied -- never duplicates
            # documents or skews BM25 statistics. Articles without an
            # id have no identity and are never deduplicated.
            seen = self._known_article_ids()
            fresh: List[Article] = []
            batch_ids: set = set()
            for article in articles:
                aid = article.article_id
                if aid and (aid in seen or aid in batch_ids):
                    continue
                if aid:
                    batch_ids.add(aid)
                fresh.append(article)
            duplicates = len(articles) - len(fresh)
            if duplicates:
                self.metrics.counter(
                    "ingest.articles_deduplicated"
                ).inc(duplicates)
            if not fresh:
                return None
            segment = build_segment(
                self._seq, fresh, engine.tagger, cache=engine.cache
            )
            if not segment.documents:
                # Articles with no sentences still count as ingested
                # articles -- exactly what add_article does cold.
                seen.update(batch_ids)
                engine._num_articles += segment.articles
                return None
            self._seq += 1
            if self._segments_dir is not None:
                segment = write_segment(
                    segment,
                    self._segments_dir / f"segment-{segment.seq:06d}.seg",
                )
            version = self.live.append_segment(segment)
            # Only a published batch is known: when the write above
            # raises, a retry of the same articles must index them.
            seen.update(batch_ids)
            engine._num_articles += segment.articles
            elapsed = time.perf_counter() - started
            metrics = self.metrics
            metrics.counter("ingest.segments_sealed").inc()
            metrics.counter("ingest.documents_indexed").inc(
                segment.documents
            )
            metrics.counter("ingest.invalidated_days").inc(
                len(segment.touched_dates)
            )
            metrics.histogram("ingest.seal_seconds").observe(elapsed)
            metrics.histogram("ingest.seal_documents").observe(
                segment.documents
            )
            self.refresh_gauges()
        for listener in self._listeners:
            listener(segment, version)
        auto = self.config.auto_compact_docs
        if auto is not None and self.live.pending_documents >= auto:
            self.compact()
        return segment

    def _record_seal_error(self, articles: int) -> None:
        self.metrics.counter("ingest.seal_errors").inc()
        self.metrics.counter("ingest.articles_rejected").inc(articles)

    # -- compaction ---------------------------------------------------------

    def compact(
        self, snapshot_path: Optional[PathLike] = None
    ) -> CompactionReport:
        """Fold sealed segments into a fresh base (off the hot path).

        With a segments directory, every compaction -- automatic or
        explicit -- writes the durable recovery snapshot
        (``compacted.snapshot`` next to the segment files) *before* the
        folded segment files are unlinked: a restart recovers from that
        snapshot plus the remaining segments, so acknowledged persisted
        writes survive any crash point. An explicit *snapshot_path*
        additionally receives a copy of it (identical bytes -- snapshot
        writing is deterministic).
        """
        recovery: Optional[pathlib.Path] = None
        target = snapshot_path
        if self._segments_dir is not None:
            recovery = self._segments_dir / COMPACTED_SNAPSHOT_NAME
            target = recovery
        report = self.compactor.compact(snapshot_path=target)
        if recovery is not None and snapshot_path is not None:
            import dataclasses
            import shutil

            from repro.search.snapshot import replacing

            with replacing(snapshot_path) as tmp:
                shutil.copyfile(recovery, tmp)
            report = dataclasses.replace(
                report, snapshot_path=pathlib.Path(snapshot_path)
            )
        self.metrics.counter("ingest.compactions").inc()
        self.metrics.histogram("ingest.compaction_seconds").observe(
            report.seconds
        )
        self.refresh_gauges()
        return report

    # -- introspection ------------------------------------------------------

    def refresh_gauges(self) -> None:
        metrics = self.metrics
        live = self.live
        metrics.gauge("ingest.queue_depth").set(self.queue.depth)
        metrics.gauge("ingest.live_segments").set(live.segment_count)
        metrics.gauge("ingest.pending_documents").set(
            live.pending_documents
        )
        metrics.gauge("ingest.pending_compaction_bytes").set(
            live.pending_bytes
        )
        metrics.gauge("ingest.index_version").set(live.index_version)

    def stats(self) -> dict:
        """The live-state summary served by ``/v1/ingest`` responses."""
        live = self.live
        return {
            "queue_depth": self.queue.depth,
            "segments": live.segment_count,
            "pending_documents": live.pending_documents,
            "pending_compaction_bytes": live.pending_bytes,
            "index_version": live.index_version,
        }
