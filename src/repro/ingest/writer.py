"""The background seal loop: queue batches into sealed segments.

:class:`SegmentWriter` owns the single writer thread of the ingest
plane. It drains the :class:`~repro.ingest.queue.IngestQueue` into
batches (bounded by article count and batch age) and hands each to the
plane's seal path -- expansion, mini-index build, optional persist,
overlay append, cache invalidation, metrics. Everything expensive thus
happens on this one thread; query threads only ever swap-read the
overlay state, and HTTP handlers only enqueue.
"""

from __future__ import annotations

import threading
from typing import Optional


class SegmentWriter:
    """Drains an ingest queue into sealed segments on one thread."""

    def __init__(self, plane) -> None:
        self.plane = plane
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._sealing = False

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="wilson-ingest-writer", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        plane = self.plane
        config = plane.config
        timeout = max(config.batch_age_ms, 1.0) / 1000.0
        while not self._stop.is_set():
            batch = plane.queue.drain(
                config.batch_articles, timeout=timeout
            )
            if batch:
                self._seal(batch)

    def _seal(self, batch) -> None:
        """Seal one batch drained (leased) from the plane's queue."""
        self._sealing = True
        try:
            self.plane._seal_batch(batch)
        except Exception:
            self.plane._record_seal_error(len(batch))
        finally:
            self._sealing = False
            # Release the lease last: queue.wait_idle only reports idle
            # once the batch is sealed (or its error recorded), so a
            # flush() that returns True really covers this batch.
            self.plane.queue.task_done()

    def flush(self, timeout: float = 10.0) -> bool:
        """Wait until every queued article has been drained *and* sealed.

        Idleness is the queue's lease accounting, not a depth poll: a
        batch counts in flight from the instant ``drain`` dequeues it
        until its seal completes, so there is no window where a
        just-drained, not-yet-sealed batch reads as flushed.
        """
        return self.plane.queue.wait_idle(timeout)

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop the writer; with *drain* seal everything still queued.

        Draining first closes the queue (new offers are rejected), so
        the backlog is bounded and shutdown terminates.
        """
        queue = self.plane.queue
        queue.close()
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            self._thread = None
        if drain:
            while True:
                batch = queue.drain(
                    self.plane.config.batch_articles, timeout=0
                )
                if not batch:
                    break
                self._seal(batch)
