"""Folding sealed segments back into a fresh base index.

Compaction merges the overlay's section arrays -- base first, then
every sealed segment in order -- into one fresh index
(:meth:`InvertedIndex.concat`), then atomically swaps it in as the new
base (:meth:`LiveIndex.replace_base`). A merge of the same documents in
the same order is what makes the guarantee trivial: the compacted index
*is* the cold re-index of the streamed corpus, so a snapshot written
from it is byte-identical to one written after a cold re-index
(asserted by ``tests/test_ingest_plane.py``). A persisted segment is a
snapshot file too, restored section for section, so a plane that
recovered its segments after a restart compacts to the same bytes.

The fold runs entirely off the query hot path: readers keep serving
the old ``(base, segments)`` view until the single atomic swap, and
segments sealed *while* the fold runs survive it -- ``replace_base``
only consumes the prefix the compactor actually folded. One compaction
runs at a time (serialized by an internal lock).

Durability contract: a persisted segment file is the *only* durable
copy of its acknowledged writes until a snapshot containing those
documents exists on disk. Folding a segment into the in-memory base
does not change that, so segment files are unlinked **only after** a
compacted snapshot has been durably written (snapshots are written to
a temporary file and atomically renamed, so a crash mid-write never
destroys the previous one). A compaction without a snapshot keeps the
folded files on disk; they remain tracked and are reclaimed by the
next snapshot-writing compaction, whose base -- and therefore whose
snapshot -- contains their documents.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass
from typing import List, Optional, Union

import threading

from repro.ingest.live import LiveIndex
from repro.ingest.segment import Segment
from repro.search.index import InvertedIndex
from repro.search.snapshot import save_snapshot

PathLike = Union[str, pathlib.Path]


@dataclass(frozen=True)
class CompactionReport:
    """What one compaction folded and what it cost."""

    folded_segments: int
    folded_documents: int
    documents: int
    seconds: float
    reclaimed_bytes: int
    snapshot_path: Optional[pathlib.Path] = None


class Compactor:
    """Folds a :class:`LiveIndex`'s segments into a fresh base."""

    def __init__(self, live: LiveIndex) -> None:
        self.live = live
        self._lock = threading.Lock()
        #: Persisted segments already folded into the in-memory base
        #: but not yet covered by an on-disk snapshot. Their files must
        #: survive until one is written (see module docstring).
        self._uncovered: List[Segment] = []

    def compact(
        self, snapshot_path: Optional[PathLike] = None
    ) -> CompactionReport:
        """Fold every currently sealed segment into a new base index.

        With *snapshot_path* the compacted index is also persisted as a
        snapshot -- the file a restarted worker boots from without
        replaying any segment -- and the folded segments' files (plus
        any kept by earlier snapshot-less compactions) are unlinked,
        since the snapshot now durably covers them. Without one, persisted segment files are **kept**:
        the in-memory fold alone is not durable, and deleting them
        would silently lose acknowledged writes on the next restart.
        Returns a :class:`CompactionReport`; folding zero segments is a
        cheap no-op (the snapshot, when requested, is still written).
        """
        with self._lock:
            started = time.perf_counter()
            live = self.live
            state = live._state  # one consistent (base, segments) view
            base, segments = state.base, state.segments
            if segments:
                # One merge of the section arrays, base then segments in
                # seal order: the documents, doc ids and version (the
                # sum of the parts') the overlay already serves.
                compacted = InvertedIndex.concat(
                    [base, *(segment.index for segment in segments)],
                    cache=live.cache,
                )
                live.replace_base(compacted, folded_segments=len(segments))
            else:
                compacted = base
            written: Optional[pathlib.Path] = None
            if snapshot_path is not None:
                written = pathlib.Path(snapshot_path)
                save_snapshot(compacted, written)
            persisted = [s for s in segments if s.path is not None]
            reclaimed = 0
            if written is not None:
                # The snapshot durably holds every folded document --
                # this round's and every earlier uncovered round's (the
                # base it was written from retains them) -- so their
                # files are now redundant.
                for segment in persisted + self._uncovered:
                    try:
                        segment.path.unlink()
                        reclaimed += segment.nbytes
                    except OSError:
                        pass
                self._uncovered = []
            else:
                self._uncovered.extend(persisted)
            return CompactionReport(
                folded_segments=len(segments),
                folded_documents=sum(s.documents for s in segments),
                documents=compacted.num_documents,
                seconds=time.perf_counter() - started,
                reclaimed_bytes=reclaimed,
                snapshot_path=written,
            )
