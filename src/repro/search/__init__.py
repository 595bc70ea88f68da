"""Search-engine substrate: the offline ElasticSearch substitute.

Section 5's real-time system indexes temporally tagged sentences in
ElasticSearch and serves keyword + time-window queries. This package
provides the same contract in-process:

* :mod:`repro.search.index` -- an incremental inverted index with date
  fields, held as the snapshot's section arrays
  (:mod:`repro.search.columns`);
* :mod:`repro.search.query` -- BM25-ranked keyword queries with date-range
  filtering;
* :mod:`repro.search.engine` -- the high-level :class:`SearchEngine`;
* :mod:`repro.search.realtime` -- :class:`RealTimeTimelineSystem`, the
  query-to-timeline pipeline of Figure 7;
* :mod:`repro.search.snapshot` -- the index's one on-disk form, the
  page-aligned ``wilson.snapshot/v2`` file with per-section checksums:
  mapped zero-copy for serving (a read-only index over the file's
  pages) or copied into a mutable index.
"""

from repro.search.engine import SearchEngine
from repro.search.index import IndexedSentence, InvertedIndex
from repro.search.query import SearchHit, SearchQuery
from repro.search.realtime import RealTimeTimelineSystem
from repro.search.snapshot import (
    SnapshotError,
    load_snapshot,
    save_snapshot,
    snapshot_info,
)
from repro.search.trends import Burst, detect_bursts, suggest_query_window

__all__ = [
    "Burst",
    "IndexedSentence",
    "InvertedIndex",
    "RealTimeTimelineSystem",
    "SearchEngine",
    "SearchHit",
    "SearchQuery",
    "SnapshotError",
    "detect_bursts",
    "load_snapshot",
    "save_snapshot",
    "snapshot_info",
    "suggest_query_window",
]
