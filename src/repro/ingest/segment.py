"""Sealed ingest segments: one ingest batch as a small index.

A *segment* is a small, immutable batch of freshly ingested documents:
the unit the streaming ingest plane seals, overlays on the serving
index (:class:`repro.ingest.live.LiveIndex`), and later folds back into
a full snapshot (:mod:`repro.ingest.compactor`). On disk a segment is a
``wilson.snapshot/v2`` file (:mod:`repro.search.snapshot`) whose header
carries one extra ``"segment"`` key: the seal's sequence number and the
batch's article count. Recovery loads it with
``load_snapshot(mode="copy")``, so the restored index is section for
section the sealed one and nothing is re-tokenised: the postings and
token streams come back as stored.
"""

from __future__ import annotations

import dataclasses
import pathlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.search.engine import expand_article
from repro.search.index import InvertedIndex
from repro.search.snapshot import (
    SnapshotError,
    load_snapshot,
    save_snapshot,
    snapshot_info,
)
from repro.temporal.tagger import TemporalTagger
from repro.text.analysis import TokenCache
from repro.tlsdata.types import Article

PathLike = Union[str, pathlib.Path]


@dataclass(frozen=True)
class Segment:
    """One sealed ingest batch: a mini index plus its provenance.

    ``index`` holds the batch's documents under *local* doc ids
    ``0..documents-1``; the live overlay adds a global offset.
    ``touched_dates`` is the set of the index's content dates -- the
    precise-invalidation signal for the day-matrix and result caches.
    ``nbytes``/``path`` describe the on-disk form when the segment was
    persisted (``0``/``None`` for memory-only segments).
    """

    seq: int
    index: InvertedIndex
    touched_dates: frozenset
    articles: int
    nbytes: int = 0
    path: Optional[pathlib.Path] = None

    @property
    def documents(self) -> int:
        return len(self.index)

    @property
    def version_span(self) -> int:
        """How much this segment advances the live ``index_version``."""
        return self.index.index_version

    def __repr__(self) -> str:
        return (
            f"Segment(seq={self.seq}, documents={self.documents}, "
            f"articles={self.articles}, "
            f"touched_dates={len(self.touched_dates)})"
        )


def build_segment(
    seq: int,
    articles: Sequence[Article],
    tagger: TemporalTagger,
    cache: Optional[TokenCache] = None,
) -> Segment:
    """Expand *articles* into a sealed in-memory segment.

    Articles expand through :func:`repro.search.engine.expand_article`
    -- the same single source of truth ``SearchEngine.add_article``
    uses -- so a streamed batch produces exactly the documents a cold
    re-index of the same articles would.
    """
    articles = list(articles)
    index = InvertedIndex(cache=cache)
    for article in articles:
        for text, date, pub_date, article_id, is_ref in expand_article(
            article, tagger
        ):
            index.add(
                text,
                date=date,
                publication_date=pub_date,
                article_id=article_id,
                is_reference=is_ref,
            )
    return Segment(
        seq=seq,
        index=index,
        touched_dates=frozenset(index.dates()),
        articles=len(articles),
    )


def write_segment(segment: Segment, path: PathLike) -> Segment:
    """Persist *segment* as a snapshot with a ``"segment"`` header key.

    Returns a copy of the segment carrying ``path`` and the on-disk
    ``nbytes`` (the pending-compaction accounting the metrics and
    ``index-info`` report).
    """
    path = pathlib.Path(path)
    save_snapshot(
        segment.index,
        path,
        extra={"segment": {"seq": segment.seq, "articles": segment.articles}},
    )
    return dataclasses.replace(
        segment, path=path, nbytes=path.stat().st_size
    )


def load_segment(
    path: PathLike, cache: Optional[TokenCache] = None
) -> Segment:
    """Restore a segment written by :func:`write_segment`.

    The index loads with ``load_snapshot(path, cache, mode="copy")``,
    which checks the analyzer, every checksum, offset and size before
    returning. Any failure -- including a file that is not a segment --
    raises :class:`SnapshotError` naming *path*.
    """
    path = pathlib.Path(path)
    try:
        provenance = snapshot_info(path).get("segment")
        if not isinstance(provenance, dict):
            raise SnapshotError("the header carries no segment key")
        seq, articles = int(provenance["seq"]), int(provenance["articles"])
        index = load_snapshot(path, cache=cache, mode="copy")
    except (SnapshotError, KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"segment {path}: {exc}") from exc
    return Segment(
        seq=seq,
        index=index,
        touched_dates=frozenset(index.dates()),
        articles=articles,
        nbytes=path.stat().st_size,
        path=path,
    )


def list_segments(directory: PathLike) -> List[pathlib.Path]:
    """Segment files in *directory*, sorted by ascending integer seq."""
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    # By number, not name: segment-1000000.seg follows segment-999999.seg.
    return sorted(
        directory.glob("segment-*.seg"),
        key=lambda path: int(path.stem[len("segment-"):]),
    )
