"""The ``wilson.segment/v1`` delta-segment format.

A *segment* is a small, immutable batch of freshly ingested documents:
the unit the streaming ingest plane seals, overlays on the serving
index (:class:`repro.ingest.live.LiveIndex`), and later folds back into
a full snapshot (:mod:`repro.ingest.compactor`). On disk a segment
reuses the ``wilson.snapshot`` section machinery
(:func:`repro.search.snapshot.write_section_file`): one JSON meta line
-- magic, sequence number, document/article counts, the set of touched
content dates -- followed by page-aligned, per-section-checksummed
arrays. Loading replays the stored documents through
:meth:`~repro.search.index.InvertedIndex.add`, so a restored segment is
bit-identical to the sealed one (same analyzer, same documents, same
order).

Segments deliberately store *documents*, not derived postings: they are
small by design (one ingest batch), replay cost is the same tokenise
work ingestion already paid once, and the format stays trivially
forward-compatible.
"""

from __future__ import annotations

import dataclasses
import datetime
import pathlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.search.columns import pack_strings, unpack_strings
from repro.search.engine import expand_article
from repro.search.index import InvertedIndex
from repro.search.snapshot import (
    SnapshotError,
    _read_header,
    read_section_file,
    write_section_file,
)
from repro.temporal.tagger import TemporalTagger
from repro.text.analysis import TokenCache
from repro.tlsdata.types import Article

PathLike = Union[str, pathlib.Path]

SEGMENT_MAGIC = "wilson.segment/v1"
SEGMENT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Segment:
    """One sealed ingest batch: a mini index plus its provenance.

    ``index`` holds the batch's documents under *local* doc ids
    ``0..documents-1``; the live overlay adds a global offset.
    ``touched_dates`` is the set of content dates the batch wrote --
    the precise-invalidation signal for the day-matrix and result
    caches. ``nbytes``/``path`` describe the on-disk form when the
    segment was persisted (``0``/``None`` for memory-only segments).
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
    touched = set()
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
            touched.add(date)
    return Segment(
        seq=seq,
        index=index,
        touched_dates=frozenset(touched),
        articles=len(articles),
    )


def write_segment(segment: Segment, path: PathLike) -> Segment:
    """Persist *segment* as a ``wilson.segment/v1`` file.

    Returns a copy of the segment carrying ``path`` and the on-disk
    ``nbytes`` (the pending-compaction accounting the metrics and
    ``index-info`` report).
    """
    path = pathlib.Path(path)
    docs = [segment.index.document(i) for i in range(segment.documents)]
    texts_buf, texts_indptr = pack_strings([d.text for d in docs])
    articles_buf, articles_indptr = pack_strings(
        [d.article_id for d in docs]
    )
    arrays = {
        "texts_buf": texts_buf,
        "texts_indptr": texts_indptr,
        "articles_buf": articles_buf,
        "articles_indptr": articles_indptr,
        "doc_dates": np.asarray(
            [d.date.toordinal() for d in docs], dtype=np.int64
        ),
        "doc_pub_dates": np.asarray(
            [d.publication_date.toordinal() for d in docs],
            dtype=np.int64,
        ),
        "doc_is_reference": np.asarray(
            [1 if d.is_reference else 0 for d in docs], dtype=np.uint8
        ),
    }
    cache = segment.index.cache
    meta = {
        "segment_seq": segment.seq,
        "documents": segment.documents,
        "articles": segment.articles,
        "touched_dates": sorted(
            d.isoformat() for d in segment.touched_dates
        ),
        "analyzer": {
            "stem": cache.stem if cache is not None else True,
            "drop_stopwords": (
                cache.drop_stopwords if cache is not None else True
            ),
        },
    }
    write_section_file(
        path, SEGMENT_MAGIC, SEGMENT_FORMAT_VERSION, arrays, meta
    )
    return dataclasses.replace(
        segment, path=path, nbytes=path.stat().st_size
    )


def load_segment(
    path: PathLike, cache: Optional[TokenCache] = None
) -> Segment:
    """Restore a segment written by :func:`write_segment`.

    Documents replay through :meth:`InvertedIndex.add` with the given
    analyzer cache; an analyzer mismatch with the file's recorded
    configuration raises :class:`SnapshotError` (replaying with a
    different analyzer would silently change postings). Never leaves
    partial state: any corruption raises before a segment is returned.
    """
    path = pathlib.Path(path)
    header, arrays = read_section_file(
        path, SEGMENT_MAGIC, SEGMENT_FORMAT_VERSION
    )
    analyzer = header.get("analyzer") or {}
    if cache is not None and (
        bool(analyzer.get("stem", True)) != cache.stem
        or bool(analyzer.get("drop_stopwords", True))
        != cache.drop_stopwords
    ):
        raise SnapshotError(
            "segment analyzer configuration "
            f"{analyzer!r} does not match the provided cache"
        )
    try:
        texts = unpack_strings(
            arrays["texts_buf"], arrays["texts_indptr"]
        )
        article_ids = unpack_strings(
            arrays["articles_buf"], arrays["articles_indptr"]
        )
        dates = arrays["doc_dates"].tolist()
        pub_dates = arrays["doc_pub_dates"].tolist()
        is_reference = arrays["doc_is_reference"].tolist()
    except KeyError as exc:
        raise SnapshotError(f"segment is missing section {exc}") from exc
    counts = {
        len(texts), len(article_ids), len(dates),
        len(pub_dates), len(is_reference),
    }
    if len(counts) != 1:
        raise SnapshotError("segment sections disagree on document count")
    declared = header.get("documents")
    if declared is not None and int(declared) != len(texts):
        raise SnapshotError(
            f"segment header declares {declared} documents, "
            f"sections carry {len(texts)}"
        )
    from_ordinal = datetime.date.fromordinal
    index = InvertedIndex(cache=cache)
    touched = set()
    for text, aid, date, pub, ref in zip(
        texts, article_ids, dates, pub_dates, is_reference
    ):
        content_date = from_ordinal(int(date))
        index.add(
            text,
            date=content_date,
            publication_date=from_ordinal(int(pub)),
            article_id=aid,
            is_reference=bool(ref),
        )
        touched.add(content_date)
    return Segment(
        seq=int(header.get("segment_seq", 0)),
        index=index,
        touched_dates=frozenset(touched),
        articles=int(header.get("articles", 0)),
        nbytes=path.stat().st_size,
        path=path,
    )


def segment_info(path: PathLike) -> dict:
    """Parse and validate a segment's meta header (payload unread).

    The O(1) accessor behind ``index-info --segments``: sequence,
    document/article counts, touched dates and payload size without
    replaying the batch. Raises :class:`SnapshotError` on a missing or
    malformed file.
    """
    try:
        with pathlib.Path(path).open("rb") as handle:
            return _read_header(
                handle, SEGMENT_MAGIC, SEGMENT_FORMAT_VERSION
            )[0]
    except OSError as exc:
        raise SnapshotError(f"cannot read segment: {exc}") from exc


def list_segments(directory: PathLike) -> List[pathlib.Path]:
    """Segment files in *directory*, sorted by ascending sequence."""
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("segment-*.seg"))
