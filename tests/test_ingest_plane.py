"""The streaming ingest plane: segments, overlay, plane, compaction.

Pins the subsystem's core guarantee -- **a streamed corpus is
indistinguishable from a cold re-index of the same articles**:

* segment files -- ``wilson.snapshot/v2`` files with a ``"segment"``
  header key -- round-trip section for section and refuse corruption
  or analyzer drift (:mod:`repro.ingest.segment`);
* the :class:`~repro.ingest.LiveIndex` overlay answers every read-API
  question identically to a cold :class:`~repro.search.index.
  InvertedIndex` fed the same documents, and rejects direct writes;
* timelines generated over a streamed system are byte-identical to the
  cold system's, for *any* batch split (hypothesis property);
* a compacted index writes a snapshot byte-identical (sha256) to the
  cold re-index's snapshot;
* the plane's queue admission, writer drain, recovery and
  auto-compaction behave as docs/ingest.md promises.
"""

import datetime
import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.ingest.plane as plane_module
from repro.ingest import (
    INGEST_METRIC_NAMES,
    IngestConfig,
    IngestPlane,
    IngestQueue,
    LiveIndex,
    build_segment,
    list_segments,
    load_segment,
    write_segment,
)
from repro.obs.metrics import Metrics
from repro.search.columns import SECTIONS
from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex
from repro.search.query import SearchQuery
from repro.search.realtime import RealTimeTimelineSystem
from repro.search.snapshot import (
    SNAPSHOT_MAGIC_V2,
    SnapshotError,
    load_snapshot,
    snapshot_info,
)
from repro.text import analysis
from repro.text.analysis import TokenCache
from repro.tlsdata.types import Article

from tests.conftest import d, wait_until

QUERY = ("ceasefire", "rebels")
WINDOW = (d("2021-03-01"), d("2021-03-20"))


def make_articles():
    """Six deterministic articles with explicit date mentions."""
    return [
        Article(
            article_id="a1",
            publication_date=d("2021-03-02"),
            title="Ceasefire collapses",
            text=(
                "The ceasefire collapsed near the border on March 1, "
                "2021. Artillery fire struck the garrison at dawn. "
                "Officials said talks would resume on March 9, 2021."
            ),
        ),
        Article(
            article_id="a2",
            publication_date=d("2021-03-04"),
            title="Shelling continues",
            text=(
                "Shelling of the garrison continued on March 3, 2021. "
                "Rebels gathered outside the city."
            ),
        ),
        Article(
            article_id="a3",
            publication_date=d("2021-03-06"),
            title="Rebels advance",
            text=(
                "Rebels seized the stronghold outside the city. The "
                "advance follows the ceasefire collapse on March 1, "
                "2021."
            ),
        ),
        Article(
            article_id="a4",
            publication_date=d("2021-03-10"),
            title="Talks resume",
            text=(
                "Negotiators met on March 9, 2021 to restore the "
                "ceasefire. Rebels sent a delegation."
            ),
        ),
        Article(
            article_id="a5",
            publication_date=d("2021-03-13"),
            title="Truce drafted",
            text=(
                "A draft truce circulated on March 12, 2021. The "
                "ceasefire terms cover the stronghold."
            ),
        ),
        Article(
            article_id="a6",
            publication_date=d("2021-03-16"),
            title="Truce signed",
            text=(
                "The truce was signed on March 15, 2021. Rebels began "
                "withdrawing from the stronghold."
            ),
        ),
    ]


def cold_system(articles):
    """A system that indexed *articles* the classic way, all at once."""
    system = RealTimeTimelineSystem()
    system.ingest(list(articles))
    return system


def live_system(batches, config=None, metrics=None):
    """A system that streamed *batches* through an ingest plane."""
    system = RealTimeTimelineSystem()
    plane = IngestPlane(system, config or IngestConfig(), metrics=metrics)
    for batch in batches:
        plane.ingest(list(batch))
    return system, plane


def timeline_bytes(system):
    """The canonical JSON of the system's timeline over the test window."""
    response = system.generate_timeline(
        QUERY, start=WINDOW[0], end=WINDOW[1], num_dates=5
    )
    return json.dumps(
        response.timeline.to_dict(), sort_keys=True
    ).encode()


# ---------------------------------------------------------------------------
# Segments on disk: wilson.snapshot/v2 files with a "segment" header key
# ---------------------------------------------------------------------------


def assert_same_sections(left, right):
    """*left* and *right* hold equal section arrays of equal dtypes."""
    left, right = left.sections(), right.sections()
    assert list(left) == [name for name, _ in SECTIONS] == list(right)
    for name in left:
        assert left[name].dtype == right[name].dtype, name
        assert np.array_equal(left[name], right[name]), name


class TestSegmentFormat:
    @pytest.fixture()
    def engine(self):
        return SearchEngine()

    def _written(self, engine, tmp_path, seq=0):
        sealed = build_segment(
            seq, make_articles()[:2], engine.tagger, cache=engine.cache
        )
        return write_segment(sealed, tmp_path / f"segment-{seq:06d}.seg")

    def test_round_trip_is_exact(self, engine, tmp_path):
        articles = make_articles()[:3]
        sealed = build_segment(
            7, articles, engine.tagger, cache=engine.cache
        )
        assert sealed.seq == 7
        assert sealed.articles == 3
        assert sealed.documents == len(sealed.index)
        assert sealed.touched_dates == frozenset(sealed.index.dates())
        assert sealed.nbytes == 0 and sealed.path is None

        written = write_segment(sealed, tmp_path / "segment-000007.seg")
        assert written.path is not None
        assert written.nbytes == written.path.stat().st_size > 0
        # The original segment is immutable; write returns a copy.
        assert sealed.path is None

        loaded = load_segment(written.path, cache=engine.cache)
        assert loaded.seq == sealed.seq
        assert loaded.articles == sealed.articles
        assert loaded.documents == sealed.documents
        assert loaded.touched_dates == sealed.touched_dates
        assert loaded.index.index_version == sealed.index.index_version
        assert loaded.nbytes == written.nbytes
        assert_same_sections(loaded.index, sealed.index)
        # A segment file is a snapshot: the generic loader reads it too.
        assert_same_sections(
            load_snapshot(written.path, mode="mmap"), sealed.index
        )

    def test_writing_builds_no_document(self, engine, tmp_path, monkeypatch):
        def no_document(self, doc_id):
            raise AssertionError("the seal built a document")

        monkeypatch.setattr(InvertedIndex, "document", no_document)
        written = self._written(engine, tmp_path)
        assert written.nbytes > 0

    def test_header_is_readable_without_payload(self, engine, tmp_path):
        written = self._written(engine, tmp_path, seq=3)
        header = snapshot_info(written.path)
        assert header["meta"] == SNAPSHOT_MAGIC_V2
        assert header["segment"] == {"seq": 3, "articles": 2}
        assert header["documents"] == written.documents
        assert header["index_version"] == written.index.index_version
        assert header["date_span"] == [
            min(written.touched_dates).isoformat(),
            max(written.touched_dates).isoformat(),
        ]
        assert header["analyzer"] == {
            "stem": True, "drop_stopwords": True,
        }

    def _assert_refused(self, path, cache, match=None):
        """Loading *path* raises before the cache learns anything."""
        before = len(cache)
        with pytest.raises(SnapshotError, match=match):
            load_segment(path, cache=cache)
        assert len(cache) == before

    def test_corruption_raises_not_partial_state(self, engine, tmp_path):
        path = self._written(engine, tmp_path).path
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])  # truncated
        self._assert_refused(path, TokenCache(), match="overruns")
        flipped = bytearray(blob)
        flipped[-10] ^= 0xFF  # flip a payload byte past the header
        path.write_bytes(bytes(flipped))
        self._assert_refused(path, TokenCache(), match="checksum")

    def test_analyzer_mismatch_refuses_to_replay(self, engine, tmp_path):
        path = self._written(engine, tmp_path).path
        self._assert_refused(path, TokenCache(stem=False), match="analyzer")

    def test_a_snapshot_without_the_segment_key_is_no_segment(
        self, engine, tmp_path
    ):
        path = tmp_path / "segment-000000.seg"
        cold_system(make_articles()[:1]).engine.save_snapshot(path)
        with pytest.raises(SnapshotError, match="segment key"):
            load_segment(path, cache=engine.cache)

    def test_list_segments_sorts_by_sequence(self, engine, tmp_path):
        for seq in (1000000, 2, 999999, 0, 1):
            (tmp_path / f"segment-{seq:06d}.seg").touch()
        (tmp_path / ".segment-000003.seg.1-2.tmp").touch()
        names = [p.name for p in list_segments(tmp_path)]
        assert names == [
            "segment-000000.seg",
            "segment-000001.seg",
            "segment-000002.seg",
            "segment-999999.seg",
            "segment-1000000.seg",
        ]
        assert list_segments(tmp_path / "absent") == []


# ---------------------------------------------------------------------------
# IngestQueue admission
# ---------------------------------------------------------------------------


class TestIngestQueue:
    def test_offer_drain_is_fifo(self):
        queue = IngestQueue(max_articles=10)
        articles = make_articles()[:4]
        assert queue.offer(articles[:2])
        assert queue.offer(articles[2:])
        assert queue.depth == 4
        assert queue.drain(3, timeout=0) == articles[:3]
        assert queue.drain(3, timeout=0) == articles[3:]
        assert len(queue) == 0

    def test_rejection_is_all_or_nothing(self):
        queue = IngestQueue(max_articles=3)
        articles = make_articles()
        assert queue.offer(articles[:2])
        # Two queued + two offered exceeds the bound of three: the whole
        # batch bounces, nothing is half-applied.
        assert not queue.offer(articles[2:4])
        assert queue.depth == 2
        assert queue.offer(articles[4:5])
        assert queue.depth == 3

    def test_close_rejects_offers_and_unblocks_drain(self):
        queue = IngestQueue(max_articles=4)
        queue.close()
        assert queue.closed
        assert not queue.offer(make_articles()[:1])
        assert queue.drain(4, timeout=0) == []

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            IngestQueue(max_articles=0)


# ---------------------------------------------------------------------------
# LiveIndex overlay: reads equal a cold index, writes are rejected
# ---------------------------------------------------------------------------


class TestLiveIndexEquivalence:
    @pytest.fixture()
    def pair(self):
        """(cold InvertedIndex, LiveIndex) over the same documents."""
        articles = make_articles()
        cold = cold_system(articles)
        system, plane = live_system(
            [articles[:2], articles[2:4], articles[4:]]
        )
        return cold.engine.index, system.engine.index, plane

    def test_every_read_api_matches_cold(self, pair):
        cold, live, _ = pair
        assert isinstance(live, LiveIndex)
        assert len(live) == len(cold)
        assert live.num_documents == cold.num_documents
        assert live.total_length == cold.total_length
        assert live.average_length == cold.average_length
        assert live.vocabulary_size() == cold.vocabulary_size()
        assert live.dates() == cold.dates()
        assert live.date_histogram() == cold.date_histogram()
        assert sorted(live.tokens_with_postings()) == sorted(
            cold.tokens_with_postings()
        )
        for token in cold.tokens_with_postings():
            assert live.document_frequency(token) == (
                cold.document_frequency(token)
            )
            assert live.postings(token) == cold.postings(token)
            for doc_id in cold.postings(token):
                assert live.positions(token, doc_id) == (
                    cold.positions(token, doc_id)
                )
        for doc_id in range(cold.num_documents):
            assert live.document(doc_id) == cold.document(doc_id)
            assert live.document_length(doc_id) == (
                cold.document_length(doc_id)
            )
        assert list(live.doc_ids_in_range(*WINDOW)) == (
            list(cold.doc_ids_in_range(*WINDOW))
        )
        for day in cold.dates():
            assert live.documents_on(day) == cold.documents_on(day)

    def test_document_columns_equal_document_reads(self, pair, monkeypatch):
        """Read by read, the overlay's column cut equals ``document()``,
        and it never merges the overlay into one index to get it."""
        cold, live, _ = pair
        assert live.segment_count >= 2
        count = len(live)
        documents = [live.document(doc_id) for doc_id in range(count)]

        def merged(self):
            raise AssertionError("document_columns merged the overlay")

        monkeypatch.setattr(LiveIndex, "sections", merged)
        monkeypatch.setattr(LiveIndex, "_merged", merged)
        reads = [
            list(range(count)),
            list(reversed(range(count))),
            [count - 1, 0, count - 1],
            list(range(1, count, 3)),
            [],
        ]
        for doc_ids in reads:
            fields = live.document_columns(doc_ids)
            assert len(fields) == len(doc_ids)
            assert list(fields.records()) == [
                (doc.date, doc.text, doc.publication_date, doc.article_id,
                 doc.is_reference)
                for doc in map(documents.__getitem__, doc_ids)
            ]
        every = live.document_columns(range(count))
        reference = cold.document_columns(range(count))
        for name in ("dates", "text_buffer", "article_id_indptr"):
            assert np.array_equal(
                getattr(every, name), getattr(reference, name)
            ), name
        for bad in ([count], [-1]):
            with pytest.raises(IndexError):
                live.document_columns(bad)

    def test_overlay_rejects_direct_writes(self, pair):
        _, live, _ = pair
        with pytest.raises(TypeError):
            live.add(
                "forbidden",
                date=d("2021-03-01"),
                publication_date=d("2021-03-01"),
                article_id="x",
            )
        with pytest.raises(TypeError):
            live.advance_version(10**6)

    def test_touched_dates_since_is_day_precise(self):
        articles = make_articles()
        system, plane = live_system([articles[:4]])
        live = system.engine.index
        base_version = live.index_version

        assert live.touched_dates_since(base_version) == frozenset()
        sealed = plane._seal_batch(articles[4:5])
        after_first = live.index_version
        assert live.touched_dates_since(base_version) == (
            sealed.touched_dates
        )
        second = plane._seal_batch(articles[5:])
        assert live.touched_dates_since(base_version) == (
            sealed.touched_dates | second.touched_dates
        )
        assert live.touched_dates_since(after_first) == (
            second.touched_dates
        )
        assert live.touched_dates_since(live.index_version) == frozenset()
        # Below the log floor the overlay cannot answer precisely:
        # callers must fall back to a full flush.
        assert live.touched_dates_since(-1) is None


# ---------------------------------------------------------------------------
# Streamed == cold: timelines, versions, snapshots
# ---------------------------------------------------------------------------


class TestStreamedEqualsCold:
    def test_timeline_and_version_match_cold_reindex(self):
        articles = make_articles()
        cold = cold_system(articles)
        system, _ = live_system([articles[:1], articles[1:4], articles[4:]])
        assert system.index_version == cold.index_version
        assert system.engine.num_articles == cold.engine.num_articles
        assert timeline_bytes(system) == timeline_bytes(cold)

    def test_compacted_snapshot_is_byte_identical_to_cold(self, tmp_path):
        articles = make_articles()
        cold = cold_system(articles)
        cold_path = tmp_path / "cold.snap"
        cold.engine.save_snapshot(cold_path)

        system, plane = live_system([articles[:3], articles[3:]])
        report = plane.compact(snapshot_path=tmp_path / "compacted.snap")
        assert report.folded_segments == 2
        assert report.documents == cold.engine.index.num_documents
        cold_digest = hashlib.sha256(cold_path.read_bytes()).hexdigest()
        live_digest = hashlib.sha256(
            report.snapshot_path.read_bytes()
        ).hexdigest()
        assert live_digest == cold_digest

    def test_compaction_preserves_version_and_answers(self):
        articles = make_articles()
        system, plane = live_system([articles[:2], articles[2:]])
        before_version = system.index_version
        before = timeline_bytes(system)
        report = plane.compact()
        assert report.folded_segments == 2
        assert system.engine.index.segment_count == 0
        assert system.engine.index.pending_documents == 0
        assert system.index_version == before_version
        assert timeline_bytes(system) == before


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cuts=st.sets(st.integers(min_value=1, max_value=5), max_size=4))
def test_any_batch_split_streams_to_the_cold_answer(cuts):
    """Property: every way of splitting the corpus into ingest batches
    yields the cold re-index's version, article count and timeline."""
    articles = make_articles()
    bounds = [0] + sorted(cuts) + [len(articles)]
    batches = [
        articles[lo:hi]
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]
    cold = cold_system(articles)
    system, plane = live_system(batches)
    assert system.engine.index.segment_count == len(batches)
    assert system.index_version == cold.index_version
    assert system.engine.num_articles == cold.engine.num_articles
    assert timeline_bytes(system) == timeline_bytes(cold)


# ---------------------------------------------------------------------------
# IngestPlane lifecycle: admission, writer, recovery, auto-compaction
# ---------------------------------------------------------------------------


class TestIngestPlane:
    def test_sync_ingest_counts_documents_like_cold_add(self):
        articles = make_articles()
        cold = RealTimeTimelineSystem()
        cold_documents = cold.engine.add_articles(articles)

        metrics = Metrics()
        system, plane = live_system([articles], metrics=metrics)
        assert metrics.counter("ingest.documents_indexed").value == (
            cold_documents
        )
        assert metrics.counter("ingest.articles_accepted").value == (
            len(articles)
        )
        assert metrics.counter("ingest.segments_sealed").value == 1
        assert metrics.gauge("ingest.live_segments").value == 1
        assert metrics.gauge("ingest.index_version").value == (
            system.index_version
        )

    def test_system_ingest_routes_through_the_plane(self):
        articles = make_articles()
        system = RealTimeTimelineSystem()
        system.ingest(articles[:3])
        plane = IngestPlane(system)
        # With the plane attached the library entry point must use the
        # seal path: LiveIndex rejects direct writes.
        documents = system.ingest(articles[3:])
        assert documents > 0
        assert system.engine.index.segment_count == 1
        assert system.ingest([]) == 0

    def test_sentence_free_articles_still_count_as_articles(self):
        system, plane = live_system([])
        before = system.engine.num_articles
        ingested = plane.ingest(
            [Article(article_id="empty", publication_date=d("2021-03-01"))]
        )
        assert ingested == 0
        assert system.engine.num_articles == before + 1
        assert system.engine.index.segment_count == 0

    def test_writer_drains_submissions_in_background(self):
        articles = make_articles()
        metrics = Metrics()
        system = RealTimeTimelineSystem()
        plane = IngestPlane(
            system,
            IngestConfig(batch_articles=2, batch_age_ms=5.0),
            metrics=metrics,
        )
        plane.start()
        try:
            before = system.index_version
            assert plane.submit(articles)
            assert plane.flush(timeout=10.0)
            wait_until(
                lambda: system.index_version > before,
                message="background seal",
            )
            assert plane.queue.depth == 0
            # batch_articles=2 forces the six articles into >= 3 seals.
            assert metrics.counter("ingest.segments_sealed").value >= 3
        finally:
            plane.stop(drain=True)

    def test_queue_pressure_rejects_whole_batches(self):
        metrics = Metrics()
        system = RealTimeTimelineSystem()
        plane = IngestPlane(
            system, IngestConfig(queue_articles=2), metrics=metrics
        )
        articles = make_articles()
        assert not plane.submit(articles[:3])
        assert metrics.counter("ingest.articles_rejected").value == 3
        assert plane.submit(articles[:2])
        assert plane.queue.depth == 2

    def test_stop_with_drain_seals_the_backlog(self):
        articles = make_articles()
        system = RealTimeTimelineSystem()
        plane = IngestPlane(system, IngestConfig(batch_age_ms=5.0))
        # Never started: queued articles must still seal on stop(drain).
        assert plane.submit(articles)
        before = system.index_version
        plane.stop(drain=True)
        assert system.index_version > before
        assert plane.queue.depth == 0
        assert not plane.submit(articles)  # closed queue sheds load

    def test_seal_listener_sees_segment_and_version(self):
        articles = make_articles()
        system = RealTimeTimelineSystem()
        plane = IngestPlane(system)
        seen = []
        plane.add_seal_listener(
            lambda segment, version: seen.append((segment, version))
        )
        plane.ingest(articles[:2])
        assert len(seen) == 1
        segment, version = seen[0]
        assert version == system.index_version
        assert segment.touched_dates
        assert segment.documents > 0

    def test_persisted_segments_recover_into_a_new_plane(self, tmp_path):
        articles = make_articles()
        config = IngestConfig(segments_dir=tmp_path)
        cold = cold_system(articles)

        first_system = RealTimeTimelineSystem()
        first_system.ingest(articles[:2])
        first_plane = IngestPlane(first_system, config)
        first_plane.ingest(articles[2:4])
        first_plane.ingest(articles[4:])
        assert len(list_segments(tmp_path)) == 2

        # A restarted worker: same base articles, same segments dir.
        metrics = Metrics()
        second_system = RealTimeTimelineSystem()
        second_system.ingest(articles[:2])
        IngestPlane(second_system, config, metrics=metrics)
        assert metrics.counter("ingest.segments_recovered").value == 2
        assert second_system.index_version == cold.index_version
        assert second_system.engine.num_articles == (
            cold.engine.num_articles
        )
        assert timeline_bytes(second_system) == timeline_bytes(cold)

    def test_recovery_continues_the_sequence(self, tmp_path):
        articles = make_articles()
        config = IngestConfig(segments_dir=tmp_path)
        system, plane = live_system([articles[:2]], config=config)
        fresh = RealTimeTimelineSystem()
        recovered = IngestPlane(fresh, config)
        recovered.ingest(articles[2:4])
        names = [p.name for p in list_segments(tmp_path)]
        assert names == ["segment-000000.seg", "segment-000001.seg"]

    def test_auto_compaction_folds_once_threshold_is_hit(self, tmp_path):
        articles = make_articles()
        metrics = Metrics()
        system = RealTimeTimelineSystem()
        plane = IngestPlane(
            system,
            IngestConfig(segments_dir=tmp_path, auto_compact_docs=1),
            metrics=metrics,
        )
        plane.ingest(articles[:3])
        assert system.engine.index.segment_count == 0
        assert metrics.counter("ingest.compactions").value == 1
        # The folded segment file is reclaimed from disk.
        assert list_segments(tmp_path) == []
        cold = cold_system(articles[:3])
        assert system.index_version == cold.index_version

    def test_attach_is_idempotent_and_stats_report_live_state(self):
        articles = make_articles()
        system, plane = live_system([articles[:2]])
        live = system.engine.index
        again = IngestPlane(system)
        assert system.engine.index is live  # no double wrap
        stats = plane.stats()
        assert stats["segments"] == 1
        assert stats["pending_documents"] == live.pending_documents
        assert stats["index_version"] == system.index_version
        assert stats["queue_depth"] == 0

    def test_metric_registry_is_closed(self):
        metrics = Metrics()
        system = RealTimeTimelineSystem()
        plane = IngestPlane(system, metrics=metrics)
        plane.ingest(make_articles()[:2])
        plane.compact()
        plane.refresh_gauges()
        snapshot = metrics.snapshot()
        used = (
            set(snapshot.get("counters", {}))
            | set(snapshot.get("gauges", {}))
            | set(snapshot.get("histograms", {}))
        )
        ingest_used = {n for n in used if n.startswith("ingest.")}
        assert ingest_used <= set(INGEST_METRIC_NAMES)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IngestConfig(queue_articles=0)
        with pytest.raises(ValueError):
            IngestConfig(batch_articles=0)
        with pytest.raises(ValueError):
            IngestConfig(batch_age_ms=0)
        with pytest.raises(ValueError):
            IngestConfig(auto_compact_docs=0)


# ---------------------------------------------------------------------------
# Compaction durability: acknowledged persisted writes survive any restart
# ---------------------------------------------------------------------------


class TestCompactionDurability:
    def _restarted(self, config):
        """A fresh worker recovering the segments directory from cold."""
        system = RealTimeTimelineSystem()
        plane = IngestPlane(system, config)
        return system, plane

    def test_auto_compaction_survives_a_restart(self, tmp_path):
        articles = make_articles()
        config = IngestConfig(segments_dir=tmp_path, auto_compact_docs=1)
        system, plane = live_system([articles[:3]], config=config)
        # Auto-compaction folded and reclaimed the segment files, but
        # only after writing the durable recovery snapshot.
        assert list_segments(tmp_path) == []
        assert (tmp_path / "compacted.snapshot").is_file()

        cold = cold_system(articles[:3])
        restarted, _ = self._restarted(
            IngestConfig(segments_dir=tmp_path)
        )
        assert restarted.index_version == cold.index_version
        assert restarted.engine.num_articles == cold.engine.num_articles
        assert timeline_bytes(restarted) == timeline_bytes(cold)

    def test_plane_compaction_without_snapshot_path_is_durable(
        self, tmp_path
    ):
        articles = make_articles()
        config = IngestConfig(segments_dir=tmp_path)
        system, plane = live_system(
            [articles[:2], articles[2:4]], config=config
        )
        report = plane.compact()  # no explicit snapshot_path
        assert report.folded_segments == 2
        assert report.snapshot_path == tmp_path / "compacted.snapshot"
        assert report.snapshot_path.is_file()
        assert list_segments(tmp_path) == []
        assert report.reclaimed_bytes > 0

        cold = cold_system(articles[:4])
        restarted, _ = self._restarted(config)
        assert restarted.index_version == cold.index_version
        assert timeline_bytes(restarted) == timeline_bytes(cold)

    def test_segments_sealed_after_compaction_also_recover(self, tmp_path):
        articles = make_articles()
        config = IngestConfig(segments_dir=tmp_path)
        system, plane = live_system([articles[:3]], config=config)
        plane.compact()
        plane.ingest(articles[3:])  # sealed after the fold
        assert len(list_segments(tmp_path)) == 1

        cold = cold_system(articles)
        restarted, _ = self._restarted(config)
        assert restarted.index_version == cold.index_version
        assert restarted.engine.num_articles == cold.engine.num_articles
        assert timeline_bytes(restarted) == timeline_bytes(cold)

    def test_explicit_snapshot_path_also_writes_the_recovery_copy(
        self, tmp_path
    ):
        articles = make_articles()
        segments = tmp_path / "segments"
        config = IngestConfig(segments_dir=segments)
        system, plane = live_system([articles[:3]], config=config)
        out = tmp_path / "exported.snap"
        report = plane.compact(snapshot_path=out)
        assert report.snapshot_path == out
        recovery = segments / "compacted.snapshot"
        assert recovery.is_file()
        assert out.read_bytes() == recovery.read_bytes()
        assert list_segments(segments) == []

        cold = cold_system(articles[:3])
        restarted, _ = self._restarted(config)
        assert timeline_bytes(restarted) == timeline_bytes(cold)

    def test_bare_compactor_keeps_files_until_a_snapshot_covers_them(
        self, tmp_path
    ):
        articles = make_articles()
        config = IngestConfig(segments_dir=tmp_path)
        system, plane = live_system(
            [articles[:2], articles[2:4]], config=config
        )
        # Bypassing the plane: folding without a snapshot must NOT
        # delete the only durable copy of the acknowledged writes.
        report = plane.compactor.compact()
        assert report.folded_segments == 2
        assert report.reclaimed_bytes == 0
        assert len(list_segments(tmp_path)) == 2

        cold = cold_system(articles[:4])
        restarted, _ = self._restarted(config)
        assert timeline_bytes(restarted) == timeline_bytes(cold)

        # The next snapshot-writing compaction covers the kept files
        # (its base retains their documents) and reclaims them.
        covered = plane.compactor.compact(
            snapshot_path=tmp_path / "covered.snap"
        )
        assert covered.folded_segments == 0
        assert covered.reclaimed_bytes > 0
        assert list_segments(tmp_path) == []


# ---------------------------------------------------------------------------
# Recovery: segment files load as snapshots, in seal order, untokenised
# ---------------------------------------------------------------------------


class TestSegmentRecovery:
    def test_recovery_tokenises_nothing(self, tmp_path, monkeypatch):
        articles = make_articles()
        config = IngestConfig(segments_dir=tmp_path)
        _, plane = live_system([articles[:2]], config=config)
        plane.compact()  # leaves compacted.snapshot behind
        plane.ingest(articles[2:4])
        plane.ingest(articles[4:])

        calls = []
        original = analysis.tokenize_for_matching

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        restarted = RealTimeTimelineSystem()
        metrics = Metrics()
        monkeypatch.setattr(analysis, "tokenize_for_matching", counting)
        IngestPlane(restarted, config, metrics=metrics)
        assert metrics.counter("ingest.segments_recovered").value == 2
        assert calls == []
        monkeypatch.undo()
        assert timeline_bytes(restarted) == (
            timeline_bytes(cold_system(articles))
        )

    def test_restarted_plane_compacts_to_the_cold_snapshot(self, tmp_path):
        articles = make_articles()
        config = IngestConfig(segments_dir=tmp_path / "segments")
        live_system([articles[:3], articles[3:]], config=config)

        plane = IngestPlane(RealTimeTimelineSystem(), config)
        assert plane.live.segment_count == 2
        report = plane.compact(snapshot_path=tmp_path / "restarted.snap")
        cold_path = tmp_path / "cold.snap"
        cold_system(articles).engine.save_snapshot(cold_path)
        assert report.snapshot_path.read_bytes() == cold_path.read_bytes()

    def test_segments_past_seq_999999_recover_in_seal_order(
        self, tmp_path
    ):
        articles = make_articles()
        config = IngestConfig(segments_dir=tmp_path)
        sealed = RealTimeTimelineSystem()
        sealed.ingest(articles[:2])
        plane = IngestPlane(sealed, config)
        plane._seq = 999_999  # a long-running writer's counter
        plane.ingest(articles[2:4])
        plane.ingest(articles[4:])
        # As strings, the later seal's name sorts first.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "segment-1000000.seg",
            "segment-999999.seg",
        ]

        restarted = RealTimeTimelineSystem()
        restarted.ingest(articles[:2])
        recovered = IngestPlane(restarted, config)
        assert [s.seq for s in recovered.live.segments] == [
            999_999, 1_000_000,
        ]
        for original, loaded in zip(
            plane.live.segments, recovered.live.segments
        ):
            assert loaded.touched_dates == original.touched_dates
            assert_same_sections(loaded.index, original.index)
        live, expected = restarted.engine.index, sealed.engine.index
        assert live.index_version == expected.index_version
        assert [live.document(i) for i in range(len(live))] == [
            expected.document(i) for i in range(len(expected))
        ]
        recovered.ingest([make_articles()[0]])  # a duplicate: no seal
        assert recovered._seq == 1_000_001

    def test_a_retired_segment_file_fails_attach_naming_it(self, tmp_path):
        articles = make_articles()
        config = IngestConfig(segments_dir=tmp_path)
        live_system([articles[:2]], config=config)
        retired = tmp_path / "segment-000001.seg"
        header = {
            "meta": "wilson.segment/v1",
            "format_version": 1,
            "segment_seq": 1,
            "documents": 0,
            "articles": 0,
            "touched_dates": [],
            "sections": {},
        }
        retired.write_bytes(
            json.dumps(header, sort_keys=True).encode() + b"\n"
        )

        system = RealTimeTimelineSystem()
        before = system.index_version
        # Never skipped: skipping would drop acknowledged writes.
        with pytest.raises(SnapshotError, match="segment-000001.seg"):
            IngestPlane(system, config)
        # Every file loads before any is applied: the readable
        # segment-000000.seg was not overlaid either.
        assert system.index_version == before

    def test_a_failed_attach_leaves_the_engine_writable(self, tmp_path):
        articles = make_articles()
        (tmp_path / "segment-000000.seg").write_bytes(b"not a snapshot\n")
        system = cold_system(articles[:2])
        original = system.engine.index

        with pytest.raises(SnapshotError, match="segment-000000.seg"):
            IngestPlane(system, IngestConfig(segments_dir=tmp_path))
        assert system.engine.index is original
        assert system.ingest_plane is None
        # No overlay was left behind: the article is indexed cold.
        system.ingest([articles[2]])
        assert timeline_bytes(system) == timeline_bytes(
            cold_system(articles[:3])
        )
        assert system.index_version == cold_system(
            articles[:3]
        ).index_version

    def test_index_info_describes_a_segments_directory(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        articles = make_articles()
        system = cold_system(articles[:2])
        base = tmp_path / "base.snap"
        system.engine.save_snapshot(base)
        segments = tmp_path / "segments"
        plane = IngestPlane(system, IngestConfig(segments_dir=segments))
        plane.ingest(articles[2:4])
        plane.ingest(articles[4:])
        capsys.readouterr()

        args = ["index-info", str(base), "--segments", str(segments)]
        assert main(args) == 0
        out = capsys.readouterr().out
        lines = [
            line.strip()
            for line in out.splitlines()
            if line.strip().startswith("segment-")
        ]
        expected = []
        for segment in plane.live.segments:
            expected.append(
                f"{segment.path.name}: seq {segment.seq}, "
                f"{segment.documents} documents, 2 articles, "
                f"{min(segment.touched_dates)} .. "
                f"{max(segment.touched_dates)}, {segment.nbytes} bytes"
            )
        assert lines == expected
        assert f"live index_version:         {system.index_version}" in out

        # index-info reads a segment file as the snapshot it is.
        assert main(["index-info", str(segments / "segment-000001.seg")]) == 0
        assert "segment:       seq 1, 2 articles ingested" in (
            capsys.readouterr().out
        )


# ---------------------------------------------------------------------------
# Ingest idempotency: re-submitted batches never duplicate documents
# ---------------------------------------------------------------------------


class TestIngestIdempotency:
    def test_reingesting_the_same_batch_is_a_no_op(self):
        articles = make_articles()
        metrics = Metrics()
        system, plane = live_system([articles], metrics=metrics)
        before_docs = system.engine.index.num_documents
        before_version = system.index_version
        bytes_before = timeline_bytes(system)

        assert plane.ingest(articles) == 0
        assert system.engine.index.num_documents == before_docs
        assert system.index_version == before_version
        assert timeline_bytes(system) == bytes_before
        assert metrics.counter(
            "ingest.articles_deduplicated"
        ).value == len(articles)

    def test_duplicates_within_one_batch_index_once(self):
        articles = make_articles()
        doubled = articles[:2] + articles[:2]
        cold = cold_system(articles[:2])
        system, plane = live_system([doubled])
        assert system.index_version == cold.index_version
        assert timeline_bytes(system) == timeline_bytes(cold)

    def test_replica_retry_converges_instead_of_duplicating(self):
        """The router 429-retry scenario: one replica already sealed the
        batch, a sibling did not; re-submitting to both converges them."""
        articles = make_articles()
        ahead, ahead_plane = live_system([articles[:4]])
        behind, behind_plane = live_system([articles[:2]])

        # The retried batch: a no-op on the replica that sealed it,
        # applied on the one that rejected it the first time.
        ahead_plane.ingest(articles[2:4])
        behind_plane.ingest(articles[2:4])
        assert ahead.index_version == behind.index_version
        assert timeline_bytes(ahead) == timeline_bytes(behind)

    def test_dedup_survives_recovery(self, tmp_path):
        articles = make_articles()
        config = IngestConfig(segments_dir=tmp_path)
        system, plane = live_system([articles[:3]], config=config)

        restarted = RealTimeTimelineSystem()
        recovered = IngestPlane(restarted, config)
        assert recovered.ingest(articles[:3]) == 0
        assert restarted.engine.index.segment_count == 1

    def test_a_failed_segment_write_does_not_block_the_retry(
        self, tmp_path, monkeypatch
    ):
        articles = make_articles()
        metrics = Metrics()
        system, plane = live_system(
            [articles[:4]],
            config=IngestConfig(segments_dir=tmp_path),
            metrics=metrics,
        )
        before = system.index_version
        write = plane_module.write_segment
        failed = []

        def fails_once(segment, path):
            if not failed:
                failed.append(path)
                raise OSError(28, "No space left on device")
            return write(segment, path)

        monkeypatch.setattr(plane_module, "write_segment", fails_once)
        with pytest.raises(OSError):
            plane.ingest(articles[4:5])
        assert system.index_version == before

        documents = plane.ingest(articles[4:5])
        assert documents > 0
        assert system.index_version == before + documents
        assert metrics.counter("ingest.articles_deduplicated").value == 0
        hits = system.engine.search(
            SearchQuery(
                keywords=("truce",),
                start=d("2021-03-12"),
                end=d("2021-03-13"),
            )
        )
        assert "a5" in {hit.document.article_id for hit in hits}

    def test_dedup_set_reads_article_tables_not_documents(
        self, tmp_path, monkeypatch
    ):
        """On a sliced base plus recovered segments, the dedup set is
        the per-document scan's set, and no document is built for it."""
        articles = make_articles()
        anonymous = Article(
            article_id="",
            publication_date=d("2021-03-05"),
            text="An unattributed report arrived on March 4, 2021.",
        )
        full = cold_system(articles[:4] + [anonymous]).engine.index
        kept = [
            doc_id
            for doc_id in range(full.num_documents)
            if full.document(doc_id).article_id in {"a1", "a3", ""}
        ]

        def sliced_system():
            system = RealTimeTimelineSystem()
            system.engine.index = full.subset(kept)
            return system

        config = IngestConfig(segments_dir=tmp_path)
        first = IngestPlane(sliced_system(), config)
        first.ingest(articles[4:5])
        first.ingest(articles[5:6])

        metrics = Metrics()
        plane = IngestPlane(sliced_system(), config, metrics=metrics)
        live = plane.live
        assert live.segment_count == 2
        scan = {
            live.document(doc_id).article_id
            for doc_id in range(live.num_documents)
        } - {""}
        assert scan == {"a1", "a3", "a5", "a6"}

        def no_document(doc_id):
            raise AssertionError("the dedup set built a document")

        # Every document already in the live view.
        for sub in (live, live.base, *(s.index for s in live.segments)):
            monkeypatch.setattr(sub, "document", no_document)
        assert live.article_ids() == scan
        assert plane.ingest(articles) > 0  # seeds the set on this seal
        assert metrics.counter(
            "ingest.articles_deduplicated"
        ).value == len(scan)
        assert live.article_ids() == {a.article_id for a in articles}

    def test_articles_without_an_id_are_never_deduplicated(self):
        system, plane = live_system([])
        anonymous = Article(
            article_id="",
            publication_date=d("2021-03-02"),
            text="An unattributed report arrived on March 1, 2021.",
        )
        first = plane.ingest([anonymous])
        second = plane.ingest([anonymous])
        assert first > 0
        assert second == first


# ---------------------------------------------------------------------------
# Flush covers drained-but-unsealed batches (queue lease accounting)
# ---------------------------------------------------------------------------


class TestFlushLease:
    def test_drained_batch_counts_until_task_done(self):
        queue = IngestQueue(max_articles=8)
        queue.offer(make_articles()[:2])
        batch = queue.drain(8, timeout=0)
        assert batch and queue.depth == 0
        # Depth alone would read idle here; the lease keeps it busy.
        assert queue.inflight == 1
        assert not queue.wait_idle(timeout=0.02)
        queue.task_done()
        assert queue.inflight == 0
        assert queue.wait_idle(timeout=0.02)

    def test_flush_waits_for_the_inflight_seal(self):
        import threading

        articles = make_articles()
        system = RealTimeTimelineSystem()
        plane = IngestPlane(
            system, IngestConfig(batch_articles=64, batch_age_ms=5.0)
        )
        sealing = threading.Event()
        release = threading.Event()
        original = plane._seal_batch

        def slow_seal(batch):
            sealing.set()
            release.wait(timeout=10.0)
            return original(batch)

        plane._seal_batch = slow_seal
        plane.start()
        try:
            before = system.index_version
            assert plane.submit(articles)
            assert sealing.wait(timeout=10.0)
            wait_until(
                lambda: plane.queue.depth == 0,
                message="queue drained into the in-flight seal",
            )
            # The batch is drained but not sealed: flush must NOT
            # report success yet.
            assert not plane.flush(timeout=0.1)
            release.set()
            assert plane.flush(timeout=10.0)
            assert system.index_version > before
        finally:
            release.set()
            plane.stop(drain=True)


# ---------------------------------------------------------------------------
# Day-matrix sync ordering: a seal racing the sync cannot strand the cache
# ---------------------------------------------------------------------------


class TestDayMatrixSyncOrdering:
    def test_seal_between_version_reads_cannot_strand_the_cache(self):
        """generate_timeline must capture the index version BEFORE the
        touched-dates query: a segment sealed between the two reads must
        not re-key the day-matrix cache past writes it never evicted."""
        articles = make_articles()
        system, plane = live_system([articles[:4]])
        matrix_cache = system.wilson.day_matrix_cache
        timeline_bytes(system)  # warm: cache keyed at the current revision
        pre_seal_version = system.index_version
        assert matrix_cache.version == pre_seal_version

        live = system.engine.index
        original = live.touched_dates_since
        state = {"sealed": False}

        def racing(version):
            touched = original(version)
            if not state["sealed"]:
                state["sealed"] = True
                plane.ingest(articles[4:5])  # a seal lands mid-sync
            return touched

        live.touched_dates_since = racing
        try:
            timeline_bytes(system)
        finally:
            del live.touched_dates_since
        assert state["sealed"]
        # Still keyed at the pre-seal revision: the racing seal's day
        # was not in the eviction set, so advancing past it would serve
        # its stale entries forever (no later sync would evict them).
        assert matrix_cache.version == pre_seal_version
        # The next, race-free query catches up to the live revision.
        timeline_bytes(system)
        assert matrix_cache.version == system.index_version
