"""The v2 (page-aligned, mmap-able) snapshot layout end to end.

Three contracts, per docs/architecture.md "Snapshot memory model":

* **exactness** -- a snapshot loaded either way (``mode="copy"`` or
  ``mode="mmap"``) reconstructs exactly the state of the index it was
  written from: postings, positions, dates, documents, search hits, and
  the canonical served-timeline JSON are byte-identical, and a fresh
  token cache is seeded identically by both modes;
* **read-only views** -- the mmap path hands out an index backed by
  ``MAP_SHARED`` read-only pages: mutation is refused up front, and the
  mapped index can itself be re-snapshotted losslessly;
* **corruption is loud** -- a truncated section, a flipped payload
  byte, or a tampered header descriptor raises
  :class:`~repro.search.snapshot.SnapshotError`, and a failed load
  never leaves partial state behind.
"""

import json

import numpy as np
import pytest

from repro.core.pipeline import Wilson, WilsonConfig
from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex
from repro.search.query import SearchQuery
from repro.search.realtime import RealTimeTimelineSystem
from repro.search.snapshot import (
    SNAPSHOT_MAGIC_V2,
    SNAPSHOT_FORMAT_VERSION_V2,
    SectionTable,
    SnapshotError,
    load_snapshot,
    save_snapshot,
    snapshot_info,
)
from repro.serve import canonical_json
from repro.text.analysis import TokenCache
from repro.tlsdata.synthetic import SyntheticConfig, SyntheticCorpusGenerator


@pytest.fixture(scope="module")
def instance():
    config = SyntheticConfig(
        topic="snapshot-v2-test",
        theme="disaster",
        seed=29,
        duration_days=40,
        num_events=8,
        num_major_events=4,
        num_articles=12,
        sentences_per_article=6,
    )
    return SyntheticCorpusGenerator(config).generate()


@pytest.fixture(scope="module")
def engine(instance):
    engine = SearchEngine(cache=TokenCache())
    engine.add_articles(instance.corpus.articles)
    return engine


@pytest.fixture(scope="module")
def v2_path(engine, tmp_path_factory):
    path = tmp_path_factory.mktemp("snapv2") / "index.v2.snap"
    engine.save_snapshot(path)
    return path


def _corrupt_copy(v2_path, tmp_path, mutate):
    """A private copy of the v2 snapshot with *mutate(bytearray)* applied."""
    raw = bytearray(v2_path.read_bytes())
    mutate(raw)
    path = tmp_path / "corrupt.snap"
    path.write_bytes(bytes(raw))
    return path


def _flip_section_byte(v2_path, tmp_path, section):
    """A private copy with one payload byte of *section* inverted.

    Section offsets in the header are relative to ``data_start`` (the
    first 4096-byte boundary past the header line), so the absolute
    file position has to account for it.
    """
    raw = bytearray(v2_path.read_bytes())
    header_len = raw.index(b"\n") + 1
    data_start = -(-header_len // 4096) * 4096
    offset = snapshot_info(v2_path)["sections"][section]["offset"]
    raw[data_start + offset] ^= 0x01
    path = tmp_path / f"corrupt-{section}.snap"
    path.write_bytes(bytes(raw))
    return path


def _header_copy(v2_path, tmp_path, edit):
    """A private copy with *edit(header_dict)* applied to the JSON header."""
    raw = v2_path.read_bytes()
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline].decode("utf-8"))
    edit(header)
    line = json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"
    # Pad with spaces before the newline so every section offset is
    # preserved -- only the edited descriptor changes meaning.
    if len(line) > newline + 1:
        pytest.skip("edited header does not fit in the original slot")
    padded = line[:-1] + b" " * (newline + 1 - len(line)) + b"\n"
    path = tmp_path / "tampered.snap"
    path.write_bytes(padded + raw[newline + 1:])
    return path


def _index_state(index):
    """Everything observable about an index, as plain JSON-able data."""
    docs = [
        (
            doc.text,
            doc.date.isoformat(),
            doc.publication_date.isoformat(),
            doc.article_id,
            doc.is_reference,
        )
        for doc in (index.document(i) for i in range(len(index)))
    ]
    tokens = sorted(index.tokens_with_postings())
    return {
        "version": index.index_version,
        "num_documents": index.num_documents,
        "total_length": index.total_length,
        "vocabulary_size": index.vocabulary_size(),
        "documents": docs,
        "postings": {
            token: sorted(index.postings(token).items()) for token in tokens
        },
        "positions": {
            token: {
                doc_id: index.positions(token, doc_id)
                for doc_id in index.postings(token)
            }
            for token in tokens
        },
        "dates": [day.isoformat() for day in index.dates()],
        "histogram": {
            day.isoformat(): count
            for day, count in index.date_histogram().items()
        },
    }


def _served_bytes(engine, instance):
    # The pipeline gets a fresh token cache of its own, so every engine
    # compared interns token ids in the same order.
    system = RealTimeTimelineSystem(engine=engine)
    start, end = instance.corpus.window
    timeline = system.generate_timeline(
        instance.corpus.query, start=start, end=end,
        num_dates=5, num_sentences=2,
    )
    return canonical_json(timeline.timeline.to_dict())


class TestExactness:
    def test_header_describes_v2(self, engine, v2_path):
        info = snapshot_info(v2_path)
        assert info["meta"] == SNAPSHOT_MAGIC_V2
        assert info["format_version"] == SNAPSHOT_FORMAT_VERSION_V2
        assert info["documents"] == len(engine.index)
        for descriptor in info["sections"].values():
            assert descriptor["offset"] % np.dtype(descriptor["dtype"]).itemsize == 0
            assert len(descriptor["sha256"]) == 64

    def test_state_identical_across_all_load_paths(self, engine, v2_path):
        reference = _index_state(engine.index)
        assert _index_state(load_snapshot(v2_path, mode="copy")) == reference
        assert _index_state(load_snapshot(v2_path, mode="mmap")) == reference

    def test_mmap_load_is_a_mapped_view(self, v2_path):
        index = load_snapshot(v2_path, mode="mmap")
        assert index.mapped_sections > 0
        assert index.mapped_bytes > 0

    def test_search_hits_identical(self, engine, v2_path):
        mapped = SearchEngine.load_snapshot(v2_path, mode="mmap")
        query = SearchQuery(keywords=("flood", "rescue"), limit=20)
        expected = engine.search(query)
        actual = mapped.search(query)
        assert [h.document.doc_id for h in actual] == [
            h.document.doc_id for h in expected
        ]
        assert [h.score for h in actual] == pytest.approx(
            [h.score for h in expected]
        )

    def test_served_bytes_identical_across_tiers(
        self, instance, engine, v2_path
    ):
        reference = _served_bytes(engine, instance)
        for mode in ("copy", "mmap"):
            assert (
                _served_bytes(
                    SearchEngine.load_snapshot(v2_path, mode=mode), instance
                )
                == reference
            ), f"served JSON diverged for {mode} load"

    def test_mapped_index_resnapshots_losslessly(self, v2_path, tmp_path):
        mapped = load_snapshot(v2_path, mode="mmap")
        again = tmp_path / "again.snap"
        save_snapshot(mapped, again)
        assert _index_state(load_snapshot(again, mode="copy")) == _index_state(
            mapped
        )

    def test_fresh_cache_seeded_on_v2_copy_load(self, v2_path):
        # Mapping seeds a fresh cache exactly as copying does: the same
        # token streams, so nothing indexed is ever re-tokenised.
        caches = {}
        for mode in ("copy", "mmap"):
            cache = caches[mode] = TokenCache()
            index = load_snapshot(v2_path, mode=mode, cache=cache)
            assert cache.stats().misses == 0
            texts = [
                index.document(doc_id).text for doc_id in range(len(index))
            ]
            for text in texts:
                cache.tokens(text)
            assert cache.stats().misses == 0, mode
        copied, mapped = caches["copy"], caches["mmap"]
        for text in texts:
            assert mapped.tokens(text) == copied.tokens(text)

    def test_both_modes_serve_identical_bytes_with_fresh_wilson_caches(
        self, instance, v2_path
    ):
        # The serve boot path: a fresh Wilson whose cache the load
        # seeds. Copy and mmap boots must serve the same bytes.
        served = {}
        for mode in ("copy", "mmap"):
            wilson = Wilson(WilsonConfig())
            engine = SearchEngine.load_snapshot(
                v2_path, cache=wilson.cache, mode=mode
            )
            system = RealTimeTimelineSystem(
                engine=engine, wilson=wilson, cache=wilson.cache
            )
            start, end = instance.corpus.window
            served[mode] = canonical_json(
                system.generate_timeline(
                    instance.corpus.query, start=start, end=end,
                    num_dates=5, num_sentences=2,
                ).timeline.to_dict()
            )
        assert served["mmap"] == served["copy"]


class TestReadOnlySemantics:
    def test_mapped_index_refuses_mutation(self, v2_path):
        mapped = load_snapshot(v2_path, mode="mmap")
        import datetime

        day = datetime.date(2024, 1, 1)
        with pytest.raises(TypeError, match="read-only"):
            mapped.add("New sentence.", day, day)

    def test_section_table_refuses_v1(self, tmp_path):
        # Files of the retired npz format are refused, never misread;
        # `snapshot` rebuilds them from the corpus.
        v1_path = tmp_path / "index.v1.snap"
        header = {"meta": "wilson.snapshot/v1", "format_version": 1}
        v1_path.write_bytes(json.dumps(header).encode() + b"\nPK\x03\x04")
        with pytest.raises(SnapshotError, match="wilson.snapshot/v2"):
            SectionTable(v1_path)
        for mode in ("copy", "mmap"):
            with pytest.raises(SnapshotError, match="wilson.snapshot/v2"):
                load_snapshot(v1_path, mode=mode)

    def test_unknown_mode_rejected(self, v2_path):
        with pytest.raises(ValueError, match="mode"):
            load_snapshot(v2_path, mode="slurp")


class TestCorruption:
    def test_truncated_section_rejected(self, v2_path, tmp_path):
        truncated = tmp_path / "truncated.snap"
        raw = v2_path.read_bytes()
        truncated.write_bytes(raw[: len(raw) - 4096])
        with pytest.raises(SnapshotError, match="overruns|truncated"):
            load_snapshot(truncated, mode="mmap")

    def test_flipped_payload_byte_fails_checksum_eagerly_on_copy(
        self, v2_path, tmp_path
    ):
        path = _flip_section_byte(v2_path, tmp_path, "texts_buf")
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(path, mode="copy")

    def test_flipped_payload_byte_fails_checksum_with_verify(
        self, v2_path, tmp_path
    ):
        path = _flip_section_byte(v2_path, tmp_path, "doc_dates")
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(path, mode="mmap", verify=True)

    def test_lazy_mmap_detects_corruption_on_section_access(
        self, v2_path, tmp_path
    ):
        path = _flip_section_byte(v2_path, tmp_path, "doc_lengths")
        # Lazy mode maps fine; the checksum trips on first access of the
        # damaged section.
        mapped = load_snapshot(path, mode="mmap")
        with pytest.raises(SnapshotError, match="doc_lengths"):
            mapped.total_length

    def test_tampered_offset_rejected(self, v2_path, tmp_path):
        def push_section_past_eof(header):
            descriptor = header["sections"]["doc_dates"]
            descriptor["offset"] = header["payload_bytes"] * 8

        path = _header_copy(v2_path, tmp_path, push_section_past_eof)
        with pytest.raises(SnapshotError, match="overruns"):
            load_snapshot(path, mode="mmap")

    def test_misaligned_offset_rejected(self, v2_path, tmp_path):
        def nudge(header):
            header["sections"]["doc_dates"]["offset"] += 1

        path = _header_copy(v2_path, tmp_path, nudge)
        with pytest.raises(SnapshotError, match="misaligned"):
            load_snapshot(path, mode="mmap")

    def test_missing_section_rejected(self, v2_path, tmp_path):
        def drop(header):
            del header["sections"]["doc_dates"]

        path = _header_copy(v2_path, tmp_path, drop)
        with pytest.raises(SnapshotError, match="missing sections"):
            load_snapshot(path, mode="mmap")

    def test_malformed_descriptor_rejected(self, v2_path, tmp_path):
        def mangle(header):
            header["sections"]["doc_dates"] = {"offset": 0}

        path = _header_copy(v2_path, tmp_path, mangle)
        with pytest.raises(SnapshotError, match="malformed"):
            load_snapshot(path, mode="mmap")

    def test_failed_load_leaves_no_partial_state(self, v2_path, tmp_path):
        # A corrupt payload must not seed the cache it was given.
        path = _flip_section_byte(v2_path, tmp_path, "tok_ids")
        cache = TokenCache()
        with pytest.raises(SnapshotError):
            load_snapshot(path, mode="copy", cache=cache)
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0

    def test_section_table_verify_is_memoized(self, v2_path):
        table = SectionTable(v2_path)
        try:
            table.verify("doc_dates")
            assert "doc_dates" in table._verified
            table.verify("doc_dates")  # second call is a no-op
            array = table.array("doc_dates")
            assert not array.flags.writeable
            # Views alias the mapping: drop them before close() (which
            # would otherwise refuse with BufferError).
            del array
        finally:
            table.close()


class TestAtomicWrites:
    def test_overwriting_a_mapped_snapshot_leaves_the_mapping_intact(
        self, engine, tmp_path
    ):
        # A server maps the snapshot; a larger, different index is then
        # saved to the same path. The rename swaps in a new inode, so
        # the mapping keeps serving its own documents.
        import datetime

        path = tmp_path / "live.snap"
        engine.save_snapshot(path)
        mapped = load_snapshot(path, mode="mmap")
        day = datetime.date(2024, 1, 1)
        bigger = InvertedIndex()
        for number in range(2 * len(engine.index)):
            bigger.add(f"Unrelated filler report number {number}.", day, day)
        old_size = path.stat().st_size
        save_snapshot(bigger, path)
        assert path.stat().st_size > old_size
        assert len(load_snapshot(path, mode="mmap")) == len(bigger)
        assert _index_state(mapped) == _index_state(engine.index)

    def test_failed_write_keeps_the_old_file_and_no_temporary(
        self, engine, tmp_path, monkeypatch
    ):
        import os

        path = tmp_path / "index.snap"
        engine.save_snapshot(path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            save_snapshot(InvertedIndex(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["index.snap"]

    def test_temporary_name_is_never_listed_as_a_segment(self, tmp_path):
        from repro.ingest.segment import list_segments
        from repro.search.snapshot import replacing

        with replacing(tmp_path / "segment-000001.seg") as tmp:
            tmp.write_bytes(b"partial")
            assert tmp.parent == tmp_path
            assert list_segments(tmp_path) == []
        assert list_segments(tmp_path) == [tmp_path / "segment-000001.seg"]
