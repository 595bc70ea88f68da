"""Binary index snapshots: round-trip exactness, corruption handling.

The contract under test (docs/serving.md "Cold start & snapshots"):

* loading a snapshot reconstructs the *identical* index state the source
  index was built with -- postings, documents, date buckets,
  ``index_version`` -- and therefore identical search hits and served
  timeline JSON;
* a fresh :class:`~repro.text.analysis.TokenCache` passed to the loader
  is pre-seeded so the first query pays zero tokenisation;
* any corruption (bad magic, truncated header, flipped payload byte,
  wrong format version, analyzer mismatch) raises
  :class:`~repro.search.snapshot.SnapshotError` -- never a crash, never
  a silently wrong index.
"""

import datetime

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex
from repro.search.query import SearchQuery
from repro.search.snapshot import (
    SNAPSHOT_FORMAT_VERSION_V2,
    SNAPSHOT_MAGIC_V2,
    SnapshotError,
    load_snapshot,
    save_snapshot,
    snapshot_info,
)
from repro.serve import canonical_json
from repro.search.realtime import RealTimeTimelineSystem
from repro.text.analysis import TokenCache
from repro.tlsdata.synthetic import SyntheticConfig, SyntheticCorpusGenerator
from tests.conftest import d


@pytest.fixture(scope="module")
def instance():
    config = SyntheticConfig(
        topic="snapshot-test",
        theme="conflict",
        seed=13,
        duration_days=45,
        num_events=8,
        num_major_events=4,
        num_articles=14,
        sentences_per_article=6,
    )
    return SyntheticCorpusGenerator(config).generate()


@pytest.fixture(scope="module")
def engine(instance):
    engine = SearchEngine(cache=TokenCache())
    engine.add_articles(instance.corpus.articles)
    return engine


@pytest.fixture(scope="module")
def snapshot_path(engine, tmp_path_factory):
    path = tmp_path_factory.mktemp("snap") / "index.snap"
    engine.save_snapshot(path)
    return path


def _assert_same_index(restored: InvertedIndex, reference: InvertedIndex):
    assert len(restored) == len(reference)
    assert restored.index_version == reference.index_version
    assert restored._postings == reference._postings
    assert restored._by_date == reference._by_date
    assert restored._doc_lengths == reference._doc_lengths
    assert restored._total_length == reference._total_length
    for doc_id in range(len(reference)):
        assert restored.document(doc_id) == reference.document(doc_id)


class TestRoundTrip:
    def test_index_state_identical_to_source_index(
        self, engine, snapshot_path
    ):
        restored = InvertedIndex.load_snapshot(snapshot_path)
        _assert_same_index(restored, engine.index)

    def test_search_hits_identical(self, engine, snapshot_path):
        restored = SearchEngine.load_snapshot(snapshot_path)
        assert restored.num_articles == engine.num_articles
        query = SearchQuery(keywords=("clash", "government"), limit=20)
        expected = engine.search(query)
        actual = restored.search(query)
        assert [h.document.doc_id for h in actual] == [
            h.document.doc_id for h in expected
        ]
        assert [h.score for h in actual] == pytest.approx(
            [h.score for h in expected]
        )

    def test_fresh_cache_is_fully_seeded(self, engine, snapshot_path):
        cache = TokenCache()
        index = load_snapshot(snapshot_path, cache=cache)
        stats = cache.stats()
        assert stats.misses == 0
        # Every indexed text tokenises from the cache, and the streams
        # match what the analyzer would produce from scratch.
        reference = TokenCache()
        for doc_id in range(len(index)):
            text = index.document(doc_id).text
            assert cache.tokens(text) == reference.tokens(text)
        assert cache.stats().misses == 0

    def test_served_timeline_json_identical(
        self, instance, engine, snapshot_path
    ):
        def serve(engine):
            # Each pipeline gets its own fresh token cache, so token ids
            # are interned in the same order on both sides.
            system = RealTimeTimelineSystem(engine=engine)
            start, end = instance.corpus.window
            return canonical_json(
                system.generate_timeline(
                    instance.corpus.query, start=start, end=end,
                    num_dates=5, num_sentences=2,
                ).timeline.to_dict()
            )

        assert serve(SearchEngine.load_snapshot(snapshot_path)) == serve(
            engine
        )

    def test_empty_index_preserves_version(self, tmp_path):
        empty = InvertedIndex()
        empty._version = 11
        path = tmp_path / "empty.snap"
        save_snapshot(empty, path)
        restored = load_snapshot(path)
        assert len(restored) == 0
        assert restored.index_version == 11
        restored.add("Late news.", d("2020-03-01"), d("2020-03-01"))
        assert restored.index_version == 12

    def test_info_reads_header_only(self, engine, snapshot_path):
        info = snapshot_info(snapshot_path)
        assert info["meta"] == SNAPSHOT_MAGIC_V2
        assert info["format_version"] == SNAPSHOT_FORMAT_VERSION_V2
        assert info["documents"] == len(engine.index)
        assert info["vocabulary"] == engine.index.vocabulary_size()
        assert info["index_version"] == engine.index_version
        assert info["articles"] == engine.num_articles

    @given(
        docs=st.lists(
            st.tuples(
                st.lists(
                    st.sampled_from(
                        "ceasefire collapse rebels seized border talks "
                        "storm flood rescue aid".split()
                    ),
                    min_size=1,
                    max_size=8,
                ),
                st.integers(min_value=0, max_value=40),
            ),
            min_size=0,
            max_size=12,
        )
    )
    @settings(
        max_examples=20,
        deadline=None,
        # tmp_path is reused across examples; distinct filenames below
        # keep the examples independent anyway.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_property_round_trip_matches_source(self, docs, tmp_path):
        index = InvertedIndex()
        base = d("2021-05-01")
        for tokens, offset in docs:
            date = base + datetime.timedelta(days=offset)
            index.add(
                " ".join(tokens).capitalize() + ".",
                date,
                base,
                article_id=f"a{offset % 3}",
                is_reference=offset % 2 == 0,
            )
        snap = tmp_path / "prop.snap"
        save_snapshot(index, snap)
        _assert_same_index(load_snapshot(snap), index)


class TestCorruption:
    def _bytes(self, snapshot_path):
        return snapshot_path.read_bytes()

    def test_wrong_magic(self, snapshot_path, tmp_path):
        raw = self._bytes(snapshot_path)
        bad = tmp_path / "magic.snap"
        bad.write_bytes(
            raw.replace(SNAPSHOT_MAGIC_V2.encode(), b"wilson.other/v9", 1)
        )
        with pytest.raises(SnapshotError, match="not a wilson.snapshot"):
            load_snapshot(bad)

    def test_unsupported_format_version(self, snapshot_path, tmp_path):
        raw = self._bytes(snapshot_path)
        header, _, payload = raw.partition(b"\n")
        import json

        meta = json.loads(header)
        meta["format_version"] = SNAPSHOT_FORMAT_VERSION_V2 + 1
        bad = tmp_path / "version.snap"
        bad.write_bytes(json.dumps(meta).encode() + b"\n" + payload)
        with pytest.raises(SnapshotError, match="format_version"):
            load_snapshot(bad)

    def test_truncated_header(self, tmp_path):
        bad = tmp_path / "truncated.snap"
        bad.write_bytes(b'{"meta": "wilson.snapshot/v2"')
        with pytest.raises(SnapshotError, match="header"):
            load_snapshot(bad)

    def test_header_not_json(self, tmp_path):
        bad = tmp_path / "garbage.snap"
        bad.write_bytes(b"\x00\x01garbage\n more garbage")
        with pytest.raises(SnapshotError):
            load_snapshot(bad)

    def test_flipped_payload_byte_fails_checksum(
        self, snapshot_path, tmp_path
    ):
        raw = bytearray(self._bytes(snapshot_path))
        raw[-10] ^= 0xFF
        bad = tmp_path / "flipped.snap"
        bad.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum|sha256"):
            load_snapshot(bad)

    def test_truncated_payload(self, snapshot_path, tmp_path):
        raw = self._bytes(snapshot_path)
        bad = tmp_path / "short.snap"
        bad.write_bytes(raw[: len(raw) - 64])
        with pytest.raises(SnapshotError):
            load_snapshot(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_snapshot(tmp_path / "absent.snap")
        with pytest.raises(SnapshotError):
            snapshot_info(tmp_path / "absent.snap")

    def test_analyzer_mismatch_rejected(self, snapshot_path):
        with pytest.raises(SnapshotError, match="analyzer"):
            load_snapshot(snapshot_path, cache=TokenCache(stem=False))

    def test_corruption_never_partially_loads(
        self, snapshot_path, tmp_path
    ):
        # A byte flipped mid-postings refuses the whole load and leaves
        # the given cache untouched -- the serve boot pattern (try the
        # snapshot, fall back to re-indexing) never sees a broken index.
        raw = bytearray(self._bytes(snapshot_path))
        header_len = raw.index(b"\n") + 1
        data_start = -(-header_len // 4096) * 4096
        section = snapshot_info(snapshot_path)["sections"]["post_doc_ids"]
        middle = section["offset"] + 8 * (section["shape"][0] // 2)
        raw[data_start + middle] ^= 0x55
        bad = tmp_path / "half.snap"
        bad.write_bytes(bytes(raw))
        cache = TokenCache()
        with pytest.raises(SnapshotError):
            SearchEngine.load_snapshot(bad, cache=cache)
        assert len(cache) == 0
