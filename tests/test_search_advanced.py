"""Tests for the advanced search features: phrases, AND mode,
persistence, positional postings and date histograms."""

import pytest

from repro.search.index import InvertedIndex
from repro.search.query import SearchQuery, execute
from tests.conftest import d


@pytest.fixture()
def index():
    idx = InvertedIndex()
    idx.add("The ceasefire collapsed near the border.",
            d("2020-01-01"), d("2020-01-01"), "a1")
    idx.add("Rebels broke the ceasefire; the sudden collapse of talks followed.",
            d("2020-01-03"), d("2020-01-03"), "a2")
    idx.add("Border patrols reported a collapsed bridge.",
            d("2020-01-05"), d("2020-01-05"), "a3")
    idx.add("Markets rallied on stimulus hopes.",
            d("2020-01-09"), d("2020-01-09"), "a4")
    return idx


class TestPositionalPostings:
    def test_positions_recorded(self, index):
        # "ceasefir collaps border" are the content stems of doc 0.
        assert index.positions("ceasefir", 0) == [0]
        assert index.positions("collaps", 0) == [1]

    def test_positions_missing(self, index):
        assert index.positions("ceasefir", 3) == []
        assert index.positions("zzz", 0) == []

    def test_postings_tf_from_positions(self):
        idx = InvertedIndex()
        idx.add("ceasefire ceasefire ceasefire",
                d("2020-01-01"), d("2020-01-01"))
        assert idx.postings("ceasefir") == {0: 3}

    def test_phrase_match(self, index):
        # Phrase semantics operate on the *content-token* stream
        # (stopwords removed): doc 0 has "ceasefir collaps" consecutive;
        # doc 1 has "sudden" in between.
        assert index.phrase_match(["ceasefir", "collaps"], 0)
        assert not index.phrase_match(["ceasefir", "collaps"], 1)

    def test_phrase_match_empty(self, index):
        assert not index.phrase_match([], 0)


class TestBooleanModes:
    def test_or_mode_default(self, index):
        hits = execute(
            index, SearchQuery(keywords=("ceasefire", "markets"))
        )
        assert len(hits) == 3  # docs 0, 1, 3

    def test_and_mode_restricts(self, index):
        hits = execute(
            index,
            SearchQuery(
                keywords=("ceasefire", "collapsed"), mode="all"
            ),
        )
        # "collapsed"/"collapse" stem together: docs 0 and 1 have both.
        ids = {h.document.doc_id for h in hits}
        assert ids == {0, 1}

    def test_and_mode_no_common_doc(self, index):
        hits = execute(
            index,
            SearchQuery(keywords=("ceasefire", "markets"), mode="all"),
        )
        assert hits == []

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SearchQuery(keywords=("x",), mode="fuzzy")

    def test_phrase_query(self, index):
        hits = execute(
            index,
            SearchQuery(
                keywords=("ceasefire collapsed",), phrase=True
            ),
        )
        assert [h.document.doc_id for h in hits] == [0]

    def test_phrase_with_window(self, index):
        hits = execute(
            index,
            SearchQuery(
                keywords=("ceasefire collapsed",),
                phrase=True,
                start=d("2020-01-02"),
                end=d("2020-01-31"),
            ),
        )
        assert hits == []


class TestDateHistogram:
    def test_daily_buckets(self, index):
        histogram = index.date_histogram(interval_days=1)
        assert histogram[d("2020-01-01")] == 1
        assert histogram[d("2020-01-09")] == 1
        assert sum(histogram.values()) == 4

    def test_weekly_buckets(self, index):
        histogram = index.date_histogram(interval_days=7)
        # Jan 1-7 bucket holds docs 0-2; Jan 8-14 holds doc 3.
        assert histogram[d("2020-01-01")] == 3
        assert histogram[d("2020-01-08")] == 1

    def test_window_restriction(self, index):
        histogram = index.date_histogram(
            interval_days=1, start=d("2020-01-02"), end=d("2020-01-06")
        )
        assert sum(histogram.values()) == 2

    def test_empty_index(self):
        assert InvertedIndex().date_histogram() == {}

    def test_invalid_interval(self, index):
        with pytest.raises(ValueError):
            index.date_histogram(interval_days=0)


class TestPersistence:
    def test_roundtrip(self, index, tmp_path):
        path = tmp_path / "index.snap"
        index.save_snapshot(path)
        restored = InvertedIndex.load_snapshot(path)
        assert restored.num_documents == index.num_documents
        assert restored.vocabulary_size() == index.vocabulary_size()
        assert restored.average_length == index.average_length
        for doc_id in range(index.num_documents):
            assert restored.document(doc_id) == index.document(doc_id)

    def test_restored_index_answers_queries(self, index, tmp_path):
        path = tmp_path / "index.snap"
        index.save_snapshot(path)
        restored = InvertedIndex.load_snapshot(path)
        original = execute(index, SearchQuery(keywords=("ceasefire",)))
        reloaded = execute(
            restored, SearchQuery(keywords=("ceasefire",))
        )
        assert [h.document.text for h in original] == [
            h.document.text for h in reloaded
        ]
        assert [h.score for h in original] == pytest.approx(
            [h.score for h in reloaded]
        )

    def test_restored_index_is_incremental(self, index, tmp_path):
        path = tmp_path / "index.snap"
        index.save_snapshot(path)
        restored = InvertedIndex.load_snapshot(path)
        restored.add("A fresh ceasefire development.",
                     d("2020-02-01"), d("2020-02-01"))
        hits = execute(restored, SearchQuery(keywords=("ceasefire",)))
        assert len(hits) == 3

    def test_save_creates_parent_dirs(self, index, tmp_path):
        path = tmp_path / "deep" / "nested" / "index.snap"
        index.save_snapshot(path)
        assert path.exists()
