"""Tests for the SearchEngine facade and the real-time system."""

import pytest

from repro.search.engine import SearchEngine
from repro.search.query import SearchQuery
from repro.search.realtime import RealTimeTimelineSystem
from repro.tlsdata.types import Article
from tests.conftest import d


@pytest.fixture()
def engine(small_corpus):
    engine = SearchEngine()
    engine.add_articles(small_corpus.articles)
    return engine


class TestIngestion:
    def test_counts(self, engine):
        assert engine.num_articles == 2
        assert engine.num_indexed_sentences > 4  # pub + reference entries

    def test_reference_sentences_indexed_under_mentioned_date(self, engine):
        # Article a2 (published 03-06) mentions March 1, 2020.
        docs = engine.index.documents_on(d("2020-03-01"))
        reference_docs = [doc for doc in docs if doc.is_reference]
        assert any("March 1" in doc.text for doc in reference_docs)

    def test_incremental_insert(self, engine):
        before = engine.num_indexed_sentences
        engine.add_article(
            Article(
                "a3",
                d("2020-03-08"),
                text="Fresh talks about the ceasefire began.",
            )
        )
        assert engine.num_indexed_sentences > before
        hits = engine.search(SearchQuery(keywords=("fresh talks",)))
        assert hits


class TestFetchDatedSentences:
    def test_returns_dated_sentences(self, engine):
        dated = engine.fetch_dated_sentences(
            ("ceasefire",), d("2020-03-01"), d("2020-03-10")
        )
        assert dated
        for sentence in dated:
            assert d("2020-03-01") <= sentence.date <= d("2020-03-10")

    def test_respects_limit(self, engine):
        dated = engine.fetch_dated_sentences(
            ("the",), d("2020-03-01"), d("2020-03-10"), limit=2
        )
        assert len(dated) <= 2


class TestRealTimeSystem:
    def test_end_to_end(self, tiny_instance):
        system = RealTimeTimelineSystem()
        system.ingest(tiny_instance.corpus.articles)
        start, end = tiny_instance.corpus.window
        response = system.generate_timeline(
            tiny_instance.corpus.query, start, end,
            num_dates=5, num_sentences=1,
        )
        assert 1 <= len(response.timeline) <= 5
        assert response.num_candidates > 0
        assert response.total_seconds == pytest.approx(
            response.retrieval_seconds + response.generation_seconds
        )

    def test_no_hits_yields_empty_timeline(self):
        system = RealTimeTimelineSystem()
        response = system.generate_timeline(
            ("nonexistent",), d("2020-01-01"), d("2020-02-01")
        )
        assert len(response.timeline) == 0
        assert response.num_candidates == 0

    def test_new_articles_change_results(self, tiny_instance):
        system = RealTimeTimelineSystem()
        system.ingest(tiny_instance.corpus.articles[:10])
        start, end = tiny_instance.corpus.window
        first = system.generate_timeline(
            tiny_instance.corpus.query, start, end, num_dates=5
        )
        system.ingest(tiny_instance.corpus.articles[10:])
        second = system.generate_timeline(
            tiny_instance.corpus.query, start, end, num_dates=5
        )
        assert second.num_candidates >= first.num_candidates


class TestEnginePersistence:
    def test_save_load_roundtrip(self, engine, tmp_path):
        path = tmp_path / "engine.snap"
        engine.save_snapshot(path)
        restored = SearchEngine.load_snapshot(path)
        assert restored.num_indexed_sentences == (
            engine.num_indexed_sentences
        )
        assert restored.num_articles == engine.num_articles
        original = engine.search(SearchQuery(keywords=("ceasefire",)))
        reloaded = restored.search(SearchQuery(keywords=("ceasefire",)))
        assert [h.document.text for h in original] == [
            h.document.text for h in reloaded
        ]

    def test_index_version_survives_round_trip(self, engine, tmp_path):
        version = engine.index_version
        assert version == engine.num_indexed_sentences > 0
        path = tmp_path / "engine.snap"
        engine.save_snapshot(path)
        restored = SearchEngine.load_snapshot(path)
        assert restored.index_version == version


class TestSuggestWindow:
    def test_bursty_corpus_yields_window(self, tiny_instance):
        from repro.search.realtime import RealTimeTimelineSystem

        system = RealTimeTimelineSystem()
        system.ingest(tiny_instance.corpus.articles)
        window = system.suggest_window()
        start, end = tiny_instance.corpus.window
        if window is not None:
            assert start <= window[0] <= window[1] <= end

    def test_empty_system_returns_none(self):
        from repro.search.realtime import RealTimeTimelineSystem

        assert RealTimeTimelineSystem().suggest_window() is None
