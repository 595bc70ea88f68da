"""Failure-injection and degenerate-input robustness tests.

These exercise the paths a downstream user hits with messy data:
corrupted files, unicode text, degenerate corpora (one day, one
sentence, all-identical sentences), and extreme parameter choices.
"""

import json

import pytest

from repro.core.pipeline import Wilson, WilsonConfig
from repro.core.variants import wilson_full
from repro.evaluation.timeline_rouge import concat_rouge
from repro.search.engine import SearchEngine
from repro.search.query import SearchQuery
from repro.tlsdata.loaders import load_corpus, save_corpus
from repro.tlsdata.types import Article, Corpus, DatedSentence, Timeline
from tests.conftest import d


class TestDegeneratePools:
    def test_single_sentence_corpus(self):
        pool = [DatedSentence(d("2020-01-01"), "Only one sentence here.",
                              d("2020-01-01"))]
        timeline = wilson_full(5, 3).summarize(pool)
        assert len(timeline) == 1
        assert timeline.num_sentences() == 1

    def test_all_sentences_same_day(self):
        day = d("2020-01-01")
        pool = [
            DatedSentence(day, f"Distinct sentence number {i} here.", day)
            for i in range(10)
        ]
        timeline = wilson_full(5, 2).summarize(pool)
        assert timeline.dates == [day]
        assert len(timeline.summary(day)) <= 2

    def test_all_identical_sentences(self):
        day1, day2 = d("2020-01-01"), d("2020-01-05")
        text = "The exact same sentence repeats everywhere."
        pool = [
            DatedSentence(day, text, day)
            for day in (day1, day1, day2, day2)
        ]
        timeline = wilson_full(2, 2).summarize(pool)
        # Post-processing must not crash on total redundancy, and must
        # keep at most one copy overall.
        assert timeline.num_sentences() >= 1
        assert timeline.num_sentences() <= 2

    def test_requesting_more_dates_than_exist(self):
        pool = [
            DatedSentence(d("2020-01-01"), "Alpha sentence one.",
                          d("2020-01-01")),
            DatedSentence(d("2020-01-05"), "Beta sentence two.",
                          d("2020-01-05")),
        ]
        timeline = wilson_full(50, 5).summarize(pool)
        assert len(timeline) <= 2

    def test_no_references_at_all(self):
        """A corpus without a single date mention still yields a timeline
        (the graph has nodes but no edges; restart mass decides)."""
        pool = [
            DatedSentence(
                d("2020-01-01") .replace(day=1 + i),
                f"Plain sentence {i} with no dates.",
                d("2020-01-01").replace(day=1 + i),
            )
            for i in range(6)
        ]
        timeline = wilson_full(3, 1).summarize(pool)
        assert 1 <= len(timeline) <= 3


class TestUnicodeAndNoise:
    def test_unicode_text_end_to_end(self):
        corpus = Corpus(
            topic="unicode",
            query=("élysée",),
            start=d("2021-01-01"),
            end=d("2021-01-31"),
            articles=[
                Article(
                    "u1",
                    d("2021-01-05"),
                    text=(
                        "Le sommet de l'Élysée s'est tenu hier — « un "
                        "succès », selon Paris. Das Treffen fand am "
                        "January 4, 2021 statt."
                    ),
                ),
            ],
        )
        timeline = Wilson(
            WilsonConfig(num_dates=2, sentences_per_date=1)
        ).summarize_corpus(corpus)
        assert len(timeline) >= 1

    def test_control_characters_tolerated(self):
        pool = [
            DatedSentence(d("2020-01-01"), "Normal sentence here.",
                          d("2020-01-01")),
            DatedSentence(d("2020-01-01"), "Weird\x00characters\x01here.",
                          d("2020-01-01")),
        ]
        timeline = wilson_full(1, 2).summarize(pool)
        assert len(timeline) == 1

    def test_very_long_sentence(self):
        long_sentence = " ".join(f"token{i}" for i in range(3000)) + "."
        pool = [
            DatedSentence(d("2020-01-01"), long_sentence, d("2020-01-01")),
            DatedSentence(d("2020-01-01"), "A short sentence too.",
                          d("2020-01-01")),
        ]
        timeline = wilson_full(1, 2).summarize(pool)
        assert timeline.num_sentences() >= 1


class TestCorruptFiles:
    def test_corpus_with_blank_lines(self, tmp_path):
        corpus = Corpus(
            topic="x",
            articles=[Article("a", d("2020-01-01"), text="One line.")],
        )
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        content = path.read_text(encoding="utf-8")
        path.write_text("\n" + content + "\n\n", encoding="utf-8")
        loaded = load_corpus(path)
        assert len(loaded.articles) == 1

    def test_corpus_with_garbage_line_raises_cleanly(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"header": {"topic": "x"}}\nNOT JSON AT ALL\n',
            encoding="utf-8",
        )
        with pytest.raises(json.JSONDecodeError):
            load_corpus(path)


class TestExtremeParameters:
    def test_threshold_near_zero_still_terminates(self):
        pool = [
            DatedSentence(d("2020-01-01"), "Shared topical words here.",
                          d("2020-01-01")),
            DatedSentence(d("2020-01-05"), "Shared topical words again.",
                          d("2020-01-05")),
        ]
        wilson = Wilson(
            WilsonConfig(
                num_dates=2,
                sentences_per_date=2,
                redundancy_threshold=0.01,
            )
        )
        timeline = wilson.summarize(pool)
        # Nearly everything is "redundant"; the loop must still end.
        assert timeline.num_sentences() >= 1

    def test_huge_sentence_budget(self, tiny_pool):
        timeline = wilson_full(5, 100).summarize(tiny_pool)
        for date in timeline.dates:
            assert len(timeline.summary(date)) <= 100

    def test_empty_query_everywhere(self, tiny_pool):
        timeline = wilson_full(5, 1).summarize(tiny_pool, query=())
        assert len(timeline) >= 1


class TestSearchRobustness:
    def test_query_with_only_punctuation(self):
        engine = SearchEngine()
        engine.add_article(
            Article("a", d("2020-01-01"), text="Something happened.")
        )
        assert engine.search(SearchQuery(keywords=("!!!", "..."))) == []

    def test_evaluation_of_empty_timeline(self, tiny_instance):
        score = concat_rouge(Timeline(), tiny_instance.reference, 2)
        assert score.f1 == 0.0
