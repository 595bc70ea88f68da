"""Equivalence guarantees of the perf paths.

The shared analysis cache, the vectorised redundancy check and the
parallel daily summariser are pure optimisations: every one of them must
produce byte-identical timelines to a fresh, sequential run. The cache
in particular only memoises token streams, so a timeline is a function
of its candidates and configuration, whatever the process tokenised
before -- including a cache seeded from a snapshot.
"""

import dataclasses
import datetime
import functools
import itertools

import pytest

from repro.core.daily import DailySummarizer
from repro.core.pipeline import Wilson, WilsonConfig
from repro.core.postprocess import assemble_timeline
from repro.search.engine import SearchEngine
from repro.search.realtime import RealTimeTimelineSystem
from repro.serve.app import canonical_json
from repro.text.analysis import TokenCache
from repro.tlsdata.synthetic import (
    SyntheticConfig,
    SyntheticCorpusGenerator,
    make_timeline17_like,
)

SEEDS = [3, 11, 29]


@functools.lru_cache(maxsize=None)
def _pool(seed: int):
    config = SyntheticConfig(
        topic=f"equiv-{seed}",
        theme="disaster",
        seed=seed,
        duration_days=45,
        num_events=10,
        num_major_events=5,
        num_articles=30,
        sentences_per_article=8,
        reference_sentences_per_date=2,
    )
    instance = SyntheticCorpusGenerator(config).generate()
    return instance.corpus.dated_sentences()


@pytest.fixture(scope="module", params=SEEDS)
def pool(request):
    return _pool(request.param)


def _warmed(config: WilsonConfig, pool, query=()) -> Wilson:
    """A pipeline whose shared cache already served every other pool."""
    wilson = Wilson(config)
    for seed in SEEDS:
        if _pool(seed) is not pool:
            wilson.summarize(_pool(seed), query=query)
    return wilson


class TestCachedPipelineEquivalence:
    def test_cached_matches_uncached(self, pool):
        config = WilsonConfig(num_dates=6)
        warm = _warmed(config, pool).summarize(pool)
        assert warm == Wilson(config).summarize(pool)

    def test_repeat_runs_stay_identical(self, pool):
        wilson = Wilson(WilsonConfig(num_dates=6))
        cold = wilson.summarize(pool)
        warm = wilson.summarize(pool)
        assert warm == cold

    def test_query_biased_variant_matches(self, pool):
        query = ("flood", "evacuation")
        config = WilsonConfig(num_dates=5, edge_weight="W4", query_bias=0.3)
        warm = _warmed(config, pool, query).summarize(pool, query=query)
        assert warm == Wilson(config).summarize(pool, query=query)


class TestSeededCacheEquivalence:
    """A cache seeded from a snapshot ranks exactly like a fresh one.

    The corpus merges every timeline17-like instance the way the
    repository benchmark does. Loading its snapshot seeds the cache with
    every indexed text in snapshot order. Each request below has a day
    whose best sentences are near-tied: when BM25 numbered tokens by
    the order the process first saw them, the seeded and the fresh
    pipeline served different sentences for it (2011-03-15 and
    2011-06-14 respectively).
    """

    @pytest.fixture(scope="class")
    def seeded(self, tmp_path_factory):
        dataset = make_timeline17_like(scale=0.02, seed=17)
        articles = sorted(
            (
                dataclasses.replace(
                    article,
                    article_id=f"{instance.name}/{article.article_id}",
                )
                for instance in dataset.instances
                for article in instance.corpus.articles
            ),
            key=lambda a: (a.publication_date, a.article_id),
        )
        assert len(articles) == 570
        source = SearchEngine()
        source.add_articles(articles)
        path = tmp_path_factory.mktemp("merged") / "index.snap"
        source.save_snapshot(path)
        wilson = Wilson()
        engine = SearchEngine.load_snapshot(
            path, cache=wilson.cache, mode="mmap"
        )
        return wilson, engine

    @pytest.mark.parametrize(
        "keywords,start,end,num_candidates",
        [
            (("yilmaz", "klein"), "2011-02-08", "2011-04-08", 140),
            (("duarte",), "2011-02-21", "2011-08-26", 75),
        ],
    )
    def test_seeded_cache_matches_fresh_wilson(
        self, seeded, keywords, start, end, num_candidates
    ):
        wilson, engine = seeded
        candidates = engine.fetch_dated_sentences(
            keywords,
            start=datetime.date.fromisoformat(start),
            end=datetime.date.fromisoformat(end),
            limit=5000,
        )
        assert len(candidates) == num_candidates
        served = [
            canonical_json(
                pipeline.summarize(
                    candidates, num_dates=10, num_sentences=1,
                    query=keywords,
                ).to_dict()
            )
            for pipeline in (wilson, Wilson())
        ]
        assert served[0] == served[1]

    def test_queries_never_grow_the_cache(self, seeded):
        # The seeded cache already holds every indexed text; query
        # strings are analysed beside it, so serving 50 distinct
        # requests adds no entry.
        wilson, engine = seeded
        system = RealTimeTimelineSystem(
            engine=engine, wilson=wilson, cache=wilson.cache
        )
        words = ("yilmaz", "klein", "duarte", "offensive", "toure",
                 "weber", "government", "rescue", "talks", "attack")
        queries = list(itertools.combinations(words, 2)) + [
            (word,) for word in words[:5]
        ]
        dates = engine.index.dates()
        before = len(wilson.cache)
        for k, keywords in enumerate(queries):
            start = dates[(k * 7) % (len(dates) // 2)]
            system.generate_timeline(
                keywords,
                start=start,
                end=start + datetime.timedelta(days=30 + k),
                num_dates=5,
                num_sentences=1,
            )
        assert len(wilson.cache) == before


class TestVectorizedPostprocessEquivalence:
    # RankedDay consumption is stateful (pop() advances a cursor), so
    # each assemble_timeline call gets freshly ranked days.

    @staticmethod
    def _days(pool):
        return DailySummarizer().rank_days(
            pool, sorted({s.date for s in pool})
        )

    def test_vectorized_matches_legacy(self, pool):
        legacy = assemble_timeline(self._days(pool), 2, vectorized=False)
        vectorized = assemble_timeline(
            self._days(pool), 2, vectorized=True
        )
        assert vectorized == legacy

    def test_vectorized_matches_legacy_with_cache(self, pool):
        legacy = assemble_timeline(self._days(pool), 3, vectorized=False)
        vectorized = assemble_timeline(
            self._days(pool), 3, vectorized=True, cache=TokenCache()
        )
        assert vectorized == legacy


class TestParallelDailyEquivalence:
    def test_workers_match_sequential(self, pool):
        dates = sorted({s.date for s in pool})
        cache = TokenCache()
        sequential = DailySummarizer(cache=cache).rank_days(pool, dates)
        parallel = DailySummarizer(workers=4, cache=cache).rank_days(
            pool, dates
        )
        assert [day.date for day in parallel] == [
            day.date for day in sequential
        ]
        assert [day.sentences for day in parallel] == [
            day.sentences for day in sequential
        ]

    def test_parallel_pipeline_matches_sequential(self, pool):
        sequential = Wilson(WilsonConfig(num_dates=6)).summarize(pool)
        parallel = Wilson(
            WilsonConfig(num_dates=6, daily_workers=4)
        ).summarize(pool)
        assert parallel == sequential
