"""Tests for the shared text-analysis cache (repro.text.analysis)."""

from concurrent.futures import ThreadPoolExecutor

from repro.core.pipeline import Wilson, WilsonConfig
from repro.obs.trace import Tracer
from repro.text.analysis import (
    AnalyzedCorpus,
    CacheStats,
    TokenCache,
    tokenize_with,
)
from repro.text.tokenize import tokenize_for_matching

TEXTS = [
    "The ceasefire collapsed near the border.",
    "Rebels seized the stronghold outside the city.",
    "The ceasefire collapsed near the border.",
    "A truce was signed after lengthy talks.",
]


class TestTokenCache:
    def test_matches_direct_tokenization(self):
        cache = TokenCache()
        for text in TEXTS:
            assert list(cache.tokens(text)) == tokenize_for_matching(text)

    def test_tokenizes_each_distinct_text_once(self):
        cache = TokenCache()
        for text in TEXTS * 3:
            cache.tokens(text)
        stats = cache.stats()
        assert stats.misses == len(set(TEXTS))
        assert stats.hits == len(TEXTS) * 3 - len(set(TEXTS))
        assert len(cache) == len(set(TEXTS))

    def test_repeat_lookup_returns_same_object(self):
        cache = TokenCache()
        first = cache.tokens(TEXTS[0])
        second = cache.tokens(TEXTS[0])
        assert first is second

    def test_tokens_many_aligned(self):
        cache = TokenCache()
        streams = cache.tokens_many(TEXTS)
        assert len(streams) == len(TEXTS)
        assert streams[0] is streams[2]

    def test_respects_normalization_configuration(self):
        cache = TokenCache(stem=False, drop_stopwords=False)
        assert list(cache.tokens(TEXTS[0])) == tokenize_for_matching(
            TEXTS[0], stem=False, drop_stopwords=False
        )

    def test_contains_and_clear(self):
        cache = TokenCache()
        cache.tokens(TEXTS[0])
        assert TEXTS[0] in cache
        cache.clear()
        assert TEXTS[0] not in cache
        assert len(cache) == 0

    def test_stats_delta(self):
        cache = TokenCache()
        cache.tokens(TEXTS[0])
        before = cache.stats()
        cache.tokens(TEXTS[0])
        cache.tokens(TEXTS[1])
        delta = cache.stats().delta(before)
        assert delta.hits == 1
        assert delta.misses == 1
        assert delta.tokenize_seconds >= 0.0

    def test_report_emits_analysis_counters(self):
        cache = TokenCache()
        before = cache.stats()
        cache.tokens_many(TEXTS)
        tracer = Tracer()
        cache.report(tracer, before)
        assert tracer.counters["analysis.cache_hits"] == 1
        assert tracer.counters["analysis.cache_misses"] == 3
        assert tracer.counters["analysis.tokenize_seconds"] >= 0.0

    def test_thread_safe_under_concurrent_lookups(self):
        cache = TokenCache()
        texts = TEXTS * 50
        with ThreadPoolExecutor(max_workers=8) as executor:
            list(executor.map(cache.tokens, texts))
        stats = cache.stats()
        assert len(cache) == len(set(TEXTS))
        assert stats.hits + stats.misses == len(texts)
        # Races may double-tokenise, but the cache never stores twice.
        assert stats.hits >= len(texts) - 2 * len(set(TEXTS))


class TestTokenizeWith:
    def test_none_matches_cache(self):
        cache = TokenCache()
        uncached = tokenize_with(None, TEXTS)
        cached = tokenize_with(cache, TEXTS)
        assert [list(t) for t in cached] == [list(t) for t in uncached]


class TestAnalyzedCorpus:
    def test_token_lists_align_with_sentences(self):
        analyzed = AnalyzedCorpus(TEXTS)
        assert len(analyzed) == len(TEXTS)
        for text, tokens in zip(analyzed.sentences, analyzed.token_lists):
            assert list(tokens) == tokenize_for_matching(text)

    def test_duplicates_share_one_stream(self):
        analyzed = AnalyzedCorpus(TEXTS)
        assert analyzed.num_distinct == len(set(TEXTS))
        assert analyzed.token_lists[0] is analyzed.token_lists[2]

    def test_distinct_order_is_first_seen(self):
        analyzed = AnalyzedCorpus(TEXTS)
        assert analyzed.distinct_texts() == [
            TEXTS[0], TEXTS[1], TEXTS[3],
        ]
        assert analyzed.index_of(TEXTS[1]) == 1
        assert analyzed.tokens_of(TEXTS[3]) == analyzed.token_lists[3]

    def test_uses_shared_cache(self):
        cache = TokenCache()
        AnalyzedCorpus(TEXTS, cache=cache)
        assert cache.stats().misses == len(set(TEXTS))
        AnalyzedCorpus(TEXTS, cache=cache)
        assert cache.stats().misses == len(set(TEXTS))


class TestPipelineCacheSmoke:
    """Tier-1 perf smoke test: counter-based, no wall clocks (satellite 4)."""

    def test_pipeline_reuses_tokenization(self, tiny_pool):
        wilson = Wilson(WilsonConfig(num_dates=5))
        tracer = Tracer()
        wilson.summarize(tiny_pool, tracer=tracer)
        assert wilson.cache is not None
        # Stages overlap on the same sentence texts, so the shared cache
        # must serve hits within a single run...
        assert tracer.counters["analysis.cache_hits"] > 0
        # ...and tokenise each distinct text at most once overall.
        assert tracer.counters["analysis.cache_misses"] == len(wilson.cache)

    def test_second_run_is_fully_warm(self, tiny_pool):
        wilson = Wilson(WilsonConfig(num_dates=5))
        wilson.summarize(tiny_pool)
        tracer = Tracer()
        wilson.summarize(tiny_pool, tracer=tracer)
        assert tracer.counters["analysis.cache_misses"] == 0
        assert tracer.counters["analysis.cache_hits"] > 0


def test_cache_stats_defaults():
    stats = CacheStats()
    assert stats.hits == 0 and stats.misses == 0
    assert stats.tokenize_seconds == 0.0
