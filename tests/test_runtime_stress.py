"""Concurrency stress: hammer the shared TokenCache and realtime index.

These tests (marked ``slow``; the CI fast lane skips them) drive the two
shared mutable structures the runtime's thread backend relies on from
many concurrent workers and assert both *correctness* (every caller sees
identical results; concurrent query batches match the sequential
reference exactly) and *accounting* (cache hit/miss counters stay
consistent under racing writers -- the double-checked-locking design
promises misses == distinct texts, exactly).
"""

from __future__ import annotations

import datetime
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.runtime import ShardPolicy
from repro.search.realtime import RealTimeTimelineSystem, TimelineQuery
from repro.text.analysis import TokenCache
from repro.tlsdata.synthetic import SyntheticConfig, SyntheticCorpusGenerator

pytestmark = pytest.mark.slow

THREADS = 16
ROUNDS = 30


class TestTokenCacheStress:
    def _texts(self, count: int = 200):
        return [
            f"sentence number {i} reports flooding near district {i % 17} "
            f"while rescue teams deployed pumps and sandbags"
            for i in range(count)
        ]

    def test_racing_readers_agree_and_accounting_is_exact(self):
        cache = TokenCache()
        texts = self._texts()

        def hammer(worker_id: int):
            seen = []
            for round_index in range(ROUNDS):
                # Interleave orders per worker so writers race on
                # different keys at different times.
                ordered = (
                    texts if (worker_id + round_index) % 2 == 0
                    else list(reversed(texts))
                )
                seen.append([cache.tokens(text) for text in ordered])
            return seen

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            outcomes = list(pool.map(hammer, range(THREADS)))

        reference = [tuple(cache.tokens(text)) for text in texts]
        for worker_outcome in outcomes:
            for round_tokens in worker_outcome:
                straight = (
                    round_tokens
                    if round_tokens[0] == reference[0]
                    else list(reversed(round_tokens))
                )
                assert [tuple(t) for t in straight] == reference

        stats = cache.stats()
        total_lookups = THREADS * ROUNDS * len(texts) + len(texts)
        # The double-checked-locking contract: every distinct text is
        # tokenised at most once; a lost race counts as a hit.
        assert stats.misses == len(texts)
        assert stats.hits == total_lookups - len(texts)
        assert len(cache) == len(texts)


class TestRealtimeConcurrencyStress:
    @pytest.fixture(scope="class")
    def system(self):
        instance = SyntheticCorpusGenerator(
            SyntheticConfig(
                topic="stress",
                theme="disaster",
                seed=11,
                duration_days=40,
                num_events=8,
                num_major_events=4,
                num_articles=20,
                sentences_per_article=6,
            )
        ).generate()
        system = RealTimeTimelineSystem()
        system.ingest(instance.corpus.articles)
        dates = [
            article.publication_date
            for article in instance.corpus.articles
        ]
        return system, min(dates), max(dates)

    def _queries(self, start, end, repeat: int = 4):
        keyword_sets = (
            ("flood",), ("rescue",), ("storm", "damage"), ("relief",),
            ("evacuation",), ("flood", "relief"),
        )
        half = start + datetime.timedelta(days=(end - start).days // 2)
        windows = ((start, end), (start, half), (half, end))
        queries = []
        for index in range(repeat * len(keyword_sets)):
            keywords = keyword_sets[index % len(keyword_sets)]
            window = windows[index % len(windows)]
            queries.append(
                TimelineQuery(
                    keywords=keywords,
                    start=window[0],
                    end=window[1],
                    num_dates=4,
                )
            )
        return queries

    def test_concurrent_batch_matches_sequential_reference(self, system):
        system, start, end = system
        queries = self._queries(start, end)
        sequential = system.generate_timelines(
            queries, ShardPolicy(backend="inline")
        )
        concurrent = system.generate_timelines(
            queries, ShardPolicy(workers=THREADS, backend="thread")
        )
        assert concurrent.num_degraded == 0
        seq_responses = sequential.values()
        conc_responses = concurrent.values()
        assert len(seq_responses) == len(conc_responses) == len(queries)
        for seq_response, conc_response in zip(
            seq_responses, conc_responses
        ):
            assert conc_response.timeline == seq_response.timeline
            assert (
                conc_response.num_candidates
                == seq_response.num_candidates
            )

    def test_repeated_concurrent_batches_stay_stable(self, system):
        system, start, end = system
        queries = self._queries(start, end, repeat=2)
        policy = ShardPolicy(workers=8, backend="thread")
        first = system.generate_timelines(queries, policy)
        for _ in range(3):
            again = system.generate_timelines(queries, policy)
            assert again.num_degraded == 0
            for response_a, response_b in zip(
                first.values(), again.values()
            ):
                assert response_a.timeline == response_b.timeline
