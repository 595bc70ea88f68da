"""The serve-layer result cache: LRU+TTL semantics and versioned keys.

Unit tests pin the deterministic behaviours (capacity, TTL with an
injected clock, key normalisation, version invalidation); the hypothesis
properties then hammer the three cache invariants under arbitrary
interleavings of put/get/clock-advance:

1. capacity is never exceeded,
2. a TTL-expired entry is never returned,
3. get-after-put coherence -- a live, non-evicted entry returns exactly
   the last value put under its key.
"""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.cache import ResultCache, make_cache_key, normalize_keywords


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestResultCacheUnit:
    def test_get_after_put(self):
        cache = ResultCache(capacity=4, ttl_seconds=10.0)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert len(cache) == 1

    def test_miss_returns_none(self):
        cache = ResultCache(capacity=4, ttl_seconds=10.0)
        assert cache.get("missing") is None

    def test_overwrite_replaces_value(self):
        cache = ResultCache(capacity=4, ttl_seconds=10.0)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1

    def test_capacity_evicts_least_recently_used(self):
        cache = ResultCache(capacity=2, ttl_seconds=10.0)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'; 'b' becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_ttl_expiry(self):
        clock = FakeClock()
        cache = ResultCache(capacity=4, ttl_seconds=5.0, clock=clock)
        cache.put("a", 1)
        clock.advance(4.999)
        assert cache.get("a") == 1
        clock.advance(0.001)  # exactly at TTL -> expired
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_put_refreshes_insertion_time(self):
        clock = FakeClock()
        cache = ResultCache(capacity=4, ttl_seconds=5.0, clock=clock)
        cache.put("a", 1)
        clock.advance(4.0)
        cache.put("a", 2)
        clock.advance(4.0)
        assert cache.get("a") == 2

    def test_expired_entries_pruned_before_eviction(self):
        # Overflow prefers dropping dead (expired) entries over evicting
        # live ones.
        clock = FakeClock()
        cache = ResultCache(capacity=2, ttl_seconds=5.0, clock=clock)
        cache.put("old", 1)
        clock.advance(6.0)
        cache.put("a", 2)
        cache.put("b", 3)
        assert cache.get("a") == 2
        assert cache.get("b") == 3

    def test_contains_respects_ttl(self):
        clock = FakeClock()
        cache = ResultCache(capacity=4, ttl_seconds=5.0, clock=clock)
        cache.put("a", 1)
        assert "a" in cache
        clock.advance(6.0)
        assert "a" not in cache

    def test_stats(self):
        cache = ResultCache(capacity=2, ttl_seconds=10.0)
        cache.get("a")
        cache.put("a", 1)
        cache.get("a")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
        with pytest.raises(ValueError):
            ResultCache(ttl_seconds=0)

    def test_generation_guarded_put_discards_after_invalidation(self):
        # The ingest-seal TOCTOU guard: a result computed before an
        # invalidation sweep must not land after it.
        cache = ResultCache(capacity=4, ttl_seconds=10.0)
        generation = cache.generation
        cache.invalidate_where(lambda key: False)  # sweep, even if empty
        assert not cache.put("a", 1, generation=generation)
        assert cache.get("a") is None
        assert cache.put("a", 1, generation=cache.generation)
        assert cache.get("a") == 1

    def test_clear_bumps_the_generation(self):
        cache = ResultCache(capacity=4, ttl_seconds=10.0)
        generation = cache.generation
        cache.clear()
        assert not cache.put("a", 1, generation=generation)

    def test_unconditional_put_ignores_generation(self):
        cache = ResultCache(capacity=4, ttl_seconds=10.0)
        cache.invalidate_where(lambda key: True)
        assert cache.put("a", 1)
        assert cache.get("a") == 1


class TestKeyNormalization:
    def test_whitespace_and_case_folded(self):
        assert normalize_keywords(["  Flood   Relief ", "DAM"]) == (
            "flood relief",
            "dam",
        )

    def test_empty_keywords_dropped(self):
        assert normalize_keywords(["", "  ", "quake"]) == ("quake",)

    def test_order_preserved(self):
        # Phrase queries are order-sensitive; normalisation must not
        # conflate "dam failure" with "failure dam".
        assert normalize_keywords(["b", "a"]) != normalize_keywords(
            ["a", "b"]
        )

    def test_equivalent_queries_share_a_key(self):
        start = datetime.date(2021, 1, 1)
        end = datetime.date(2021, 2, 1)
        key1 = make_cache_key(["Flood", " relief "], start, end, 10, 1, 7)
        key2 = make_cache_key(["flood", "relief"], start, end, 10, 1, 7)
        assert key1 == key2
        key1 = make_cache_key(["Flood"], start, end, 10, 1, (7, 3))
        key2 = make_cache_key(["flood"], start, end, 10, 1, (7, 3))
        assert key1 == key2

    def test_index_version_changes_key(self):
        start = datetime.date(2021, 1, 1)
        end = datetime.date(2021, 2, 1)
        key1 = make_cache_key(["flood"], start, end, 10, 1, 7)
        key2 = make_cache_key(["flood"], start, end, 10, 1, 8)
        assert key1 != key2
        # A per-shard version vector: a bump on any one shard re-keys.
        key1 = make_cache_key(["flood"], start, end, 10, 1, (7, 3))
        key2 = make_cache_key(["flood"], start, end, 10, 1, (7, 4))
        assert key1 != key2

    def test_every_parameter_participates(self):
        start = datetime.date(2021, 1, 1)
        end = datetime.date(2021, 2, 1)
        base = make_cache_key(["flood"], start, end, 10, 1, 7)
        assert make_cache_key(["storm"], start, end, 10, 1, 7) != base
        assert make_cache_key(
            ["flood"], start + datetime.timedelta(days=1), end, 10, 1, 7
        ) != base
        assert make_cache_key(
            ["flood"], start, end + datetime.timedelta(days=1), 10, 1, 7
        ) != base
        assert make_cache_key(["flood"], start, end, 9, 1, 7) != base
        assert make_cache_key(["flood"], start, end, 10, 2, 7) != base
        assert make_cache_key(["flood"], None, end, 10, 1, 7) != base
        assert make_cache_key(["flood"], start, end, 10, 1, (7,)) != base


# -- hypothesis properties -----------------------------------------------------

#: One cache operation: put(key, value), get(key), or clock advance.
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.integers(min_value=0, max_value=9),
            st.integers(),
        ),
        st.tuples(
            st.just("get"),
            st.integers(min_value=0, max_value=9),
            st.just(0),
        ),
        st.tuples(
            st.just("tick"),
            st.just(0),
            st.just(0),
        ),
    ),
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(
    ops=_ops,
    capacity=st.integers(min_value=1, max_value=6),
    ttl=st.floats(min_value=0.5, max_value=20.0),
    tick=st.floats(min_value=0.1, max_value=10.0),
)
def test_cache_invariants_under_interleaved_ops(ops, capacity, ttl, tick):
    clock = FakeClock()
    cache = ResultCache(capacity=capacity, ttl_seconds=ttl, clock=clock)
    model = {}  # key -> (inserted_at, value): the reference TTL map

    for op, key, value in ops:
        if op == "put":
            cache.put(key, value)
            model[key] = (clock.now, value)
        elif op == "get":
            got = cache.get(key)
            entry = model.get(key)
            live = (
                entry is not None
                and clock.now - entry[0] < ttl
            )
            if got is not None:
                # Never a stale or fabricated value: anything returned
                # must be the latest live put under this key.
                assert live, "returned a TTL-expired entry"
                assert got == entry[1]
            # (a None for a live key is legal -- LRU eviction.)
        else:
            clock.advance(tick)
        assert len(cache) <= capacity, "capacity exceeded"


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=20), min_size=1, max_size=40
    ),
    capacity=st.integers(min_value=1, max_value=5),
)
def test_immediate_get_after_put_always_coherent(keys, capacity):
    """With no expiry in play, get right after put must return the value."""
    cache = ResultCache(capacity=capacity, ttl_seconds=100.0)
    for i, key in enumerate(keys):
        cache.put(key, i)
        assert cache.get(key) == i
        assert len(cache) <= capacity
