"""Tests for the bounded LRU cache and its traffic counters."""

import pytest

from repro.cache.lru import LRUCache


class TestBasics:
    def test_miss_then_hit(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.evictions == 0

    def test_get_default(self):
        cache = LRUCache(4)
        sentinel = object()
        assert cache.get("missing", sentinel) is sentinel

    def test_put_refreshes_value(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1

    def test_contains_and_iter_do_not_count(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert "a" in cache and "b" not in cache
        assert list(cache) == ["a"]
        assert cache.hits == 0 and cache.misses == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            LRUCache(-1)


class TestEviction:
    def test_oldest_evicted_first(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # now "b" is the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache

    def test_size_never_exceeds_capacity(self):
        cache = LRUCache(3)
        for index in range(50):
            cache.put(index, index)
            assert len(cache) <= 3
        assert cache.evictions == 47


class TestDisabled:
    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert "a" not in cache
        assert cache.get("a") is None
        assert len(cache) == 0
        assert cache.misses == 1 and cache.evictions == 0


class TestStatsAndClear:
    def test_stats_dict(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0, "size": 1}

    def test_clear_preserves_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1
