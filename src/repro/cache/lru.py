"""A small bounded LRU cache with traffic counters.

The standard-library alternatives don't fit the solve hot path:
``functools.lru_cache`` keys on call arguments (the cache key here is a
precomputed fingerprint, and the factory closes over non-hashable model
objects) and hides its eviction count.  This one is a thin
``OrderedDict`` wrapper exposing exactly what the telemetry layer wants:
``hits`` / ``misses`` / ``evictions``.

``capacity == 0`` disables the cache entirely — every ``get`` misses and
``put`` is a no-op — which is how ``caches.encoding_size=0`` turns the
encoding cache off without a second code path in the generator.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator

__all__ = ["LRUCache"]


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    ``get`` refreshes recency; ``put`` inserts (or refreshes) and evicts
    the oldest entries down to ``capacity``.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_data")

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()

    def get(self, key, default=None):
        """Look up ``key``, counting the hit/miss and refreshing recency."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        """Insert (or refresh) ``key``; evict oldest entries past capacity."""
        if self.capacity == 0:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key) -> bool:  # no counter traffic
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator:
        return iter(self._data)

    def items(self) -> Iterator:  # no counter traffic, no recency updates
        """(key, value) pairs, oldest (least recently used) first.

        Iteration order is the eviction order, which is what the
        warm-start store persists: restoring entries via ``put`` in this
        order reproduces the original cache's eviction behaviour.
        """
        return iter(self._data.items())

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._data.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._data),
        }

    def __repr__(self) -> str:
        return (
            f"LRUCache({len(self._data)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
