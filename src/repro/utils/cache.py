"""A small bounded LRU cache with hit/miss/eviction stats.

Shared by the serving runtime's plan cache
(:mod:`repro.serve.cache`) and the per-handle plan cache on
:class:`~repro.core.api.SparseHandle`, so the codebase has exactly one
bounded-cache implementation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence, TypeVar

from repro.errors import ConfigurationError

__all__ = ["CacheStats", "LRUCache"]

V = TypeVar("V")


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            hits=self.hits, misses=self.misses, evictions=self.evictions
        )

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The counter deltas accumulated after ``earlier`` was
        snapshotted (per-run stats on a long-lived cache)."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
        )


class LRUCache:
    """A bounded LRU with stats (least-recently-*used* eviction).

    ``generation`` counts the times a key left the cache (an eviction
    or a clear): while it is unchanged, every key seen since is still
    cached, which is what lets a caller replay known hits with
    :meth:`touch`."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(
                f"cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.stats = CacheStats()
        self.generation = 0
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable) -> "object | None":
        """The cached value (refreshing its recency), or None."""
        if key in self._data:
            self.stats.hits += 1
            self._data.move_to_end(key)
            return self._data[key]
        self.stats.misses += 1
        return None

    def touch(self, keys: Sequence[Hashable]) -> None:
        """Replay a hit on each of ``keys`` in order — the stats and
        recency :meth:`get` would leave — without returning values.
        Every key must be cached (see ``generation``)."""
        move_to_end = self._data.move_to_end
        for key in keys:
            move_to_end(key)
        self.stats.hits += len(keys)

    def put(self, key: Hashable, value: object) -> None:
        """Insert/refresh a value, evicting the least recently used
        entry past capacity."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.stats.evictions += 1
            self.generation += 1

    def get_or_build(self, key: Hashable, build: Callable[[], V]) -> V:
        """Return the cached value, building (and possibly evicting) on
        a miss."""
        value = self.get(key)
        if value is None:
            value = build()
            self.put(key, value)
        return value  # type: ignore[return-value]

    def clear(self) -> None:
        self._data.clear()
        self.generation += 1
