"""Size-capped LRU caches with hit/miss accounting for the serving path.

The engine keeps several caches keyed by queries (plans, prepared plans,
negative effective-boundedness verdicts).  Under a serving workload every
distinct bound constant produces a distinct :class:`~repro.spc.query.SPCQuery`
key, so an uncapped dict grows without bound in a long-lived engine; this
module provides the shared capped cache with :class:`ExecutionStats`-style
counters the engine reports through :meth:`BoundedEngine.cache_info`.

Thread safety
-------------
One engine serves every worker of a :class:`~repro.service.QueryService`, so
the cache is safe for concurrent use: a single lock guards the entry map
*and* the hit/miss/eviction counters together.  The counters were previously
bare ``+= 1`` read-modify-write sequences, which under-count when two threads
interleave; holding the lock across the lookup and its accounting makes each
``get``/``put`` atomic, so ``hits + misses`` always equals the number of
lookups issued (the invariant the 8-thread regression test hammers).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Generic, Hashable, Iterable, TypeVar

from ..errors import ExecutionError

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: Sentinel distinguishing "not cached" from a cached value of ``None``.
_MISSING = object()


@dataclass
class CacheStats:
    """Counters for one cache, in the style of :class:`ExecutionStats`.

    Example
    -------
    >>> stats = CacheStats(name="plan-cache", hits=3, misses=1, size=1, capacity=8)
    >>> stats.requests, stats.hit_rate
    (4, 0.75)
    >>> stats.describe()
    'plan-cache: hits=3, misses=1, hit_rate=75.0%, evictions=0, size=1/8'
    """

    name: str = "cache"
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0

    def describe(self) -> str:
        return (
            f"{self.name}: hits={self.hits}, misses={self.misses}, "
            f"hit_rate={self.hit_rate:.1%}, evictions={self.evictions}, "
            f"size={self.size}/{self.capacity}"
        )


class LRUCache(Generic[K, V]):
    """A dict with least-recently-used eviction and hit/miss counters.

    Thread-safe: every operation (including the counter updates it implies)
    runs under one internal lock, so concurrent ``get``/``put`` calls from
    service workers neither corrupt the recency order nor under-count.
    Compound caller sequences (``get`` miss, compute, ``put``) are *not* made
    atomic — two threads may both miss and compute the same value, and the
    second ``put`` wins; for the engine's caches that duplicate work is
    benign because compilations of equal keys are interchangeable.

    Entries that hold *data* (the service's stale answers) carry a relation
    dependency set (``put(..., relations=...)``) so the live write path can
    invalidate precisely: ``invalidate(relations)`` drops exactly the entries
    depending on a written relation, leaving the rest of a warm cache intact.
    The engine's caches hold analysis of the query and the access schema
    only; they are never tagged and no write drops them.

    Example
    -------
    >>> cache = LRUCache(capacity=2, name="demo")
    >>> cache.put("a", 1); cache.put("b", 2, relations=("friends",))
    >>> cache.get("a")
    1
    >>> cache.invalidate(["friends"])
    1
    >>> cache.get("b") is None
    True
    >>> cache.stats.describe()
    'demo: hits=1, misses=1, hit_rate=50.0%, evictions=0, size=1/2'
    """

    def __init__(self, capacity: int, name: str = "cache") -> None:
        if capacity < 1:
            raise ExecutionError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._lock = threading.Lock()
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        # Relation dependency tracking, both directions: entry key -> the
        # relations it depends on, and relation -> the entry keys depending
        # on it.  Kept exactly in sync with _entries (under the same lock).
        self._key_relations: dict[K, tuple[str, ...]] = {}
        self._by_relation: dict[str, set[K]] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def _untag_locked(self, key: K) -> None:  # holds: self._lock
        """Drop ``key`` from the dependency maps (lock already held)."""
        for relation in self._key_relations.pop(key, ()):
            keys = self._by_relation.get(relation)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_relation[relation]

    def get(self, key: K, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency; counts a hit or a miss."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: K, value: V, relations: "tuple[str, ...] | list[str]" = ()) -> None:
        """Insert or refresh an entry, evicting the oldest when over capacity.

        ``relations`` declares the stored-data dependencies of the entry:
        a later ``invalidate`` naming any of them drops this entry.  A
        refresh replaces the previous dependency set.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._untag_locked(key)
            self._entries[key] = value
            if relations:
                tags = tuple(dict.fromkeys(relations))
                self._key_relations[key] = tags
                for relation in tags:
                    self._by_relation.setdefault(relation, set()).add(key)
            if len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self._untag_locked(evicted)
                self._evictions += 1

    def invalidate(self, relations: "Iterable[str]") -> int:
        """Drop every entry depending on any of ``relations``; return the count.

        Scoped invalidation for the live write path: only entries that were
        ``put`` with a dependency on a named relation are removed — untagged
        entries and entries over other relations stay warm.  Dropped entries
        are not counted as evictions (they are invalidations, not capacity
        pressure).
        """
        with self._lock:
            doomed: set[K] = set()
            for relation in relations:
                doomed.update(self._by_relation.get(relation, ()))
            for key in doomed:
                del self._entries[key]
                self._untag_locked(key)
            return len(doomed)

    def __contains__(self, key: K) -> bool:
        """Membership test; does not touch recency or the counters."""
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._key_relations.clear()
            self._by_relation.clear()

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                name=self.name,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )

    def __repr__(self) -> str:
        return f"LRUCache({self.stats.describe()})"
