"""Bounded, instrumented LRU caches for geometry-keyed plan objects.

The plan caches (:mod:`repro.comm.plan`) key derived index tables by
``grid.geometry_key`` so congruent grids — fresh hierarchies per solve,
or the many requests of a long-lived solve service — share one table
instead of rebuilding it.  Geometry keys are *values*, so unlike the
old ``WeakKeyDictionary`` scheme nothing ever dies with its grid; a
bound plus LRU eviction keeps a service that walks many distinct
geometries from accumulating index tables forever.

Every cache keeps hit/miss/eviction totals;
:meth:`repro.obs.metrics.MetricsRegistry.observe_plan_caches` snapshots
them so service metrics can report plan-reuse rates per cohort.
"""

from __future__ import annotations

from collections import OrderedDict

#: every live cache, in registration order, for global stats/clearing
_REGISTRY: "dict[str, PlanLRUCache]" = {}

#: default bound; generous for one geometry class (a few plans per
#: level per radius), small enough that a geometry sweep cannot pin
#: unbounded index tables
DEFAULT_MAXSIZE = 256


class PlanLRUCache:
    """An LRU-bounded mapping with hit/miss/eviction accounting.

    Not thread-safe (none of the solver machinery is); eviction order
    is least-recently-*used*, where both :meth:`get` hits and
    :meth:`put` count as use.
    """

    def __init__(self, name: str, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive: {maxsize}")
        self.name = name
        self.maxsize = int(maxsize)
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        _REGISTRY[name] = self

    def get(self, key):
        """The cached value for ``key``, or ``None`` (counts hit/miss)."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        """Insert ``key`` (most-recently-used), evicting past the bound."""
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def set_limit(self, maxsize: int) -> None:
        """Rebound the cache, evicting LRU entries if shrinking."""
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive: {maxsize}")
        self.maxsize = int(maxsize)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> int:
        """Drop every entry (stats survive); returns the count dropped."""
        n = len(self._data)
        self._data.clear()
        return n

    def unregister(self) -> None:
        """Remove this cache from the global registry (test hygiene)."""
        _REGISTRY.pop(self.name, None)

    def stats(self) -> dict:
        """``{"size", "maxsize", "hits", "misses", "evictions"}``."""
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanLRUCache({self.name!r}, {len(self._data)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def cache_stats() -> dict:
    """Per-cache stats of every registered plan cache, keyed by name."""
    return {name: cache.stats() for name, cache in sorted(_REGISTRY.items())}
