"""Least-recently-used query cache.

§3.5.2: "REMI requires the execution of the same queries multiple times,
thus query results are cached in a least-recently-used fashion."  The
expression matcher keys this cache on canonicalized expressions so that
re-testing the same candidate against the KB is a dictionary hit.

The implementation is a plain ``OrderedDict`` LRU with hit/miss counters —
the counters feed the instrumentation report of the Figure-1 bench.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock
from typing import Callable, Generic, Hashable, Optional, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class _Missing:
    """Sentinel type for :data:`MISSING` (its repr aids debugging)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<MISSING>"


#: Public miss sentinel: ``cache.get(key, MISSING) is MISSING`` is the
#: only probe that cannot confuse a cached ``None`` (or any other falsy
#: value) with an absent key.  :meth:`LRUCache.get_or_compute` and the
#: matcher's cache probes use it end-to-end.
MISSING = _Missing()


class LRUCache(Generic[K, V]):
    """A bounded, thread-safe LRU mapping.

    >>> cache = LRUCache(capacity=2)
    >>> cache.put("a", 1); cache.put("b", 2); cache.put("c", 3)
    >>> cache.get("a") is None  # evicted
    True
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._lock = Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """The cached value, or *default* on a miss.

        With the default ``default=None`` a cached ``None`` is
        indistinguishable from a miss at the call site (the hit/miss
        counters are still exact either way); callers that cache
        legitimately-``None`` results must pass :data:`MISSING` as the
        default and compare with ``is``.
        """
        with self._lock:
            value = self._data.get(key, MISSING)
            if value is MISSING:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: K, value: V) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def get_or_compute(self, key: K, compute: Callable[[], V]) -> V:
        """Return the cached value for *key*, computing and storing it on miss.

        The computation runs outside the lock, so concurrent misses on the
        same key may compute twice; results must therefore be deterministic
        (they are: KB queries are pure).
        """
        value = self.get(key, MISSING)  # type: ignore[arg-type]
        if value is not MISSING:
            return value  # type: ignore[return-value]
        result = compute()
        self.put(key, result)
        return result

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"LRUCache(capacity={self.capacity}, size={len(self._data)}, "
            f"hit_rate={self.hit_rate:.2f})"
        )
