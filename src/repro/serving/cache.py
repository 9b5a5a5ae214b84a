"""Isomorphism-aware prediction cache with LRU + TTL eviction.

Keys combine a model fingerprint with the Weisfeiler-Lehman canonical
hash from :mod:`repro.graphs.canonical`, so any relabeled copy of an
already-served graph — and any graph 1-WL-indistinguishable from it,
which the GNN would map to the same output anyway — is a cache hit.

Eviction is twofold: least-recently-used beyond ``max_size`` entries,
and (optionally) a time-to-live per entry. The clock is injectable so
TTL behavior is testable without sleeping.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Optional

from repro.exceptions import ReproError
from repro.graphs.canonical import wl_canonical_hash
from repro.graphs.graph import Graph


class CacheError(ReproError):
    """Invalid prediction-cache configuration."""


def cache_key(graph: Graph, model_key: str = "") -> str:
    """The cache key for ``graph`` under the model named by ``model_key``."""
    return f"{model_key}:{wl_canonical_hash(graph)}"


class _Entry:
    __slots__ = ("value", "stored_at")

    def __init__(self, value, stored_at: float):
        self.value = value
        self.stored_at = stored_at


class PredictionCache:
    """Thread-safe LRU + TTL cache for prediction results.

    Parameters
    ----------
    max_size:
        Entry budget; the least-recently-used entry is evicted beyond it.
    ttl_s:
        Seconds an entry stays valid (``None`` disables expiry).
    clock:
        Monotonic time source, injectable for tests.
    """

    def __init__(
        self,
        max_size: int = 4096,
        ttl_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_size < 1:
            raise CacheError(f"max_size must be >= 1, got {max_size}")
        if ttl_s is not None and ttl_s <= 0:
            raise CacheError(f"ttl_s must be positive, got {ttl_s}")
        self.max_size = int(max_size)
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions_lru = 0
        self.evictions_ttl = 0
        self.evictions_swap = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str):
        """The cached value for ``key``, or ``None`` (counts a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._expired(entry):
                del self._entries[key]
                self.evictions_ttl += 1
                entry = None
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.value

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key``, evicting LRU entries if needed."""
        with self._lock:
            self._entries[key] = _Entry(value, self._clock())
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self.evictions_lru += 1

    def purge_expired(self) -> int:
        """Drop every expired entry; returns how many were removed."""
        if self.ttl_s is None:
            return 0
        with self._lock:
            expired = [
                key
                for key, entry in self._entries.items()
                if self._expired(entry)
            ]
            for key in expired:
                del self._entries[key]
            self.evictions_ttl += len(expired)
            return len(expired)

    def invalidate_model(self, model_key: str) -> int:
        """Drop every entry keyed under ``model_key``.

        Hot-swap hygiene: cache keys are ``<model_key>:<wl_hash>``, so
        purging the old model's fingerprint prefix guarantees a swapped
        model can never serve a prediction its predecessor computed.
        Returns how many entries were removed (also counted in
        ``evictions_swap``).
        """
        prefix = f"{model_key}:"
        with self._lock:
            stale = [key for key in self._entries if key.startswith(prefix)]
            for key in stale:
                del self._entries[key]
            self.evictions_swap += len(stale)
            return len(stale)

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def _expired(self, entry: _Entry) -> bool:
        return (
            self.ttl_s is not None
            and self._clock() - entry.stored_at > self.ttl_s
        )

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counter snapshot for the metrics endpoint."""
        return {
            "size": len(self._entries),
            "max_size": self.max_size,
            "ttl_s": self.ttl_s,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions_lru": self.evictions_lru,
            "evictions_ttl": self.evictions_ttl,
            "evictions_swap": self.evictions_swap,
        }
