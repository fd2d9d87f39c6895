"""Content-addressed instance cache: one canonical object per problem.

Every job request carries its own :class:`~repro.core.instance.MKPInstance`
(parsed from a file, built inline from a TCP payload, or looked up in the
registry).  Constructing the search machinery for it is not free: the
shared :class:`~repro.core.bitset.HotTables` (weight transpose, drop-rule
ratios, prefix-bitmask fitting tables) are the single largest per-instance
setup cost, and the warm-lease path of :class:`~repro.service.pool.SolverPool`
only reuses worker arenas when consecutive jobs hand the backend the *same*
problem.

:class:`InstanceCache` collapses equal-content instances onto one canonical
object keyed by :meth:`~repro.core.instance.MKPInstance.content_hash`:

* the first job on a problem pays the ``HotTables`` build (done eagerly at
  insert, outside any solve) — every later job shares the tables for free;
* because all jobs on a problem then hold the *same object*, the backends'
  ``start()`` identity fast-path and the pool's lease affinity both hit.

The cache is LRU-bounded and thread-safe (the job manager's event loop and
solver threads may both touch it).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..core.instance import MKPInstance

__all__ = ["InstanceCache"]


class InstanceCache:
    """LRU map ``content_hash -> canonical MKPInstance`` with warm tables."""

    def __init__(self, max_entries: int = 32) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[str, MKPInstance] = OrderedDict()
        self._lock = threading.Lock()
        #: lookups served by an already-cached instance
        self.hits = 0
        #: lookups that inserted (and warmed) a new instance
        self.misses = 0
        #: entries discarded by the LRU bound
        self.evictions = 0

    def canonical(self, instance: MKPInstance) -> MKPInstance:
        """Return the cache's canonical instance for ``instance``'s content.

        On a miss the given instance becomes canonical and its hot tables
        are built immediately, so the cost lands on the submitting path
        once instead of inside the first solve round of every job.
        """
        key = instance.content_hash()
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached
            self.misses += 1
            self._entries[key] = instance
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        # Build outside the lock: table construction is pure per-instance
        # work and must not serialize unrelated lookups behind it.
        instance.hot  # noqa: B018 - intentional eager warm-up
        return instance

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: "MKPInstance | str") -> bool:
        """Membership by instance or by content-hash string."""
        digest = key if isinstance(key, str) else key.content_hash()
        with self._lock:
            return digest in self._entries

    def stats(self) -> dict[str, int]:
        """Counter snapshot (hits/misses/evictions/size)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
            }
