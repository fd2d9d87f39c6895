"""LP-core search-space reduction: fixation patterns and core selection.

PR 7's conclusion was that the transport is no longer the bottleneck — on
GK24 the compute floor dominates.  The lever that lowers the floor itself is
classic core fixing (Balas/Martello-Toth cores; Boussier et al.'s resolution
search and Xu/Li/Yin's "promising search space" in PAPERS.md): solve the
root LP relaxation once, rank variables by ``|reduced cost|``, keep only the
``n_core`` most ambiguous ones *free* and pin everything else to its
LP-rounded value.  Every vectorized kernel pass — drop/add/swap scans,
fitting tables, the ``(K, n)`` batched matmuls — then runs over
``n_core ≪ n`` columns.

Two objects implement it:

:class:`FixationPattern`
    The wire-friendly description of one slave's fixation: a boolean core
    mask plus the 0/1 values pinned outside the core.  Patterns ride inside
    :class:`~repro.parallel.message.SlaveTask` (the
    :class:`~repro.parallel.shm.WireCodec` frame ships two packed
    ``ceil(n/8)``-byte blocks), so a warm worker can re-core without a
    respawn and a respawned worker re-cores from the task alone.

:class:`CoreSelector`
    Per-instance: solves the LP once, orders variables by ``|r_j|``
    (fractional/basic variables have ``r_j ≈ 0`` and therefore rank first),
    and emits per-``(core_ratio, variant)`` patterns.  ``variant`` rotates a
    window at the core boundary so different slaves free slightly different
    variable sets — diversification without touching any RNG stream.

**Feasibility invariant** (what makes fixing safe): a variable is pinned to
1 only when its LP value is ≥ 1 − 1e-9.  Weights are non-negative, so for
*any* subset ``S`` of those variables ``A[:, S] @ 1 ≤ A @ x_LP ≤ b`` —
the reduced capacities ``b − Σ_{S} A_j`` are non-negative no matter which
boundary window a variant swapped.  Everything else outside the core is
pinned to 0, which only relaxes the reduced problem.

The module-level :func:`shared_selector` cache (keyed by
:meth:`~repro.core.instance.MKPInstance.content_hash`) makes the LP a
once-per-problem cost shared by the master, the service layer, and any
benchmarks running in the same process.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .bitset import bytes_to_words, pack_bits, unpack_bits, words_to_bytes
from .instance import MKPInstance

if TYPE_CHECKING:  # pragma: no cover - import-light: scipy stays lazy
    from ..exact.bounds import LPRelaxation
    from ..exact.preprocess import Reduction

__all__ = [
    "FixationPattern",
    "CoreSelector",
    "shared_selector",
    "selector_cache_stats",
    "clear_selector_cache",
]

#: LP values this close to 1 count as "at the upper bound" and may be
#: pinned to 1 (see the feasibility invariant in the module docstring).
_AT_ONE = 1.0 - 1e-9


def _pattern_from_wire(
    mask_bytes: bytes, values_bytes: bytes, n_items: int
) -> "FixationPattern":
    """Rebuild a :class:`FixationPattern` from its two packed wire blocks."""
    core_mask = unpack_bits(bytes_to_words(mask_bytes, n_items), n_items).astype(bool)
    fixed_values = unpack_bits(bytes_to_words(values_bytes, n_items), n_items)
    return FixationPattern(core_mask=core_mask, fixed_values=fixed_values)


@dataclass(frozen=True)
class FixationPattern:
    """One slave's fixation: which variables stay free, and the pinned rest.

    ``core_mask[j]`` is True when variable ``j`` is *free* (inside the
    core); ``fixed_values[j]`` is the 0/1 value variable ``j`` takes when
    outside the core (entries under the core mask are ignored but kept so
    the wire form is two fixed-width packed blocks).
    """

    core_mask: np.ndarray
    fixed_values: np.ndarray

    def __post_init__(self) -> None:
        core_mask = np.ascontiguousarray(self.core_mask, dtype=bool)
        fixed_values = np.ascontiguousarray(self.fixed_values, dtype=np.int8)
        if core_mask.ndim != 1 or fixed_values.shape != core_mask.shape:
            raise ValueError(
                f"core_mask/fixed_values must be matching 1-D arrays; got "
                f"{core_mask.shape} vs {fixed_values.shape}"
            )
        if not np.all((fixed_values == 0) | (fixed_values == 1)):
            raise ValueError("fixed_values must be 0/1")
        core_mask.setflags(write=False)
        fixed_values.setflags(write=False)
        object.__setattr__(self, "core_mask", core_mask)
        object.__setattr__(self, "fixed_values", fixed_values)

    @classmethod
    def trivial(cls, n_items: int) -> "FixationPattern":
        """The everything-free pattern (``core_ratio == 1.0``)."""
        return cls(
            core_mask=np.ones(n_items, dtype=bool),
            fixed_values=np.zeros(n_items, dtype=np.int8),
        )

    @property
    def n_items(self) -> int:
        return self.core_mask.shape[0]

    @property
    def n_core(self) -> int:
        """Number of free variables."""
        return int(np.count_nonzero(self.core_mask))

    @property
    def is_trivial(self) -> bool:
        """True when every variable is free (reduction is a no-op)."""
        return self.n_core == self.n_items

    def packed_mask_bytes(self) -> bytes:
        """``ceil(n/8)``-byte packed core mask (wire block 1)."""
        return words_to_bytes(pack_bits(self.core_mask), self.n_items)

    def packed_values_bytes(self) -> bytes:
        """``ceil(n/8)``-byte packed fixed values (wire block 2)."""
        return words_to_bytes(pack_bits(self.fixed_values), self.n_items)

    def signature(self) -> bytes:
        """Content key for per-core runtime/reduction caches (memoized)."""
        sig = self.__dict__.get("_signature")
        if sig is None:
            sig = self.packed_mask_bytes() + self.packed_values_bytes()
            object.__setattr__(self, "_signature", sig)
        return sig

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FixationPattern):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())


class CoreSelector:
    """Per-instance core selection from one root LP solve.

    Ranks variables by ``|reduced cost|`` (stable sort, so ties break by
    index on every host) and serves :class:`FixationPattern` objects for any
    ``(core_ratio, variant)`` the master's adaptive loop asks for.  Patterns
    and per-pattern :class:`~repro.exact.preprocess.Reduction` objects are
    memoized — the SGP revisits the same handful of ratios, and each
    reduction carries the reduced instance whose ``HotTables`` the slave
    kernels reuse.
    """

    def __init__(self, instance: MKPInstance) -> None:
        from ..exact.bounds import solve_lp_relaxation  # lazy: pulls scipy

        self.instance = instance
        self.lp: "LPRelaxation" = solve_lp_relaxation(instance)
        #: reduced costs w.r.t. the box bounds: ``r_j = c_j − u·A_j``
        self.reduced_costs = np.asarray(
            instance.profits - self.lp.duals @ instance.weights, dtype=np.float64
        )
        #: variable order by ambiguity: smallest ``|r_j|`` first (basic and
        #: fractional variables rank at the front, strongly-pegged ones last)
        self.rank = np.argsort(np.abs(self.reduced_costs), kind="stable")
        #: LP-rounded fixation targets; 1 only where the LP sits at the
        #: upper bound (the feasibility invariant), 0 everywhere else
        self.lp_values = (np.asarray(self.lp.x) >= _AT_ONE).astype(np.int8)
        self._patterns: dict[tuple[int, int], FixationPattern] = {}
        self._reductions: OrderedDict[bytes, "Reduction"] = OrderedDict()
        self._lock = threading.Lock()

    @property
    def n_items(self) -> int:
        return self.instance.n_items

    def core_size(self, core_ratio: float) -> int:
        """Free-variable count for a ratio: ``max(1, round(ratio * n))``."""
        if not 0.0 < core_ratio <= 1.0:
            raise ValueError(f"core_ratio must be in (0, 1]; got {core_ratio}")
        return max(1, int(round(core_ratio * self.n_items)))

    def _core_indices(self, n_core: int, variant: int) -> np.ndarray:
        """The core for ``(n_core, variant)``: ambiguity prefix + rotation.

        Variant 0 is the canonical core ``rank[:n_core]``.  Higher variants
        swap the tail of the core against a variant-shifted window of the
        out-of-core prefix, so each slave frees a slightly different set —
        deterministic diversification that never touches an RNG stream.
        """
        n = self.n_items
        if n_core >= n:
            return self.rank.copy()
        core = self.rank[:n_core].copy()
        n_out = n - n_core
        depth = min(n_out, max(1, n_core // 16))
        if variant <= 0 or depth == 0:
            return core
        take = (int(variant) * depth + np.arange(depth)) % n_out
        core[n_core - depth :] = self.rank[n_core + take]
        return core

    def pattern(self, core_ratio: float, variant: int = 0) -> FixationPattern:
        """Fixation pattern for one slave (memoized by ``(size, variant)``)."""
        n_core = self.core_size(core_ratio)
        key = (n_core, int(variant)) if n_core < self.n_items else (n_core, 0)
        with self._lock:
            cached = self._patterns.get(key)
        if cached is not None:
            return cached
        core_mask = np.zeros(self.n_items, dtype=bool)
        core_mask[self._core_indices(n_core, key[1])] = True
        fixed_values = np.where(core_mask, np.int8(0), self.lp_values)
        pattern = FixationPattern(
            core_mask=core_mask, fixed_values=fixed_values.astype(np.int8)
        )
        with self._lock:
            self._patterns.setdefault(key, pattern)
            return self._patterns[key]

    def reduction(self, pattern: FixationPattern) -> "Reduction":
        """The reduced instance for a pattern (memoized by signature).

        The reduced :class:`~repro.core.instance.MKPInstance` lazily builds
        its own :class:`~repro.core.bitset.HotTables` on first kernel use —
        cached here, every slave task on the same core shares them.
        """
        from ..exact.preprocess import reduce_to_core  # lazy: exact layer

        key = pattern.signature()
        with self._lock:
            cached = self._reductions.get(key)
            if cached is not None:
                self._reductions.move_to_end(key)
                return cached
        reduction = reduce_to_core(self.instance, pattern)
        with self._lock:
            self._reductions.setdefault(key, reduction)
            self._reductions.move_to_end(key)
            while len(self._reductions) > 32:
                self._reductions.popitem(last=False)
            return self._reductions[key]


# ---------------------------------------------------------------------- #
# Shared per-process selector cache (content-addressed)
# ---------------------------------------------------------------------- #

_SELECTORS: OrderedDict[str, CoreSelector] = OrderedDict()
_SELECTOR_LOCK = threading.Lock()
_SELECTOR_MAX_ENTRIES = 16
_SELECTOR_HITS = 0
_SELECTOR_MISSES = 0


def shared_selector(instance: MKPInstance) -> CoreSelector:
    """The process-wide :class:`CoreSelector` for ``instance``'s content.

    Keyed by :meth:`~repro.core.instance.MKPInstance.content_hash`, so the
    root LP is solved once per problem no matter how many masters, jobs or
    benchmarks ask — the cache contract
    :class:`~repro.service.cache.InstanceCache` surfaces with its
    ``lp_hits``/``lp_misses`` counters.
    """
    global _SELECTOR_HITS, _SELECTOR_MISSES
    key = instance.content_hash()
    with _SELECTOR_LOCK:
        cached = _SELECTORS.get(key)
        if cached is not None:
            _SELECTORS.move_to_end(key)
            _SELECTOR_HITS += 1
            return cached
        _SELECTOR_MISSES += 1
    # Solve the LP outside the lock: it is pure per-instance work and must
    # not serialize unrelated lookups behind scipy.
    selector = CoreSelector(instance)
    with _SELECTOR_LOCK:
        existing = _SELECTORS.get(key)
        if existing is not None:
            return existing
        _SELECTORS[key] = selector
        while len(_SELECTORS) > _SELECTOR_MAX_ENTRIES:
            _SELECTORS.popitem(last=False)
        return selector


def selector_cache_stats() -> dict[str, int]:
    """Counter snapshot of the shared selector cache."""
    with _SELECTOR_LOCK:
        return {
            "lp_hits": _SELECTOR_HITS,
            "lp_misses": _SELECTOR_MISSES,
            "size": len(_SELECTORS),
        }


def clear_selector_cache() -> None:
    """Drop every cached selector (test isolation helper)."""
    global _SELECTOR_HITS, _SELECTOR_MISSES
    with _SELECTOR_LOCK:
        _SELECTORS.clear()
        _SELECTOR_HITS = 0
        _SELECTOR_MISSES = 0
