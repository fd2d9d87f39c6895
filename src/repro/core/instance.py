"""The 0–1 multidimensional knapsack problem (0–1 MKP) instance model.

The problem, as stated in Niar & Fréville (IPPS 1997), §1::

    maximize    sum_j c_j x_j
    subject to  sum_j a_ij x_j <= b_i      for i = 1..m
                x_j in {0, 1}              for j = 1..n

with all ``a_ij``, ``b_i``, ``c_j`` positive reals.

:class:`MKPInstance` is an immutable value object holding the data as
contiguous :mod:`numpy` arrays so that the tabu-search hot path (move
evaluation) can be fully vectorized.  Derived quantities used throughout the
search — profit densities, per-constraint pseudo-utility ratios, LP-friendly
float views — are computed once and cached on the instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (bitset is leaf-only)
    from .bitset import HotTables

__all__ = ["MKPInstance"]


@dataclass(frozen=True)
class MKPInstance:
    """An immutable 0–1 MKP instance.

    Parameters
    ----------
    weights:
        ``(m, n)`` array ``a`` of positive constraint coefficients;
        ``weights[i, j]`` is the consumption of resource ``i`` by item ``j``.
    capacities:
        ``(m,)`` array ``b`` of positive capacities.
    profits:
        ``(n,)`` array ``c`` of positive objective coefficients.
    name:
        Optional human-readable identifier (used in benchmark tables).
    optimum:
        Known optimal objective value, if available (e.g. proven by the
        branch-and-bound substrate).  ``None`` when unknown.
    best_known:
        Best known objective value when the true optimum is unknown; used by
        the analysis layer to compute "Dev. in %" columns like Table 1.
    """

    weights: np.ndarray
    capacities: np.ndarray
    profits: np.ndarray
    name: str = "mkp"
    optimum: float | None = None
    best_known: float | None = None
    # Cached derived arrays; populated lazily via object.__setattr__ because
    # the dataclass is frozen.
    _density: np.ndarray | None = field(default=None, repr=False, compare=False)
    _tightness: np.ndarray | None = field(default=None, repr=False, compare=False)
    _hot: "HotTables | None" = field(default=None, repr=False, compare=False)
    _content_hash: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        capacities = np.ascontiguousarray(self.capacities, dtype=np.float64)
        profits = np.ascontiguousarray(self.profits, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D (m, n); got shape {weights.shape}")
        m, n = weights.shape
        if capacities.shape != (m,):
            raise ValueError(
                f"capacities must have shape ({m},) to match weights; got {capacities.shape}"
            )
        if profits.shape != (n,):
            raise ValueError(
                f"profits must have shape ({n},) to match weights; got {profits.shape}"
            )
        if m == 0 or n == 0:
            raise ValueError("instance must have at least one item and one constraint")
        if not np.all(np.isfinite(weights)) or not np.all(np.isfinite(capacities)):
            raise ValueError("weights and capacities must be finite")
        if not np.all(np.isfinite(profits)):
            raise ValueError("profits must be finite")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative (paper assumes positive)")
        if np.any(capacities < 0):
            raise ValueError("capacities must be non-negative")
        if np.any(profits <= 0):
            raise ValueError("profits must be strictly positive (paper assumes positive)")
        weights.setflags(write=False)
        capacities.setflags(write=False)
        profits.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "capacities", capacities)
        object.__setattr__(self, "profits", profits)

    # ------------------------------------------------------------------ #
    # Shape accessors
    # ------------------------------------------------------------------ #
    @property
    def n_items(self) -> int:
        """Number of decision variables ``n``."""
        return self.weights.shape[1]

    @property
    def n_constraints(self) -> int:
        """Number of knapsack constraints ``m``."""
        return self.weights.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        """``(m, n)`` — the paper reports instances as ``m*n``."""
        return self.weights.shape

    @property
    def size_label(self) -> str:
        """Size string in the paper's ``m*n`` convention, e.g. ``"25*500"``."""
        return f"{self.n_constraints}*{self.n_items}"

    # ------------------------------------------------------------------ #
    # Derived quantities used by the search heuristics
    # ------------------------------------------------------------------ #
    @property
    def density(self) -> np.ndarray:
        """Per-item aggregate weight / profit ratio ``sum_i a_ij / c_j``.

        Strategic oscillation projects infeasible solutions back to
        feasibility by excluding "the less interesting objects (those with
        large ``sum_i a_ij / c_j`` ratio)" (§3.2) — this is that ratio.
        """
        if self._density is None:
            dens = self.weights.sum(axis=0) / self.profits
            dens.setflags(write=False)
            object.__setattr__(self, "_density", dens)
        return self._density

    @property
    def tightness(self) -> np.ndarray:
        """Per-constraint tightness ``b_i / sum_j a_ij`` (diagnostic only)."""
        if self._tightness is None:
            totals = self.weights.sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(totals > 0, self.capacities / totals, np.inf)
            t.setflags(write=False)
            object.__setattr__(self, "_tightness", t)
        return self._tightness

    @property
    def hot(self) -> "HotTables":
        """Shared hot-path tables (weight transpose, drop-rule ratios, and —
        for integer-valued data — the prefix-bitmask fitting tables).

        Built lazily once per instance and shared by every
        :class:`~repro.core.solution.SearchState`, so short-lived states (one
        per slave task) stop paying the per-state transpose/divide/table
        construction.  See :mod:`repro.core.bitset`.
        """
        if self._hot is None:
            from .bitset import HotTables

            object.__setattr__(
                self, "_hot", HotTables.build(self.weights, self.capacities, self.profits)
            )
        return self._hot

    def content_hash(self) -> str:
        """Stable hex digest of the problem *data* (not the metadata).

        Two instances with equal ``profits``/``weights``/``capacities``
        hash identically regardless of ``name``/``optimum``/``best_known``
        — the key the service layer's
        :class:`~repro.service.cache.InstanceCache` uses to share one
        canonical instance (and its cached :class:`~repro.core.bitset.HotTables`)
        across concurrent jobs.  The digest covers the array shapes as well
        as their bytes, so a ``(2, 6)`` and a ``(3, 4)`` weights matrix
        with the same flat contents do not collide.  Arrays are already
        contiguous float64 (``__post_init__`` canonicalizes), making the
        byte view deterministic across processes and platforms of equal
        endianness.
        """
        if self._content_hash is None:
            import hashlib

            digest = hashlib.sha256()
            for array in (self.profits, self.weights, self.capacities):
                digest.update(str(array.shape).encode())
                digest.update(array.tobytes())
            object.__setattr__(self, "_content_hash", digest.hexdigest())
        return self._content_hash

    # ------------------------------------------------------------------ #
    # Feasibility / objective helpers (non-incremental reference versions)
    # ------------------------------------------------------------------ #
    def objective(self, x: np.ndarray) -> float:
        """Objective value ``c @ x`` of a 0/1 vector (reference, O(n))."""
        return float(self.profits @ np.asarray(x, dtype=np.float64))

    def loads(self, x: np.ndarray) -> np.ndarray:
        """Resource consumption ``A @ x`` of a 0/1 vector (reference, O(mn))."""
        return self.weights @ np.asarray(x, dtype=np.float64)

    def is_feasible(self, x: np.ndarray, *, atol: float = 1e-9) -> bool:
        """Whether ``A @ x <= b`` holds component-wise (within ``atol``)."""
        x = np.asarray(x)
        if x.shape != (self.n_items,):
            raise ValueError(f"solution vector must have shape ({self.n_items},); got {x.shape}")
        if not np.all((x == 0) | (x == 1)):
            raise ValueError("solution vector must be 0/1")
        return bool(np.all(self.loads(x) <= self.capacities + atol))

    def violation(self, x: np.ndarray) -> float:
        """Total constraint violation ``sum_i max(0, (A@x)_i - b_i)``.

        Zero iff feasible.  Used by strategic oscillation to quantify how
        deep into the infeasible region the search has wandered.
        """
        excess = self.loads(x) - self.capacities
        return float(np.clip(excess, 0.0, None).sum())

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def gap_to_reference(self, value: float) -> float | None:
        """Percentage deviation of ``value`` from the instance's reference.

        The reference is ``optimum`` when known, otherwise ``best_known``.
        Matches Table 1's "Dev. in %" column:
        ``100 * (ref - value) / ref``.  Returns ``None`` when no reference
        value is attached to the instance.
        """
        ref = self.optimum if self.optimum is not None else self.best_known
        if ref is None or ref == 0:
            return None
        return 100.0 * (ref - value) / ref

    def with_reference(
        self, *, optimum: float | None = None, best_known: float | None = None
    ) -> "MKPInstance":
        """Return a copy of the instance with reference values attached."""
        return MKPInstance(
            weights=self.weights,
            capacities=self.capacities,
            profits=self.profits,
            name=self.name,
            optimum=optimum if optimum is not None else self.optimum,
            best_known=best_known if best_known is not None else self.best_known,
        )

    def renamed(self, name: str) -> "MKPInstance":
        """Return a copy with a different ``name``."""
        return MKPInstance(
            weights=self.weights,
            capacities=self.capacities,
            profits=self.profits,
            name=name,
            optimum=self.optimum,
            best_known=self.best_known,
        )

    @staticmethod
    def from_lists(
        weights: Iterable[Iterable[float]],
        capacities: Iterable[float],
        profits: Iterable[float],
        **kwargs: object,
    ) -> "MKPInstance":
        """Build an instance from plain Python sequences (docs/tests sugar)."""
        return MKPInstance(
            weights=np.asarray(list(map(list, weights)), dtype=np.float64),
            capacities=np.asarray(list(capacities), dtype=np.float64),
            profits=np.asarray(list(profits), dtype=np.float64),
            **kwargs,  # type: ignore[arg-type]
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        ref = ""
        if self.optimum is not None:
            ref = f", optimum={self.optimum:g}"
        elif self.best_known is not None:
            ref = f", best_known={self.best_known:g}"
        return f"MKPInstance({self.name}, {self.size_label}{ref})"
