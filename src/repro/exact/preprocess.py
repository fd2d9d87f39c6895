"""Problem-size reduction for the 0–1 MKP.

The Fréville–Plateau benchmark the paper uses was published as "Hard 0-1
test problems *for size reduction methods*" — these are the reductions such
methods apply.  We implement the safe, cheap ones:

* **Redundant constraint elimination** — drop constraint ``i`` when
  ``Σ_j a_ij <= b_i`` (it can never be violated).
* **Infeasible item fixing** — fix ``x_j = 0`` when ``a_ij > b_i`` for some
  ``i`` (the item fits in no solution).
* **LP reduced-cost fixing** — with LP value ``z_LP``, dual-feasible
  reduced costs ``r_j`` and a known feasible value ``z_inc``: a nonbasic
  variable at 0 with ``z_LP - |r_j| <= z_inc`` can be fixed at 0, and
  symmetrically at 1 (classic variable pegging).

:func:`reduce_instance` composes them and returns a :class:`Reduction`
carrying the mapping back to the original variable space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.instance import MKPInstance
from .bounds import solve_lp_relaxation

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..core.reduction import FixationPattern

__all__ = ["Reduction", "reduce_instance", "reduce_to_core"]


@dataclass(frozen=True)
class Reduction:
    """A reduced instance plus the recipe to lift its solutions back.

    ``kept_items[j']`` is the original index of reduced variable ``j'``;
    ``fixed_one`` are original indices pegged to 1 (their profit is *not*
    included in the reduced instance's objective — :meth:`lift` adds it
    back); ``fixed_zero`` are original indices pegged to 0.
    """

    original: MKPInstance
    reduced: MKPInstance
    kept_items: np.ndarray
    kept_constraints: np.ndarray
    fixed_one: np.ndarray
    fixed_zero: np.ndarray

    @property
    def fixed_profit(self) -> float:
        """Objective contribution of the variables pegged at 1."""
        return float(self.original.profits[self.fixed_one].sum())

    def lift(self, x_reduced: np.ndarray) -> np.ndarray:
        """Map a reduced-space 0/1 vector (or a block of row vectors) to the
        original space."""
        x_reduced = np.asarray(x_reduced)
        if x_reduced.ndim not in (1, 2) or x_reduced.shape[-1] != self.kept_items.size:
            raise ValueError(
                f"expected reduced vector of length {self.kept_items.size}; "
                f"got {x_reduced.shape}"
            )
        x = np.zeros((*x_reduced.shape[:-1], self.original.n_items), dtype=np.int8)
        x[..., self.kept_items] = x_reduced
        x[..., self.fixed_one] = 1
        return x

    def lift_value(self, reduced_value: float) -> float:
        """Map a reduced-space objective value to the original space."""
        return reduced_value + self.fixed_profit


def reduce_instance(
    instance: MKPInstance,
    *,
    incumbent_value: float | None = None,
    use_reduced_costs: bool = True,
) -> Reduction:
    """Apply all safe reductions; never changes the optimal value.

    ``incumbent_value`` (a known feasible objective value) enables the
    reduced-cost pegging; without it only the structural reductions run.
    """
    m, n = instance.shape

    # --- structural constraint redundancy -------------------------------
    row_sums = instance.weights.sum(axis=1)
    kept_constraints = np.flatnonzero(row_sums > instance.capacities + 1e-9)
    if kept_constraints.size == 0:
        # Every constraint is redundant: all-ones is optimal. Keep one
        # constraint so the reduced object is still a valid MKPInstance.
        kept_constraints = np.array([0])

    # --- items that fit nowhere ----------------------------------------
    misfit = np.any(instance.weights > instance.capacities[:, None] + 1e-9, axis=0)
    fixed_zero_mask = misfit.copy()
    fixed_one_mask = np.zeros(n, dtype=bool)

    # --- LP reduced-cost pegging ----------------------------------------
    if use_reduced_costs and incumbent_value is not None:
        lp = solve_lp_relaxation(instance)
        # Reduced costs w.r.t. the box bounds: r_j = c_j - u·A_j
        reduced_costs = instance.profits - lp.duals @ instance.weights
        gap = lp.value - incumbent_value
        if gap >= -1e-9:
            at_zero = (lp.x <= 1e-9) & ~fixed_zero_mask
            # Raising x_j from 0 costs at least -r_j (r_j <= 0 at optimal
            # nonbasic-at-lower variables): peg when even the best case
            # cannot beat the incumbent.
            peg0 = at_zero & (lp.value + reduced_costs < incumbent_value - 1e-9)
            fixed_zero_mask |= peg0
            at_one = lp.x >= 1 - 1e-9
            peg1 = at_one & (lp.value - reduced_costs < incumbent_value - 1e-9)
            fixed_one_mask |= peg1 & ~fixed_zero_mask

    kept_items = np.flatnonzero(~(fixed_zero_mask | fixed_one_mask))
    fixed_one = np.flatnonzero(fixed_one_mask)
    fixed_zero = np.flatnonzero(fixed_zero_mask)

    if kept_items.size == 0:
        # Fully solved by pegging; emit a trivial 1-variable instance that
        # cannot change the objective (profit epsilon-free: weight exceeds
        # capacity so the variable is forced to 0... but weights must allow
        # construction). Simplest: keep one pegged-zero variable.
        kept_items = np.array([0]) if n > 0 else kept_items
        fixed_zero = np.setdiff1d(fixed_zero, kept_items)

    new_capacities = (
        instance.capacities[kept_constraints]
        - instance.weights[np.ix_(kept_constraints, fixed_one)].sum(axis=1)
    )
    if np.any(new_capacities < -1e-9):
        raise RuntimeError(
            "reduced-cost pegging produced an infeasible fixation; "
            "this indicates an invalid incumbent_value"
        )
    reduced = MKPInstance(
        weights=instance.weights[np.ix_(kept_constraints, kept_items)],
        capacities=np.clip(new_capacities, 0.0, None),
        profits=instance.profits[kept_items],
        name=f"{instance.name}-reduced",
    )
    return Reduction(
        original=instance,
        reduced=reduced,
        kept_items=kept_items,
        kept_constraints=kept_constraints,
        fixed_one=fixed_one,
        fixed_zero=fixed_zero,
    )


def reduce_to_core(
    instance: MKPInstance, pattern: "FixationPattern"
) -> Reduction:
    """Build the reduced instance a fixation pattern describes.

    Unlike :func:`reduce_instance` (which *proves* its peggings optimal via
    reduced costs and an incumbent), this is the heuristic core-fixing
    construction of :class:`~repro.core.reduction.CoreSelector`: the free
    variables are exactly ``pattern.core_mask``, everything else is pinned
    to ``pattern.fixed_values``, and every constraint is kept so the
    reduced row space matches the original (lifted loads stay comparable).

    Feasibility is guaranteed by the selector's invariant — only variables
    at the LP upper bound are ever pinned to 1, so any subset of them fits
    within the capacities (module docstring of :mod:`repro.core.reduction`);
    the defensive check below turns a violated invariant into a loud error
    instead of an infeasible slave.
    """
    core_mask = np.ascontiguousarray(pattern.core_mask, dtype=bool)
    if core_mask.shape != (instance.n_items,):
        raise ValueError(
            f"pattern covers {core_mask.shape[0]} items; instance has "
            f"{instance.n_items}"
        )
    if not core_mask.any():
        raise ValueError("pattern must leave at least one variable free")
    fixed_values = np.ascontiguousarray(pattern.fixed_values, dtype=np.int8)
    kept_items = np.flatnonzero(core_mask)
    fixed_one = np.flatnonzero(~core_mask & (fixed_values == 1))
    fixed_zero = np.flatnonzero(~core_mask & (fixed_values == 0))
    kept_constraints = np.arange(instance.n_constraints)

    new_capacities = instance.capacities - instance.weights[:, fixed_one].sum(axis=1)
    if np.any(new_capacities < -1e-9):
        raise RuntimeError(
            "fixation pattern pins items to 1 beyond the capacities; "
            "the selector's LP-upper-bound invariant was violated"
        )
    reduced = MKPInstance(
        weights=instance.weights[:, kept_items],
        capacities=np.clip(new_capacities, 0.0, None),
        profits=instance.profits[kept_items],
        name=f"{instance.name}-core{kept_items.size}",
    )
    return Reduction(
        original=instance,
        reduced=reduced,
        kept_items=kept_items,
        kept_constraints=kept_constraints,
        fixed_one=fixed_one,
        fixed_zero=fixed_zero,
    )
