"""The two intensification procedures of §3.2.

Swap intensification
    From the best solution of the last local-search loop (``X_local``),
    exchange a packed component ``i`` against a free component ``j`` with
    ``c_j > c_i`` — "this exchange is realized for each couple (i, j)
    satisfying the previous conditions".  We additionally require the swap to
    preserve feasibility (the paper stays in the feasible domain here); since
    ``c_j > c_i`` every applied swap strictly improves the objective.

Strategic oscillation
    "crossing the feasible domain boundary by accepting infeasible solutions
    during a fixed number of iterations", then projecting back by excluding
    the items with large ``sum_i a_ij / c_j`` ratio.  The paper limits the
    depth of the infeasible excursion to bound the extra computing time
    (§3.2, citing [9]); ``depth`` is that limit.
"""

from __future__ import annotations

import numpy as np

from .construction import fill_greedily, repair
from .kernels import FIT_EPS
from .solution import SearchState, Solution

__all__ = ["apply_swaps", "strategic_oscillation"]


def apply_swaps(state: SearchState) -> int:
    """Apply all improving, feasibility-preserving (1,1)-swaps in place.

    Returns the number of swaps applied.  Packed items ``i`` are visited by
    increasing profit ``c_i`` (stably, so by index among equal profits);
    ``i`` is exchanged for the free item ``j`` of largest ``c_j > c_i``
    that fits once ``i`` is out, the lowest index on ties, and after every
    applied swap the scan restarts from the cheapest packed item.  The
    paper fixes no order; any order that applies every admissible couple is
    conformant because each applied swap strictly improves.  Every
    candidate checked (each free item richer than the visited ``i``) is
    charged to ``state.counters.intensify_evaluations``.
    """
    inst = state.instance
    counters = state.counters
    native = state.native()
    if native is not None:
        swaps, evaluations = native.swap(state)
        counters.intensify_evaluations += evaluations
        return swaps
    swaps = 0
    improved = True
    while improved:
        improved = False
        packed = state.packed_items()
        if packed.size == 0 or state.free_items().size == 0:
            break
        for i in packed[np.argsort(inst.profits[packed], kind="stable")]:
            slack_without_i = state.slack + inst.weights[:, i]
            free = state.free_items()
            richer = free[inst.profits[free] > inst.profits[i]]
            if richer.size == 0:
                continue
            counters.intensify_evaluations += int(richer.size)
            fits = np.all(
                inst.weights[:, richer] <= slack_without_i[:, None] + FIT_EPS,
                axis=0,
            )
            candidates = richer[fits]
            if candidates.size == 0:
                continue
            j = candidates[int(np.argmax(inst.profits[candidates]))]
            state.drop(int(i))
            state.add(int(j))
            swaps += 1
            improved = True
            break  # re-derive packed/free sets after a structural change
    return swaps


def strategic_oscillation(
    state: SearchState,
    depth: int,
    rng: np.random.Generator,
) -> Solution:
    """One depth-limited excursion into the infeasible region, in place.

    Forces up to ``depth`` additional items into the knapsack *ignoring*
    capacities (lowest aggregate density first, with random tie-breaking),
    then projects back onto the feasible region by ejecting the items with
    the largest ``sum_i a_ij / c_j`` ratio, and finally tops the solution up
    greedily.  Returns the resulting feasible snapshot; the forced adds
    and one full greedy pass are charged to
    ``state.counters.intensify_evaluations``.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0; got {depth}")
    native = state.native()
    if native is not None:
        state.counters.intensify_evaluations += native.oscillate(state, rng, depth)
        return state.snapshot()
    inst = state.instance
    free = state.free_items()
    if free.size > 0 and depth > 0:
        # Rank free items by density with random jitter for tie-breaking.
        order = free[np.argsort(inst.density[free] + rng.random(free.size) * 1e-12)]
        for j in order[:depth]:
            state.add(int(j))
        state.counters.intensify_evaluations += int(min(depth, order.size))
    repair(state)
    fill_greedily(state)
    state.counters.intensify_evaluations += int(inst.n_items)
    return state.snapshot()
