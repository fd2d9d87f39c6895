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
from .kernels import FIT_EPS, KernelCounters
from .solution import SearchState, Solution

__all__ = ["swap_intensification", "strategic_oscillation", "IntensificationStats"]


class IntensificationStats:
    """Bookkeeping shared by both procedures (feeds the farm cost model).

    Evaluation counts are written to a :class:`~repro.core.kernels.KernelCounters`
    (``intensify_evaluations``), so a thread's move engine and its
    intensification phases share one ledger; pass the thread's counters to
    join it, or omit them for a standalone ledger.
    """

    def __init__(self, counters: KernelCounters | None = None) -> None:
        self.counters = counters if counters is not None else KernelCounters()
        self.swaps_applied = 0
        self.oscillations = 0

    @property
    def evaluations(self) -> int:
        return self.counters.intensify_evaluations

    @evaluations.setter
    def evaluations(self, value: int) -> None:
        self.counters.intensify_evaluations = int(value)

    def reset(self) -> None:
        """Zero the procedure tallies (the shared counters reset separately)."""
        self.swaps_applied = 0
        self.oscillations = 0


def swap_intensification(
    state: SearchState,
    stats: IntensificationStats | None = None,
) -> Solution:
    """Apply all improving, feasibility-preserving (1,1)-swaps in place.

    ``state`` should hold ``X_local`` on entry; on exit it holds the swapped
    solution, which is returned as a snapshot.  Pairs are visited in
    decreasing order of the profit gain ``c_j - c_i`` so the most promising
    exchanges land first (the paper fixes no order; any order that applies
    every admissible couple is conformant because each applied swap strictly
    improves and a pair is only admissible once).
    """
    inst = state.instance
    stats = stats or IntensificationStats()
    kernel = state.kernel
    native = kernel.native()
    if native is not None:
        swaps, evaluations = native.swap(kernel)
        stats.swaps_applied += swaps
        stats.evaluations += evaluations
        return state.snapshot()
    use_words = kernel.use_bitset
    profit_order = inst.hot.profit_order if use_words else None
    improved = True
    while improved:
        improved = False
        packed = state.packed_items()
        if packed.size == 0 or state.free_items().size == 0:
            break
        # For each packed i (cheapest profits first), find the best free j
        # with c_j > c_i that fits once i is removed.  The word path and the
        # elementwise path visit the identical candidate sets and charge the
        # identical evaluation counts (pinned by ``tests/test_bitset.py``).
        for i in packed[np.argsort(inst.profits[packed], kind="stable")]:
            if use_words:
                # {j free : c_j > c_i} as one suffix-bitset row AND.
                cnt = profit_order.sorted_profits.searchsorted(
                    inst.profits[i], side="right"
                )
                rich_words = np.bitwise_and(
                    kernel.free_words, profit_order.suffix[cnt]
                )
                n_richer = int.from_bytes(
                    rich_words.tobytes(), "little"
                ).bit_count()
                if n_richer == 0:
                    continue
                stats.evaluations += n_richer
                cand_words = kernel.fitting_words_without(int(i), rich_words)
                candidates = kernel.decode_words_u8(cand_words.view(np.uint8))
            else:
                slack_without_i = state.slack + inst.weights[:, i]
                free = state.free_items()
                richer = free[inst.profits[free] > inst.profits[i]]
                if richer.size == 0:
                    continue
                stats.evaluations += int(richer.size)
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
            stats.swaps_applied += 1
            improved = True
            break  # re-derive packed/free sets after a structural change
    return state.snapshot()


def strategic_oscillation(
    state: SearchState,
    depth: int,
    rng: np.random.Generator,
    stats: IntensificationStats | None = None,
) -> Solution:
    """One depth-limited excursion into the infeasible region, in place.

    Forces up to ``depth`` additional items into the knapsack *ignoring*
    capacities (lowest aggregate density first, with random tie-breaking),
    then projects back onto the feasible region by ejecting the items with
    the largest ``sum_i a_ij / c_j`` ratio, and finally tops the solution up
    greedily.  Returns the resulting feasible snapshot.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0; got {depth}")
    inst = state.instance
    stats = stats or IntensificationStats()
    stats.oscillations += 1
    free = state.free_items()
    if free.size > 0 and depth > 0:
        # Rank free items by density with random jitter for tie-breaking.
        order = free[np.argsort(inst.density[free] + rng.random(free.size) * 1e-12)]
        for j in order[:depth]:
            state.add(int(j))
        stats.evaluations += int(min(depth, order.size))
    repair(state)
    fill_greedily(state)
    stats.evaluations += int(state.instance.n_items)
    return state.snapshot()
