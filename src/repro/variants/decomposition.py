"""Problem-decomposition parallelism (§2, source 3 — Taillard's approach).

"The third source of parallelism in TS has been used by Taillard to solve
the vehicle routing problem": partition the problem, search the parts in
parallel, recombine.  For the 0–1 MKP the natural decomposition is over
*items*:

1. partition the item set into ``K`` blocks (round-robin over the
   profit-density order, so every block sees the full quality spectrum);
2. give each block a proportional share of every capacity and run an
   independent tabu-search thread on the sub-instance;
3. concatenate the block solutions, repair any capacity violation (shares
   are exact, so none occurs with exact arithmetic), greedily top up with
   leftovers, and polish with a short full-instance tabu search.

The decomposition is *lossy* — an optimal solution rarely splits its
capacity usage proportionally across blocks — which is why the paper
chose cooperating full-instance threads instead.  Benchmark A11 quantifies
the loss against CTS2 at equal budgets.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.construction import fill_greedily, repair
from ..core.instance import MKPInstance
from ..core.solution import SearchState
from ..core.strategy import StrategyBounds
from ..core.tabu_search import TabuSearch, TabuSearchConfig
from ..core.termination import Budget
from ..farm.machine import ALPHA_FARM, FarmModel
from ..farm.trace import EventKind, FarmTrace
from ..master.result import ParallelRunResult, RoundStats
from ..rng import derive_rng, make_rng
from .runner import _resolve_budget

__all__ = ["partition_items", "solve_decomposition"]


def partition_items(instance: MKPInstance, k: int) -> list[np.ndarray]:
    """Split items into ``k`` blocks, round-robin over density order.

    Round-robin (rather than contiguous slicing) gives every block a mix
    of high- and low-density items, so each sub-knapsack is a miniature of
    the full problem.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    order = np.argsort(instance.density, kind="stable")
    return [np.sort(order[i::k]) for i in range(min(k, instance.n_items))]


def _sub_instance(instance: MKPInstance, items: np.ndarray, share: float) -> MKPInstance:
    return MKPInstance(
        weights=instance.weights[:, items],
        capacities=instance.capacities * share,
        profits=instance.profits[items],
        name=f"{instance.name}-block",
    )


def solve_decomposition(
    instance: MKPInstance,
    *,
    n_blocks: int = 4,
    rng_seed: int = 0,
    max_evaluations: int | None = None,
    virtual_seconds: float | None = None,
    farm: FarmModel = ALPHA_FARM,
    polish_fraction: float = 0.25,
) -> ParallelRunResult:
    """Decompose, solve blocks in (simulated-)parallel, merge, polish.

    ``max_evaluations``/``virtual_seconds`` is the per-processor budget,
    exactly as for the other variants; each block thread gets the full
    per-processor budget minus the polish share (``polish_fraction``),
    which runs on one processor afterwards.
    """
    max_evaluations = _resolve_budget(
        instance, farm, max_evaluations, virtual_seconds
    ).max_evaluations
    if not 0.0 <= polish_fraction < 1.0:
        raise ValueError("polish_fraction must be in [0, 1)")

    t0 = time.perf_counter()
    rng = make_rng(rng_seed)
    bounds = StrategyBounds()
    config = TabuSearchConfig(nb_div=1_000_000, bounds=bounds)
    blocks = partition_items(instance, n_blocks)
    share = 1.0 / len(blocks)
    block_budget = int(max_evaluations * (1.0 - polish_fraction))

    trace = FarmTrace()
    m = instance.n_constraints
    x = np.zeros(instance.n_items, dtype=np.int8)
    block_evals = []
    for b, items in enumerate(blocks):
        sub = _sub_instance(instance, items, share)
        thread = TabuSearch(
            sub,
            bounds.random(rng),
            config=config,
            rng=derive_rng(rng_seed, 3, b),
        )
        result = thread.run(budget=Budget(max_evaluations=block_budget))
        x[items[result.best.x.astype(bool)]] = 1
        dt = farm.compute_seconds(result.evaluations, m)
        trace.record(b, EventKind.COMPUTE, 0.0, dt, f"block-{b}")
        block_evals.append(result.evaluations)

    # Merge phase: proportional shares guarantee feasibility up to float
    # rounding; repair defensively, then top up and polish.
    state = SearchState(instance, x)
    repair(state)
    fill_greedily(state)
    merged = state.snapshot()

    polish_budget = max_evaluations - block_budget
    best = merged
    polish_evals = 0
    if polish_budget > 0:
        polish = TabuSearch(
            instance,
            bounds.random(rng),
            config=config,
            rng=derive_rng(rng_seed, 4),
        )
        polished = polish.run(x_init=merged, budget=Budget(max_evaluations=polish_budget))
        polish_evals = polished.evaluations
        if polished.best.value > best.value:
            best = polished.best

    block_makespan = max(
        (farm.compute_seconds(e, m) for e in block_evals), default=0.0
    )
    polish_seconds = farm.compute_seconds(polish_evals, m)
    trace.record(
        0, EventKind.COMPUTE, block_makespan, block_makespan + polish_seconds, "polish"
    )
    total_evals = sum(block_evals) + polish_evals
    stats = RoundStats(
        round_index=0,
        best_value=best.value,
        round_virtual_seconds=block_makespan + polish_seconds,
        slave_virtual_seconds={
            i: farm.compute_seconds(e, m) for i, e in enumerate(block_evals)
        },
        communication_seconds=0.0,
        evaluations=total_evals,
        improved_slaves=len(blocks),
    )
    return ParallelRunResult(
        variant="DECOMP",
        best=best,
        rounds=[stats],
        total_evaluations=total_evals,
        virtual_seconds=block_makespan + polish_seconds,
        wall_seconds=time.perf_counter() - t0,
        n_slaves=len(blocks),
        trace=trace,
        bytes_sent=0,
        value_history=[merged.value, best.value],
    )
