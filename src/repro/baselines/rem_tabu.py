"""Tabu search with Reverse Elimination Method list management.

§4.1: "Among these methods, we quote the Reverse Elimination Method (REM)
[Dammeyer & Voss].  This method is based on the building of a list
containing all the moves executed from the initial configuration (the
running list).  In spite of its good performances for a set of problems,
this method has the drawback of having a time overhead proportional to the
number of executed iterations." — which is exactly why the paper prefers
parallel dynamic tuning.  We implement REM so the A7 panel can measure that
linear-in-iterations overhead.

Mechanism (Glover's residual-cancellation sequence): keep the *running
list* of all attribute flips.  Before choosing move ``t+1``, walk the
running list backwards maintaining the symmetric-difference set ("residual
set") between the current solution and each previously visited solution.
Whenever the residual set shrinks to a single attribute, flipping exactly
that attribute would recreate a visited solution — so that attribute is
tabu for the next move.  This yields *exact* cycle prevention (necessary
and sufficient one-step lookahead), at O(t) work per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.construction import random_solution
from ..core.instance import MKPInstance
from ..core.moves import MoveEngine
from ..core.solution import SearchState, Solution
from ..core.tabu_list import TabuList
from ..core.termination import Budget
from ..rng import make_rng

__all__ = ["REMConfig", "REMResult", "rem_tabu_search"]


@dataclass(frozen=True)
class REMConfig:
    """REM knobs. ``nb_drop`` controls the paper-style compound move."""

    nb_drop: int = 1
    #: cap on the backward trace per iteration (None = exact/unbounded,
    #: the authentic linear-overhead behaviour)
    trace_limit: int | None = None

    def __post_init__(self) -> None:
        if self.nb_drop < 1:
            raise ValueError("nb_drop must be >= 1")
        if self.trace_limit is not None and self.trace_limit < 1:
            raise ValueError("trace_limit must be >= 1 or None")


@dataclass
class REMResult:
    best: Solution
    evaluations: int
    moves: int
    running_list_length: int
    #: total backward-trace steps (the REM overhead the paper criticizes)
    trace_steps: int


def _reverse_elimination(
    running_list: list[list[int]],
    trace_limit: int | None,
) -> tuple[set[int], int]:
    """One backward sweep; returns (tabu attributes, trace steps done).

    The residual set starts empty (distance of the current solution to
    itself) and accumulates flips walking back in time; a singleton
    residual set marks its lone attribute tabu.
    """
    residual: set[int] = set()
    tabu: set[int] = set()
    steps = 0
    for flips in reversed(running_list):
        for attr in flips:
            if attr in residual:
                residual.discard(attr)
            else:
                residual.add(attr)
        steps += 1
        if len(residual) == 1:
            tabu.add(next(iter(residual)))
        if trace_limit is not None and steps >= trace_limit:
            break
    return tabu, steps


def rem_tabu_search(
    instance: MKPInstance,
    budget: Budget,
    *,
    rng: int | None | np.random.Generator = None,
    config: REMConfig | None = None,
    x_init: Solution | None = None,
) -> REMResult:
    """Run TS with REM-managed tabu status until the budget is spent."""
    gen = make_rng(rng)
    config = config or REMConfig()
    budget.start()
    if x_init is None:
        x_init = random_solution(instance, gen)
    state = SearchState.from_solution(instance, x_init)
    # Tenure-1 list: REM decides tabu status itself each iteration; we use
    # the TabuList purely as the per-iteration attribute mask the move
    # engine consults.
    tabu = TabuList(instance.n_items, tenure=1)
    engine = MoveEngine(state, tabu, gen)
    best = state.snapshot()

    running_list: list[list[int]] = []
    moves = 0
    trace_steps = 0

    while not budget.exhausted(
        evaluations=state.counters.move_evaluations, moves=moves, best_value=best.value
    ):
        record = engine.apply(config.nb_drop, best.value)
        moves += 1
        if record.hamming_step == 0:
            break
        running_list.append(record.touched)
        if state.value > best.value:
            best = state.snapshot()
        # REM sweep: recompute next iteration's tabu set from scratch.
        tabu.tick()
        forbidden, steps = _reverse_elimination(running_list, config.trace_limit)
        trace_steps += steps
        if forbidden:
            tabu.make_tabu(np.fromiter(forbidden, dtype=np.intp, count=len(forbidden)))

    return REMResult(
        best=best,
        evaluations=state.counters.move_evaluations,
        moves=moves,
        running_list_length=len(running_list),
        trace_steps=trace_steps,
    )
