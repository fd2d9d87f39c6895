"""Reactive tabu search (Battiti & Tecchiolli, ORSA JoC 1994).

§4.1 discusses this as the main *sequential* alternative to the paper's
parallel dynamic tuning: "it consists in using aside the classic Tabu list
another data structure (hashing table) which contains objective function
values of all visited solutions.  The using of hashing function for MKP of
great size will produce a great number of collisions and this will lead to
an important overhead."

We implement the genuine mechanism so the A7 baseline panel can measure
that trade-off directly:

* every visited solution is hashed (full 0/1 vector digest — collision-free
  up to hash width, with the table size tracked as the overhead metric);
* a revisit multiplies the tenure by ``increase`` (reaction);
* after ``decrease_after`` moves without any revisit the tenure is shrunk
  by ``decrease`` (forgetting);
* ``escape_after`` revisits of *often-repeated* solutions trigger an escape:
  a random walk of ``escape_steps`` forced moves.

The move structure reuses the paper's own Drop/Add engine so that the only
difference measured is the tenure-control policy.
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

__all__ = ["ReactiveConfig", "ReactiveResult", "reactive_tabu_search"]


@dataclass(frozen=True)
class ReactiveConfig:
    """Reaction parameters (defaults follow Battiti & Tecchiolli)."""

    initial_tenure: int = 8
    increase: float = 1.2
    decrease: float = 0.9
    decrease_after: int = 50
    escape_after: int = 3
    escape_steps: int = 5
    max_tenure_fraction: float = 0.5
    nb_drop: int = 1

    def __post_init__(self) -> None:
        if self.initial_tenure < 1:
            raise ValueError("initial_tenure must be >= 1")
        if self.increase <= 1.0:
            raise ValueError("increase must be > 1")
        if not 0.0 < self.decrease < 1.0:
            raise ValueError("decrease must be in (0, 1)")
        if self.decrease_after < 1 or self.escape_after < 1 or self.escape_steps < 1:
            raise ValueError("counters must be >= 1")
        if not 0.0 < self.max_tenure_fraction <= 1.0:
            raise ValueError("max_tenure_fraction must be in (0, 1]")
        if self.nb_drop < 1:
            raise ValueError("nb_drop must be >= 1")


@dataclass
class ReactiveResult:
    best: Solution
    evaluations: int
    moves: int
    revisits: int
    escapes: int
    final_tenure: int
    hash_table_size: int


def reactive_tabu_search(
    instance: MKPInstance,
    budget: Budget,
    *,
    rng: int | None | np.random.Generator = None,
    config: ReactiveConfig | None = None,
    x_init: Solution | None = None,
) -> ReactiveResult:
    """Run reactive TS until the budget is exhausted."""
    gen = make_rng(rng)
    config = config or ReactiveConfig()
    budget.start()
    if x_init is None:
        x_init = random_solution(instance, gen)
    state = SearchState.from_solution(instance, x_init)
    tabu = TabuList(instance.n_items, config.initial_tenure)
    engine = MoveEngine(state, tabu, gen)
    best = state.snapshot()

    visited: dict[bytes, int] = {}  # solution digest -> visit count
    moves = 0
    revisits = 0
    escapes = 0
    moves_since_reaction = 0
    max_tenure = max(2, int(config.max_tenure_fraction * instance.n_items))

    while not budget.exhausted(
        evaluations=state.counters.move_evaluations, moves=moves, best_value=best.value
    ):
        record = engine.apply(config.nb_drop, best.value)
        moves += 1
        if record.hamming_step == 0:
            break
        if state.value > best.value:
            best = state.snapshot()
        tabu.tick()
        if record.touched:
            tabu.make_tabu(np.asarray(record.touched, dtype=np.intp))

        digest = state.x.tobytes()
        count = visited.get(digest, 0) + 1
        visited[digest] = count
        if count > 1:
            # Reaction: a revisit means the tenure is too short.
            revisits += 1
            moves_since_reaction = 0
            new_tenure = min(max_tenure, max(tabu.tenure + 1, int(tabu.tenure * config.increase)))
            tabu.set_tenure(new_tenure)
            if count >= config.escape_after:
                # Escape: forced random diversification walk.
                escapes += 1
                for _ in range(config.escape_steps):
                    packed = state.packed_items()
                    if packed.size == 0:
                        break
                    j = int(gen.choice(packed))
                    state.drop(j)
                    tabu.make_tabu(np.asarray([j], dtype=np.intp), extra_tenure=config.escape_steps)
                engine.add_step(best.value)
                visited[state.x.tobytes()] = visited.get(state.x.tobytes(), 0)
        else:
            moves_since_reaction += 1
            if moves_since_reaction >= config.decrease_after:
                moves_since_reaction = 0
                tabu.set_tenure(max(1, int(tabu.tenure * config.decrease)))

    return ReactiveResult(
        best=best,
        evaluations=state.counters.move_evaluations,
        moves=moves,
        revisits=revisits,
        escapes=escapes,
        final_tenure=tabu.tenure,
        hash_table_size=len(visited),
    )
