"""ISP — the Initial Solution generation Procedure (§4.2).

"As a first step, for each entry i, the next initial solution S_i will be
the best solution found by the processor i.  Nevertheless, this solution
will be substituted by another solution if one of the following conditions
happens:

1. Its cost C(S_i) is less than a fraction (alpha) of the best cost found by
   all processors since the beginning of the search (C(S*)).  In this case,
   S* will be assigned to S_i.  [solution pooling à la Toulouse et al.]
2. An initial solution S_i has not been modified during a fixed number of
   iterations: it will be substituted by a new randomly generated solution."

"By changing dynamically the value of the parameter alpha, it is possible to
force or to forbid threads to realize search in the same region" — a large
alpha pulls most slaves onto S* (macro-intensification); a small alpha plus
the random injections of rule 2 spreads them out (macro-diversification).
:class:`AlphaController` implements that adaptation: raise alpha while the
global best keeps improving, decay it when the search stalls.

The :class:`ISPDecision` solutions chosen here are exactly what the master
serializes into each round's ``SlaveTask``.  They are packed
:class:`~repro.core.solution.Solution` objects: the task frame carries
their packed bits as they are, and no ``x`` vector is unpacked on the
master to hand one out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.construction import random_solution
from ..core.instance import MKPInstance
from ..core.solution import SearchState, Solution
from .datastruct import SlaveEntry

__all__ = ["ISPConfig", "AlphaController", "generate_initial_solutions", "ISPDecision"]


@dataclass(frozen=True)
class ISPConfig:
    """Tunables of the ISP.

    ``stagnation_limit`` is the paper's "fixed number of iterations" of
    rule 2 (in units of search rounds).
    """

    alpha: float = 0.98
    stagnation_limit: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1]; got {self.alpha}")
        if self.stagnation_limit < 1:
            raise ValueError("stagnation_limit must be >= 1")


@dataclass
class AlphaController:
    """Dynamic alpha adaptation (macro intensification/diversification).

    The controller raises alpha by ``step`` after every round that improved
    the global best (pull the pack toward the promising region) and lowers
    it by ``step`` after every round that did not (let threads drift apart
    and rely on rule-2 random restarts) — the paper's "changing dynamically
    the value of alpha" made concrete.
    """

    alpha: float = 0.98
    step: float = 0.005
    alpha_min: float = 0.90
    alpha_max: float = 0.995

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha_min <= self.alpha <= self.alpha_max <= 1.0:
            raise ValueError(
                "require 0 < alpha_min <= alpha <= alpha_max <= 1; got "
                f"{self.alpha_min}, {self.alpha}, {self.alpha_max}"
            )
        if self.step < 0:
            raise ValueError("step must be >= 0")

    def update(self, global_best_improved: bool) -> float:
        if global_best_improved:
            self.alpha = min(self.alpha_max, self.alpha + self.step)
        else:
            self.alpha = max(self.alpha_min, self.alpha - self.step)
        return self.alpha


@dataclass(frozen=True)
class ISPDecision:
    """Audit record of one slave's ISP outcome (tested + traced)."""

    slave_id: int
    rule: str  # "keep" | "pool" | "restart"
    solution: Solution


def generate_initial_solutions(
    entries: list[SlaveEntry],
    global_best: Solution,
    instance: MKPInstance,
    config: ISPConfig,
    rng: np.random.Generator,
    scratch: SearchState | None = None,
) -> list[ISPDecision]:
    """Apply the two ISP rules to every entry; mutates stagnation counters.

    Entries must already hold the latest round's results (their
    ``best_solutions`` merged and ``stagnant_rounds`` updated by the master
    loop).  Returns one decision per slave, in slave order.  Rule-2
    restarts refill ``scratch`` (a state over ``instance``) when given.
    """
    decisions: list[ISPDecision] = []
    threshold = config.alpha * global_best.value
    for entry in entries:
        own_best = entry.best if entry.best is not None else entry.init_solution
        if entry.stagnant_rounds >= config.stagnation_limit:
            # Rule 2: random restart for a stagnant thread.
            fresh = random_solution(instance, rng, scratch)
            entry.stagnant_rounds = 0
            decisions.append(ISPDecision(entry.slave_id, "restart", fresh))
        elif own_best.value < threshold:
            # Rule 1: pool — pull the laggard onto the global best.
            decisions.append(ISPDecision(entry.slave_id, "pool", global_best))
        else:
            decisions.append(ISPDecision(entry.slave_id, "keep", own_best))
        entry.init_solution = decisions[-1].solution
    return decisions
