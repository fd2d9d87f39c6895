"""Initial-solution constructors and the feasibility repair operator.

The master's ISP needs three ways of producing starting points (§4.2):

* keep a slave's previous best (no construction needed),
* substitute the global best (no construction needed),
* generate "a new randomly generated solution" — :func:`random_solution`.

The slaves and the examples additionally use a density-guided greedy
constructor (:func:`greedy_solution`), which is the classic Senju–Toyoda-style
primal heuristic, and :func:`repair`, which projects an infeasible 0/1 vector
onto the feasible region by ejecting the least interesting items (largest
``sum_i a_ij / c_j``) — the same projection rule strategic oscillation uses.
"""

from __future__ import annotations

import numpy as np

from ..rng import make_rng
from .instance import MKPInstance
from .kernels import FIT_EPS
from .solution import SearchState, Solution

__all__ = ["greedy_solution", "random_solution", "repair", "fill_greedily"]


def fill_greedily(state: SearchState, order: np.ndarray | None = None) -> None:
    """Add items to ``state`` in ``order`` while they fit; in place.

    When ``order`` is ``None`` items are tried by increasing density
    ``sum_i a_ij / c_j`` (best payoff per unit of aggregate weight first).
    This is the paper's Add step completion rule: "Adding object to the
    knapsack is realized until no object can be added."
    """
    inst = state.instance
    if order is None:
        order = np.argsort(inst.density, kind="stable")
    native = state.native()
    if native is not None and native.fill(state, order):
        return
    for j in order:
        if state.x[j]:
            continue
        col = inst.weights[:, j]
        if np.all(col <= state.slack + FIT_EPS):
            state.add(j)


def greedy_solution(instance: MKPInstance) -> Solution:
    """Deterministic greedy solution by increasing aggregate-density order."""
    state = SearchState.empty(instance)
    fill_greedily(state)
    return state.snapshot()


def random_solution(
    instance: MKPInstance,
    rng: int | None | np.random.Generator = None,
    scratch: SearchState | None = None,
) -> Solution:
    """Random feasible solution: greedy fill in a uniformly random item order.

    Always feasible (items are only added when they fit), and maximal (no
    further item fits) — matching the solutions the paper's slaves start
    from after a random restart.  ``scratch``, a state over ``instance``,
    is reset and refilled instead of building a new one (and with it new
    buffers); callers that restart often keep one.
    """
    gen = make_rng(rng)
    if scratch is None:
        state = SearchState.empty(instance)
    else:
        state = scratch
        state.reset()
    order = gen.permutation(instance.n_items)
    fill_greedily(state, order)
    return state.snapshot()


def repair(state: SearchState) -> int:
    """Project an infeasible state onto the feasible region, in place.

    Repeatedly ejects the packed item with the largest density
    ``sum_i a_ij / c_j`` (the "less interesting objects", §3.2) until all
    constraints hold.  Returns the number of items dropped.  No-op on an
    already-feasible state.
    """
    inst = state.instance
    dropped = 0
    while not state.is_feasible:
        packed = state.packed_items()
        if packed.size == 0:  # pragma: no cover - impossible with a>=0, b>=0
            raise RuntimeError("empty solution is infeasible: inconsistent instance")
        worst = packed[int(np.argmax(inst.density[packed]))]
        state.drop(worst)
        dropped += 1
    return dropped
