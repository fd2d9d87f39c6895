"""The sequential tabu-search thread — Figure 1 of the paper.

This is exactly the procedure each slave processor executes::

    PROCEDURE Tabu_search(X_init, Nb_div, Nb_int, Nb_local, Nb_Drop,
                          Lt_length, BestSol_array)
    1-  X = X_init; Lt = {}
    2-  for i = 0 .. Nb_div:
    3-    for j = 0 .. Nb_int:
    4-      X_local = X
    5-      move: X -> X' by a sequence of Nb_Drop drops then Adds
    6-      if F(X') > F(X*): X* = X'; X_local = X'
            elif F(X') > F(X_local): X_local = X'
    7-      if X' qualifies, insert into BestSol array
    8-      X = X'; update History
    9-      Lt += attributes of the move (tabu)
    10-     if F(X*) stalled for Nb_local iterations: break to 11
            else: goto 4
    11-   Intensification(X_local, X*)
    12-  Diversification(History, X)

Step 10 in the paper reads "go to 10, Else go to 4", an obvious typo for
"exit the loop" — the loop must end when the incumbent has stagnated for
``Nb_local`` iterations, otherwise intensification would never run.  The
conformance test ``tests/test_figure1_conformance.py`` checks our trace
against this control flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from ..rng import make_rng
from . import native
from .construction import random_solution
from .diversification import DiversificationConfig, diversify
from .instance import MKPInstance
from .intensification import strategic_oscillation, swap_intensification
from .memory import EliteArray, History
from .moves import MoveEngine
from .solution import SearchState, Solution
from .strategy import Strategy, StrategyBounds
from .tabu_list import TabuList
from .termination import Budget

__all__ = ["TabuSearch", "TabuSearchConfig", "TSResult", "IntensificationKind"]


class IntensificationKind(str, Enum):
    """Which §3.2 intensification procedure(s) step 11 runs."""

    NONE = "none"
    SWAP = "swap"
    OSCILLATION = "oscillation"
    BOTH = "both"


@dataclass(frozen=True)
class TabuSearchConfig:
    """Structural configuration shared by every thread of a run.

    These are the knobs the paper fixes globally (as opposed to the
    per-slave :class:`~repro.core.strategy.Strategy`, which the master
    retunes dynamically).
    """

    nb_div: int = 3
    elite_size: int = 8
    intensification: IntensificationKind = IntensificationKind.BOTH
    oscillation_depth: int = 5
    diversification: DiversificationConfig = field(default_factory=DiversificationConfig)
    bounds: StrategyBounds = field(default_factory=StrategyBounds)
    #: Add-step selection breadth (see :class:`~repro.core.moves.MoveEngine`).
    add_candidates: int = 2

    def __post_init__(self) -> None:
        if self.nb_div < 1:
            raise ValueError("nb_div must be >= 1")
        if self.elite_size < 1:
            raise ValueError("elite_size must be >= 1")
        if self.oscillation_depth < 0:
            raise ValueError("oscillation_depth must be >= 0")
        if self.add_candidates < 1:
            raise ValueError("add_candidates must be >= 1")


@dataclass
class TSResult:
    """Outcome of one tabu-search thread run.

    ``evaluations`` is the candidate-evaluation count that the farm model
    converts into virtual CPU time; ``improved`` is the SGP's scoring signal
    (final best strictly above the initial cost).
    """

    best: Solution
    elite: list[Solution]
    initial_value: float
    evaluations: int
    moves: int
    local_search_loops: int
    intensifications: int
    diversifications: int
    value_trace: list[float] = field(default_factory=list)

    @property
    def improved(self) -> bool:
        """§4.2: score += 1 iff ``C'_i > C_i`` (final beats initial)."""
        return self.best.value > self.initial_value


class TabuSearch:
    """One tabu-search thread over a 0–1 MKP instance.

    Parameters
    ----------
    instance:
        The problem.
    strategy:
        The slave's parameter set ``(Lt_length, Nb_drop, Nb_local)``.
    config:
        Structural configuration (see :class:`TabuSearchConfig`).
    rng:
        Seed or generator for all stochastic choices of this thread.
    on_move:
        Optional hook called after every compound move with the running
        thread (conformance tests use it to trace control flow, and
        ``tests/differential.py::per_move_reference`` to pin the per-move
        Python loop).  A thread with a hook runs every local-search loop in
        Python, never as the one C call.
    """

    def __init__(
        self,
        instance: MKPInstance,
        strategy: Strategy,
        config: TabuSearchConfig | None = None,
        rng: int | None | np.random.Generator = None,
        on_move: Callable[["TabuSearch"], None] | None = None,
    ) -> None:
        self.instance = instance
        self.strategy = strategy
        self.config = config or TabuSearchConfig()
        self.rng = make_rng(rng)
        self.on_move = on_move

        self.state: SearchState = SearchState.empty(instance)
        self.tabu = TabuList(instance.n_items, strategy.lt_length)
        self.history = History(instance.n_items)
        self.elite = EliteArray(self.config.elite_size, instance.n_items)
        self.best: Solution = self.state.snapshot()
        self.engine = MoveEngine(
            self.state, self.tabu, self.rng, add_candidates=self.config.add_candidates
        )
        #: Unified evaluation ledger shared by the move engine, the
        #: intensification procedures, and the budget checks (owned by the
        #: state).
        self.counters = self.state.counters
        self._trace_control_flow: list[str] | None = None
        #: the C local-search loop over this thread (built on first use)
        self._c_loop: native.NativeLoop | None = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def rebind(
        self,
        strategy: Strategy | None = None,
        rng: int | None | np.random.Generator = None,
    ) -> "TabuSearch":
        """Reset every per-run memory in place, optionally swapping inputs.

        After ``rebind(strategy, seed)`` the thread is bit-identical to a
        freshly constructed ``TabuSearch(instance, strategy, config,
        rng=seed)`` — same RNG stream, same zeroed short/long-term memories,
        same counter ledger — while reusing the preallocated arenas (state
        buffers, tabu expiry arrays, history counts) instead of reallocating
        them.  This is the warm-runtime reuse path of the parallel round
        loop (:mod:`repro.parallel.runtime`); the reset contract is pinned
        by ``tests/test_runtime.py`` and documented in DESIGN.md §5.4.
        """
        if strategy is not None:
            self.strategy = strategy
        self.rng = make_rng(rng)
        self.engine.rng = self.rng
        self.counters.reset()
        self.state.reset()
        self.tabu.reset(self.strategy.lt_length)
        self.history.reset()
        self.elite.clear()
        self.best = self.state.snapshot()
        self._trace_control_flow = None
        return self

    def run(
        self,
        x_init: Solution | None = None,
        budget: Budget | None = None,
    ) -> TSResult:
        """Execute the Figure-1 procedure and return the thread's result.

        ``x_init`` defaults to a random feasible solution drawn from this
        thread's generator.  ``budget`` (optional) additionally bounds the
        run for fixed-time experiments; the structural ``Nb_div``/``Nb_int``
        limits always apply.
        """
        budget = (budget or Budget.unlimited()).start()
        if x_init is None:
            x_init = random_solution(self.instance, self.rng)
        x = x_init.x
        if x.shape != (self.instance.n_items,):
            raise ValueError(
                f"solution vector must have shape ({self.instance.n_items},); got {x.shape}"
            )
        if not np.all((x == 0) | (x == 1)):
            raise ValueError("solution vector must be 0/1")

        # Step 1: X = X_init; Lt = {}.  The restore computes A @ x once; its
        # load gives the feasibility check (same formula and tolerance as
        # MKPInstance.is_feasible).
        self.state.restore(x_init)
        if not self.state.is_feasible:
            raise ValueError("initial solution must be feasible")
        self.best = self.state.snapshot()
        self.elite.offer(self.best)
        initial_value = x_init.value

        nb_int = self.config.bounds.nb_it(self.strategy)
        moves = 0
        loops = 0
        n_intensifications = 0
        n_diversifications = 0
        trace: list[float] = [self.best.value]

        def out_of_budget() -> bool:
            return budget.exhausted(
                evaluations=self.counters.total,
                moves=moves,
                best_value=self.best.value,
            )

        # Step 2: diversification rounds
        for _div_round in range(self.config.nb_div):
            # Step 3: intensification rounds ("Nb_int" = nb_it in §4.2)
            for _int_round in range(nb_int):
                if out_of_budget():
                    break
                self._note("local_search")
                # Steps 4–10: one local-search loop
                c_loop = self._native_loop(budget)
                if c_loop is not None:
                    x_local, loop_moves = self._c_local_search_loop(
                        c_loop, budget, moves, trace
                    )
                else:
                    x_local, loop_moves = self._local_search_loop(budget, moves, trace)
                moves += loop_moves
                loops += 1
                if out_of_budget():
                    break
                # Step 11: intensification around X_local / X*
                self._note("intensification")
                self._intensify(x_local)
                n_intensifications += 1
            if out_of_budget():
                break
            # Step 12: diversification from long-term memory
            self._note("diversification")
            new_start = diversify(
                self.state, self.history, self.tabu, self.config.diversification
            )
            self._register_candidate(new_start)
            n_diversifications += 1

        return TSResult(
            best=self.best,
            elite=self.elite.to_list(),
            initial_value=initial_value,
            evaluations=self.counters.total,
            moves=moves,
            local_search_loops=loops,
            intensifications=n_intensifications,
            diversifications=n_diversifications,
            value_trace=trace,
        )

    # ------------------------------------------------------------------ #
    # Figure 1, steps 4–10
    # ------------------------------------------------------------------ #
    def _local_search_loop(
        self, budget: Budget, moves_so_far: int, trace: list[float]
    ) -> tuple[Solution, int]:
        """Run compound moves until ``F(X*)`` stalls for ``Nb_local`` moves.

        Returns ``(X_local, number_of_moves)`` where ``X_local`` is the best
        solution met during this loop (Fig. 1 step 4/6 bookkeeping).
        """
        nb_local = self.strategy.nb_local
        x_local = self.state.snapshot()  # step 4
        stall = 0
        loop_moves = 0
        while stall < nb_local:
            if budget.exhausted(
                evaluations=self.counters.total,
                moves=moves_so_far + loop_moves,
                best_value=self.best.value,
            ):
                break
            # Step 5: the compound move
            record = self.engine.apply(self.strategy.nb_drop, self.best.value)
            loop_moves += 1
            if record.hamming_step == 0:
                # Degenerate: nothing could move (tiny instances); stop.
                break
            # Steps 6–7: incumbent / local-best / elite updates.  A Solution
            # snapshot is only materialized when some memory will retain it —
            # the value comparisons are plain floats and the elite test is
            # O(1), so non-qualifying moves (the vast majority late in a run)
            # skip the O(n) copy entirely.
            value = self.state.value
            candidate: Solution | None = None
            if value > self.best.value:
                candidate = self.state.snapshot()
                self.best = candidate
                x_local = candidate
                stall = 0
            else:
                if value > x_local.value:
                    candidate = self.state.snapshot()
                    x_local = candidate
                stall += 1
            if self.elite.qualifies(value):
                if candidate is None:
                    candidate = self.state.snapshot()
                self.elite.offer(candidate)
            # Step 8: History update
            self.history.record(self.state.x)
            # Step 9: tabu the move's attributes, advance the clock
            self.tabu.tick()
            if record.touched:
                self.tabu.make_tabu(np.asarray(record.touched, dtype=np.intp))
            trace.append(self.best.value)
            if self.on_move is not None:
                self.on_move(self)
        return x_local, loop_moves

    def _native_loop(self, budget: Budget) -> "native.NativeLoop | None":
        """The C loop when it may run this loop, else ``None``.

        :meth:`_local_search_loop` is the reference and runs instead when
        ``on_move`` is set (the hook sees every move), when the budget has
        a wall-clock cap (read per move), and wherever the compound move
        itself is not native: no native kernel (no cffi, float instances,
        ``use_bitset`` off) or an Add breadth above 2.
        """
        if self.on_move is not None or budget.wall_seconds is not None:
            return None
        state_native = self.state.native()
        if state_native is None or self.engine.add_candidates > 2:
            return None
        if self._c_loop is None:
            self._c_loop = native.NativeLoop(state_native, self.instance.n_items)
        return self._c_loop

    def _c_local_search_loop(
        self, c_loop: "native.NativeLoop", budget: Budget, moves_so_far: int,
        trace: list[float],
    ) -> tuple[Solution, int]:
        """Steps 4–10 in C, with :meth:`_local_search_loop`'s effects.

        The moves, X*/X_local/elite updates, ``History``, the tabu list,
        the counters and the trace all change exactly as in the Python
        loop; ``Solution`` objects are built only here, at loop exit.
        """
        x_local = self.state.snapshot()  # step 4
        out = c_loop.run(self, budget, moves_so_far, x_local.value, trace)
        if out.best_moved:
            self.best = x_local = Solution.trusted(c_loop.best_x.copy(), out.best_value)
        elif out.local_moved:
            x_local = Solution.trusted(c_loop.local_x.copy(), out.local_value)
        return x_local, out.loop_moves

    # ------------------------------------------------------------------ #
    # Figure 1, step 11
    # ------------------------------------------------------------------ #
    def _intensify(self, x_local: Solution) -> None:
        kind = self.config.intensification
        if kind is IntensificationKind.NONE:
            return
        if kind in (IntensificationKind.SWAP, IntensificationKind.BOTH):
            self.state.restore(x_local)
            improved = swap_intensification(self.state)
            self._register_candidate(improved)
            x_local = improved if improved.value > x_local.value else x_local
        if kind in (IntensificationKind.OSCILLATION, IntensificationKind.BOTH):
            self.state.restore(x_local)
            projected = strategic_oscillation(
                self.state, self.config.oscillation_depth, self.rng
            )
            self._register_candidate(projected)
        # Continue the search from the (possibly improved) solution the
        # intensification left in ``self.state``.

    def _register_candidate(self, candidate: Solution) -> None:
        """Fold an out-of-loop candidate into incumbent + elite memories."""
        if candidate.value > self.best.value:
            self.best = candidate
        self.elite.offer(candidate)

    # ------------------------------------------------------------------ #
    # Conformance tracing
    # ------------------------------------------------------------------ #
    def enable_control_flow_trace(self) -> list[str]:
        """Record phase labels as they execute (conformance tests)."""
        self._trace_control_flow = []
        return self._trace_control_flow

    def _note(self, label: str) -> None:
        if self._trace_control_flow is not None:
            self._trace_control_flow.append(label)


def expected_phase_sequence(nb_div: int, nb_int: int) -> list[str]:
    """The Figure-1 phase order for given loop bounds (test helper).

    ``nb_div`` rounds of (``nb_int`` × [local_search, intensification])
    followed by one diversification.
    """
    if nb_div < 1 or nb_int < 1:
        raise ValueError("loop bounds must be >= 1")
    seq: list[str] = []
    for _ in range(nb_div):
        for _ in range(nb_int):
            seq.append("local_search")
            seq.append("intensification")
        seq.append("diversification")
    return seq
