"""Termination criteria for a tabu-search thread.

The paper runs each slave for a structural budget (``Nb_div`` × ``Nb_int``
local-search/intensification cycles), but the evaluation section compares
approaches "for a fixed execution time" (Table 2).  :class:`Budget` unifies
both: a structural run simply leaves the evaluation/time limits infinite,
while the fixed-time experiments cap ``max_evaluations`` (virtual time on the
simulated farm is proportional to candidate evaluations) or install a
wall-clock ``deadline`` for the real multiprocessing backend.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = ["Budget", "CancelToken"]


class CancelToken:
    """Cooperative, thread-safe cancellation flag for a master-driven run.

    The service layer (``repro.service``) hands one token per job to the
    :class:`~repro.master.master.MasterProcess`, which checks it at every
    round boundary — between ``run_round`` calls, never inside one — so a
    cancelled run always leaves its backend in the clean between-rounds
    state a new job can lease immediately.  ``cancel()`` may be called from
    any thread (the job manager's event loop lives in a different thread
    than the blocking solve).
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent, thread-safe)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._event.is_set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CancelToken(cancelled={self.cancelled})"


@dataclass
class Budget:
    """Composite stopping rule, checked between compound moves.

    Parameters
    ----------
    max_evaluations:
        Cap on cumulative candidate evaluations (``None`` = unlimited).
        This is the deterministic "execution time" knob used by the
        virtual-time farm experiments.
    max_moves:
        Cap on compound moves (``None`` = unlimited).
    wall_seconds:
        Real-time cap measured from :meth:`start` (``None`` = unlimited).
        Only meaningful for the multiprocessing backend.
    target_value:
        Stop as soon as the incumbent reaches this objective value
        (``None`` = disabled).  Used by time-to-target experiments and the
        FP-57 "optimum reached" benchmark.
    """

    max_evaluations: int | None = None
    max_moves: int | None = None
    wall_seconds: float | None = None
    target_value: float | None = None
    _t0: float = field(default=0.0, repr=False)
    _started: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_evaluations is not None and self.max_evaluations < 0:
            raise ValueError("max_evaluations must be >= 0")
        if self.max_moves is not None and self.max_moves < 0:
            raise ValueError("max_moves must be >= 0")
        if self.wall_seconds is not None and self.wall_seconds < 0:
            raise ValueError("wall_seconds must be >= 0")

    def start(self) -> "Budget":
        """Arm the wall clock; returns ``self`` for chaining."""
        self._t0 = time.perf_counter()
        self._started = True
        return self

    def exhausted(self, *, evaluations: int, moves: int, best_value: float) -> bool:
        """Whether any component of the budget is spent."""
        if self.max_evaluations is not None and evaluations >= self.max_evaluations:
            return True
        if self.max_moves is not None and moves >= self.max_moves:
            return True
        if self.target_value is not None and best_value >= self.target_value:
            return True
        if self.wall_seconds is not None:
            if not self._started:
                self.start()
            if time.perf_counter() - self._t0 >= self.wall_seconds:
                return True
        return False

    @classmethod
    def unlimited(cls) -> "Budget":
        """A budget that never triggers (structural runs)."""
        return cls()

    def scaled(self, factor: float) -> "Budget":
        """A copy with evaluation/move caps multiplied by ``factor``.

        The master uses this to split a global budget across search rounds.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        return Budget(
            max_evaluations=(
                None if self.max_evaluations is None else int(self.max_evaluations * factor)
            ),
            max_moves=None if self.max_moves is None else int(self.max_moves * factor),
            wall_seconds=(
                None if self.wall_seconds is None else self.wall_seconds * factor
            ),
            target_value=self.target_value,
        )
