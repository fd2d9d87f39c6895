"""The evaluation ledger and the scoring formula of the tabu-search hot path.

The per-thread buffers and the fitting scan live in
:class:`~repro.core.solution.SearchState`; this module holds what that state
shares with the rest of the code base:

:class:`KernelCounters`
    The unified evaluation ledger, one per :class:`SearchState`.  The
    farm's virtual-time cost model charges CPU seconds per candidate
    evaluation, so the counter flow must be exact: the move engine (and the
    C thread) counts into ``move_evaluations``, the §3.2
    intensification procedures into ``intensify_evaluations``, and budget
    checks read :attr:`KernelCounters.total`.

:func:`drop_ratios`
    The drop-rule score ``a_{i*,j} / c_j``.

:data:`FIT_EPS`
    The feasibility tolerance of every fitting test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["KernelCounters", "drop_ratios", "FIT_EPS"]

#: Feasibility tolerance of the fitting scan.
FIT_EPS = 1e-9


@dataclass
class KernelCounters:
    """Candidate-evaluation ledger for one search thread.

    ``total`` is what the farm cost model and evaluation budgets consume.
    """

    move_evaluations: int = 0
    intensify_evaluations: int = 0
    moves: int = 0

    @property
    def total(self) -> int:
        """All candidate evaluations charged to this thread so far."""
        return self.move_evaluations + self.intensify_evaluations

    def reset(self) -> None:
        self.move_evaluations = 0
        self.intensify_evaluations = 0
        self.moves = 0


def drop_ratios(
    weights_row: np.ndarray,
    profits: np.ndarray,
    candidates: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The drop-rule score ``a_{i*,j} / c_j`` over ``candidates``.

    This is the one scoring formula shared by the Drop rule, the Add rule
    (argmin instead of argmax), and the low-level parallel evaluators of
    benchmark A10 (``benchmarks/neighborhood_eval.py``).
    """
    return np.divide(weights_row[candidates], profits[candidates], out=out)
