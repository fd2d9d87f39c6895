"""Long-term memory (``History``) and elite solution storage (``BestSol``).

Two memories from the paper:

``History`` (§3.3)
    "The value of History[i] represents the number of iterations where the
    component i of the current solution is set to 1."  The diversification
    phase thresholds this frequency memory to force the search into
    neglected regions.

``BestSol`` array (Fig. 1, step 7)
    Each slave records its ``B`` best distinct solutions; the master's SGP
    measures their Hamming dispersion to decide whether the slave should
    intensify or diversify next round.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .solution import Solution, SolutionBlock

__all__ = ["History", "EliteArray"]


class History:
    """Frequency-based long-term memory over solution components.

    ``counts[i]`` is the number of recorded iterations in which component
    ``i`` was set to 1 since the beginning of the search (or the last
    :meth:`reset`).
    """

    def __init__(self, n_items: int) -> None:
        if n_items <= 0:
            raise ValueError(f"n_items must be positive; got {n_items}")
        self.n_items = int(n_items)
        self.counts = np.zeros(n_items, dtype=np.int64)
        self.iterations = 0

    def record(self, x: np.ndarray) -> None:
        """Record the current solution vector (call once per TS iteration)."""
        self.counts += x
        self.iterations += 1

    def frequency(self) -> np.ndarray:
        """Fraction of recorded iterations each component spent at 1."""
        if self.iterations == 0:
            return np.zeros(self.n_items, dtype=np.float64)
        return self.counts / self.iterations

    def overused(self, threshold: float) -> np.ndarray:
        """Components whose frequency exceeds ``threshold`` (to be zeroed)."""
        return np.flatnonzero(self.frequency() > threshold)

    def underused(self, threshold: float) -> np.ndarray:
        """Components whose frequency is below ``threshold`` (to be seeded)."""
        return np.flatnonzero(self.frequency() < threshold)

    def reset(self) -> None:
        self.counts[:] = 0
        self.iterations = 0


class EliteArray:
    """Bounded array of the ``B`` best *distinct* solutions seen so far.

    Maintains solutions sorted by decreasing value.  Distinctness is by the
    0/1 vector, not the value, so plateaus contribute genuinely different
    elite members (the SGP's dispersion statistic would be meaningless
    otherwise).

    The members live in one array block: :attr:`rows` (``(B, n)`` ``int8``,
    the first :attr:`count` rows in use) and :attr:`values`.  The native
    thread inserts into the same block
    (``ts_elite_offer`` in ``core/_native.c``), so there is one copy of the
    array whichever path fills it.  It leaves packed, as one
    :class:`~repro.core.solution.SolutionBlock` (:meth:`packed`).
    """

    def __init__(self, capacity: int, n_items: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive; got {capacity}")
        self.capacity = int(capacity)
        self.values = np.empty(self.capacity, dtype=np.float64)
        self.rows = np.empty((self.capacity, int(n_items)), dtype=np.int8)
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[Solution]:
        return iter(self.packed())

    def __getitem__(self, idx: int) -> Solution:
        return self.packed()[idx]

    @property
    def best(self) -> Solution | None:
        """Highest-value member, or ``None`` when empty."""
        return self[0] if self.count else None

    @property
    def worst_value(self) -> float:
        """Value of the weakest member (``-inf`` when not yet full)."""
        if self.count < self.capacity:
            return float("-inf")
        return float(self.values[-1])

    def qualifies(self, value: float) -> bool:
        """Whether a solution of ``value`` would enter the array.

        This is the Fig. 1 step 7 test "If X' is a part of the B Best
        solutions" — callers use it to skip the snapshot cost for
        non-qualifying moves.
        """
        return value > self.worst_value or self.count < self.capacity

    def offer(self, solution: Solution) -> bool:
        """Insert ``solution`` if it qualifies and is distinct.

        The new member goes after every member of equal or higher value,
        and a full array then drops its last member.  Returns ``True`` when
        the array changed.
        """
        x = solution.x
        count = self.count
        if count and (self.rows[:count] == x).all(axis=1).any():
            return False
        if not self.qualifies(solution.value):
            return False
        pos = int(np.count_nonzero(self.values[:count] >= solution.value))
        last = min(count, self.capacity - 1)
        self.rows[pos + 1 : last + 1] = self.rows[pos:last]
        self.values[pos + 1 : last + 1] = self.values[pos:last]
        self.rows[pos] = x
        self.values[pos] = solution.value
        self.count = last + 1
        return True

    def packed(self) -> SolutionBlock:
        """The members, best first, packed by one ``packbits`` over the block
        (what a slave ships back to the master)."""
        return SolutionBlock.pack(self.rows[: self.count], self.values[: self.count])

    def clear(self) -> None:
        self.count = 0
