"""Attribute-based tabu list with tenure and the aspiration criterion.

The paper (§3.1) keeps a list ``Lt`` of fixed length ``Lt_length`` and writes
"Lt = Lt + X" after each move, i.e. the *attributes changed by the move*
become tabu for the next ``Lt_length`` iterations.  Dropped items are
forbidden to re-enter (and added items to leave) while their tenure lasts,
which is the standard Glover [5] short-term memory realisation for 0/1
problems.  A tabu item may still be used if the resulting solution beats the
incumbent — the *aspiration criterion* ("this Tabu state 'Barrier' may be
left ... if F(X') is better than the best solution cost F(X*) found so far").

The implementation is O(1) per query using an expiry-iteration array rather
than scanning a deque, so neighborhood scans can vectorize the tabu mask.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TabuList"]


class TabuList:
    """Per-item tabu tenures tracked against a monotonically increasing clock.

    Parameters
    ----------
    n_items:
        Number of decision variables.
    tenure:
        ``Lt_length`` — the number of iterations an attribute stays tabu.
        Must be non-negative; 0 disables the short-term memory entirely.
    """

    def __init__(self, n_items: int, tenure: int) -> None:
        if n_items <= 0:
            raise ValueError(f"n_items must be positive; got {n_items}")
        if tenure < 0:
            raise ValueError(f"tenure must be >= 0; got {tenure}")
        self.n_items = int(n_items)
        self.tenure = int(tenure)
        self._expiry = np.zeros(n_items, dtype=np.int64)
        self._clock = 0
        #: cached ``expiry > clock`` over all items; -1 marks it stale.  The
        #: hot path queries the mask several times per move against the same
        #: clock, so one full compare per move replaces one gather+compare
        #: per candidate scan.
        self._mask = np.zeros(n_items, dtype=bool)
        self._nontabu = np.ones(n_items, dtype=bool)
        self._mask_clock = -1

    # ------------------------------------------------------------------ #
    # Clock
    # ------------------------------------------------------------------ #
    @property
    def clock(self) -> int:
        """Current iteration count (advanced by :meth:`tick`)."""
        return self._clock

    def tick(self) -> None:
        """Advance the iteration clock by one (call once per TS move)."""
        self._clock += 1

    def advance_to(self, clock: int) -> None:
        """Set the clock to ``clock`` after the expiry array was written in
        place (the native thread ticks and marks in C), and drop
        the mask caches."""
        self._clock = int(clock)
        self._mask_clock = -1

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def make_tabu(self, items: int | np.ndarray, extra_tenure: int = 0) -> None:
        """Mark ``items`` tabu for ``tenure + extra_tenure`` iterations.

        ``extra_tenure`` lets the diversification phase lock components for
        longer than the ordinary short-term tenure ("the component i is set
        Tabu", §3.3).
        """
        until = self._clock + self.tenure + int(extra_tenure)
        self._expiry[items] = np.maximum(self._expiry[items], until)
        self._mask_clock = -1

    def clear(self) -> None:
        """Forget all tabu statuses (used at diversification restarts)."""
        self._expiry[:] = 0
        self._mask_clock = -1

    def set_tenure(self, tenure: int) -> None:
        """Change ``Lt_length`` (the master's SGP retunes this dynamically)."""
        if tenure < 0:
            raise ValueError(f"tenure must be >= 0; got {tenure}")
        self.tenure = int(tenure)

    def reset(self, tenure: int | None = None) -> None:
        """Return to the freshly-constructed state (warm-runtime reuse path).

        Unlike :meth:`clear` — which forgets tabu statuses but keeps the
        clock running — this rewinds the clock to zero, so a reused list is
        indistinguishable from ``TabuList(n_items, tenure)``.  The expiry
        array and mask caches are reset in place, never reallocated.
        """
        if tenure is not None:
            self.set_tenure(tenure)
        self._expiry[:] = 0
        self._clock = 0
        self._mask_clock = -1

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def is_tabu(self, item: int) -> bool:
        """Whether ``item`` is currently tabu."""
        return bool(self._expiry[item] > self._clock)

    def _refresh_masks(self) -> None:
        np.greater(self._expiry, self._clock, out=self._mask)
        np.logical_not(self._mask, out=self._nontabu)
        self._mask_clock = self._clock

    def _full_mask(self) -> np.ndarray:
        if self._mask_clock != self._clock:
            self._refresh_masks()
        return self._mask

    def nontabu_mask(self) -> np.ndarray:
        """Cached ``expiry <= clock`` over all items (do not mutate)."""
        if self._mask_clock != self._clock:
            self._refresh_masks()
        return self._nontabu

    def tabu_mask(self, items: np.ndarray | None = None) -> np.ndarray:
        """Boolean tabu mask over ``items`` (all items when ``None``).

        Vectorized so the Add/Drop candidate filters stay a single numpy
        expression in the hot path.
        """
        if items is None:
            return self._full_mask().copy()
        return self._full_mask()[items]

    def admissible(self, items: np.ndarray) -> np.ndarray:
        """Subset of ``items`` that is *not* tabu."""
        items = np.asarray(items)
        return items[self.nontabu_mask()[items]]

    def active_count(self) -> int:
        """Number of currently tabu items (diagnostics and tests)."""
        return int(np.count_nonzero(self._expiry > self._clock))

    def remaining(self, item: int) -> int:
        """Iterations until ``item``'s tabu status expires (0 if free)."""
        return max(0, int(self._expiry[item] - self._clock))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TabuList(n_items={self.n_items}, tenure={self.tenure}, "
            f"clock={self._clock}, active={self.active_count()})"
        )
