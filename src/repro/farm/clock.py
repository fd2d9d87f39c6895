"""Virtual clocks for the simulated farm.

:class:`VirtualClock` tracks one virtual time per processor plus the global
(wall) time of the simulated machine.  The synchronous master–slave scheme
of the paper is a sequence of *rounds* ending in a barrier: "each slave must
wait until all other slaves terminate their search thread in the previous
search iteration" (§4.2) — :meth:`barrier` realises that, and reports the
idle time each processor spent waiting, which experiment A8 (load balance)
measures.
"""

from __future__ import annotations

import numpy as np

__all__ = ["VirtualClock"]


class VirtualClock:
    """Per-processor virtual times with barrier synchronization."""

    def __init__(self, n_processors: int) -> None:
        if n_processors < 1:
            raise ValueError("n_processors must be >= 1")
        self.n_processors = int(n_processors)
        self._t = np.zeros(n_processors, dtype=np.float64)

    @property
    def times(self) -> np.ndarray:
        """Copy of the per-processor clock vector."""
        return self._t.copy()

    @property
    def now(self) -> float:
        """Global time = the furthest-ahead processor."""
        return float(self._t.max())

    def time_of(self, proc: int) -> float:
        return float(self._t[proc])

    def advance(self, proc: int, seconds: float) -> float:
        """Charge ``seconds`` of work/communication to ``proc``.

        Returns the processor's new local time.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance by negative time: {seconds}")
        self._t[proc] += seconds
        return float(self._t[proc])

    def barrier(self) -> np.ndarray:
        """Synchronize all processors to the maximum time.

        Returns the per-processor *idle* time spent waiting at the barrier
        (zero for the straggler), which the load-balance experiment sums.
        """
        top = self._t.max()
        idle = top - self._t
        self._t[:] = top
        return idle

    def wait_until(self, proc: int, t: float) -> float:
        """Block ``proc`` until global time ``t``; returns idle time.

        Used by the asynchronous variant where a thread waits for a message
        that was *sent* at time ``t`` (no global barrier involved).
        """
        idle = max(0.0, t - self._t[proc])
        self._t[proc] = max(self._t[proc], t)
        return idle
