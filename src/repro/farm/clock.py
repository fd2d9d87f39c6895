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
    """Per-processor virtual times with barrier synchronization.

    The times are Python floats: a round charges each processor a few
    scalars, and IEEE-754 addition and ``max`` give the same results on
    floats as on a float64 vector, without numpy's per-scalar boxing.
    """

    def __init__(self, n_processors: int) -> None:
        if n_processors < 1:
            raise ValueError("n_processors must be >= 1")
        self.n_processors = int(n_processors)
        self._t = [0.0] * self.n_processors

    @property
    def times(self) -> np.ndarray:
        """Copy of the per-processor clock vector."""
        return np.array(self._t, dtype=np.float64)

    @property
    def now(self) -> float:
        """Global time = the furthest-ahead processor."""
        return max(self._t)

    def time_of(self, proc: int) -> float:
        return self._t[proc]

    def advance(self, proc: int, seconds: float) -> float:
        """Charge ``seconds`` of work/communication to ``proc``.

        Returns the processor's new local time.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance by negative time: {seconds}")
        self._t[proc] += float(seconds)
        return self._t[proc]

    def barrier(self) -> np.ndarray:
        """Synchronize all processors to the maximum time.

        Returns the per-processor *idle* time spent waiting at the barrier
        (zero for the straggler), which the load-balance experiment sums.
        """
        top = max(self._t)
        idle = np.array([top - t for t in self._t], dtype=np.float64)
        self._t = [top] * self.n_processors
        return idle

    def wait_until(self, proc: int, t: float) -> float:
        """Block ``proc`` until global time ``t``; returns idle time.

        Used by the asynchronous variant where a thread waits for a message
        that was *sent* at time ``t`` (no global barrier involved).
        """
        t = float(t)
        idle = max(0.0, t - self._t[proc])
        self._t[proc] = max(self._t[proc], t)
        return idle
