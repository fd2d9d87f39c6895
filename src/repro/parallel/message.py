"""Message types exchanged between the master and slave processes.

One search round of the synchronous scheme (Fig. 2) is two messages per
slave: a :class:`SlaveTask` down (initial solution + strategy + budget +
seed) and a :class:`SlaveReport` back up (the ``B`` best solutions plus the
scoring/accounting signals).  Both are plain dataclasses with one wire form,
the struct frames of :class:`~repro.parallel.wire.WireCodec`: process and
socket carriers send those frames, and the serial backend and the
simulated farm charge their lengths.

The dominant payload on both legs is 0/1 solution vectors.  Those ship as
packed-bitset frames (``ceil(n/8)`` payload bytes, ~64 for a 500-item
instance); layerbench's ``codec.bytes_per_round`` tracks the bytes per
round and ``tests/test_bitset.py`` bounds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.reduction import FixationPattern
from ..core.solution import Solution, SolutionBlock
from ..core.strategy import Strategy
from ..core.termination import Budget

__all__ = ["SlaveTask", "SlaveReport", "RESULT_TAG"]

#: Message tags, mirroring the mpi4py ``tag`` convention.
TASK_TAG = 1
RESULT_TAG = 2
#: Carries a bind frame (:func:`repro.parallel.wire.encode_bind`) to a live
#: worker so a long-lived backend can be re-``start()``-ed on a new problem
#: without respawning its processes (DESIGN.md §5.6 service leasing).
REBIND_TAG = 3
STOP_TAG = 99


@dataclass(frozen=True)
class SlaveTask:
    """What the master hands a slave for one search round.

    ``seed`` replaces shipping generator state across process boundaries
    (see :mod:`repro.rng`).  ``round_index`` and ``seq_id`` make report
    handling idempotent: the slave echoes both back on its
    :class:`SlaveReport`, letting the master discard duplicated or stale
    (delayed) reports instead of double-counting them.
    """

    x_init: Solution
    strategy: Strategy
    budget: Budget
    seed: int
    round_index: int = 0
    #: unique per (round, slave) — the idempotency key echoed by the report
    seq_id: int = 0
    #: LP-core fixation for this round (ISSUE-8); ``None`` = full-space
    #: search.  ``x_init`` is always full-space — the slave runtime projects
    #: it onto the core and lifts its report back, so the master never sees
    #: reduced coordinates.
    pattern: FixationPattern | None = None


@dataclass(frozen=True)
class SlaveReport:
    """What a slave returns after one search round.

    Carries everything the master's data structure needs (§4.2): the ``B``
    best solutions, the final best, the initial cost (for the ±1 scoring),
    and the evaluation count the farm model converts into virtual time.
    ``round_index``/``seq_id`` echo the originating task so the hardened
    master can deduplicate and drop stale deliveries.
    """

    slave_id: int
    best: Solution
    #: the slave's ``B`` best, packed; a list of solutions is packed on entry
    elite: SolutionBlock = field(default_factory=list)
    initial_value: float = 0.0
    evaluations: int = 0
    moves: int = 0
    round_index: int = 0
    seq_id: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.elite, SolutionBlock):
            object.__setattr__(
                self, "elite", SolutionBlock.of(self.elite, self.best.n_items)
            )

    @property
    def improved(self) -> bool:
        """§4.2 scoring signal: final cost strictly above initial cost."""
        return self.best.value > self.initial_value
