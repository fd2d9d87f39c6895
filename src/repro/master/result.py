"""Result records for parallel (and sequential) runs.

A sync master run leaves its virtual times :data:`PENDING`; the first read
of any of them runs :func:`repro.farm.project` once over the run's rounds
and stores every value.  Other producers pass them explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..core.solution import Solution
from ..farm import projection as farm_projection
from ..farm.machine import FarmModel
from ..farm.trace import FarmTrace

__all__ = ["RoundStats", "ParallelRunResult"]


class _Lazy(Enum):
    PENDING = "pending"


#: the default of a virtual-time field: projected from the run on first read
PENDING = _Lazy.PENDING


class _Projected:
    """A virtual-time field: the value given, else the run's projection."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: object, owner: type | None = None) -> object:
        if obj is None:
            return PENDING  # the dataclass default
        value = obj.__dict__[self.name]
        if value is PENDING:
            obj._project()
            value = obj.__dict__[self.name]
        return value

    def __set__(self, obj: object, value: object) -> None:
        obj.__dict__[self.name] = value


@dataclass(frozen=True, kw_only=True)
class RoundStats:
    """Per-round aggregate of one master search iteration."""

    round_index: int
    best_value: float
    round_virtual_seconds: float = _Projected()
    #: virtual compute seconds charged to each *reporting* slave, keyed by
    #: slave id — on a degraded round the missing ids are exactly the
    #: slaves whose reports never arrived (a list by arrival order would
    #: silently misattribute entries as soon as one report goes missing)
    slave_virtual_seconds: dict[int, float] = _Projected()
    communication_seconds: float = _Projected()
    evaluations: int
    improved_slaves: int
    isp_rules: dict[str, int] = field(default_factory=dict)
    sgp_actions: dict[str, int] = field(default_factory=dict)
    #: degraded-mode accounting (all zero on a healthy round)
    failed_slaves: int = 0
    backoff_slaves: int = 0
    duplicate_reports: int = 0
    stale_reports: int = 0
    #: measured wall-clock split of the backend round over
    #: ``scatter``/``compute``/``gather`` (empty when the backend predates
    #: the phase counters); distinct from the *virtual* farm seconds above
    phase_wall_seconds: dict[str, float] = field(default_factory=dict)
    #: seconds from gather start until each slave's first accepted report —
    #: on the multiplexed gather a straggler inflates only its own entry
    gather_idle_s: dict[int, float] = field(default_factory=dict)
    #: master wall time blocked waiting on slaves this round
    master_wait_s: float = 0.0
    #: what the farm charges (sync master rounds): task and report bytes
    #: and straggle slowdowns by slave id, and accepted reports' evaluations
    task_nbytes: dict[int, int] = field(default_factory=dict, compare=False, repr=False)
    report_nbytes: dict[int, int] = field(default_factory=dict, compare=False, repr=False)
    report_evaluations: dict[int, int] = field(default_factory=dict, compare=False, repr=False)
    slowdowns: dict[int, float] = field(default_factory=dict, compare=False, repr=False)

    def _project(self) -> None:
        self.__dict__["_run"]._project()  # KeyError: the round is in no run


@dataclass(kw_only=True)
class ParallelRunResult:
    """Outcome of a full run of any of the SEQ/ITS/CTS variants.

    ``virtual_seconds`` is the simulated-farm makespan (0.0 when no farm
    model was attached, e.g. pure wall-clock multiprocessing runs).
    """

    variant: str
    best: Solution
    rounds: list[RoundStats]
    total_evaluations: int
    virtual_seconds: float = _Projected()
    wall_seconds: float
    n_slaves: int
    trace: FarmTrace | None = _Projected()
    bytes_sent: int = 0
    value_history: list[float] = field(default_factory=list)
    #: aggregate fault/degradation tally over the whole run, e.g.
    #: ``{"failed": 3, "duplicates": 1, "stale": 2, "degraded_rounds": 4}``.
    #: Empty for a run that never saw a fault.
    fault_summary: dict[str, int] = field(default_factory=dict)
    #: master execution mode that produced this result: ``"sync"`` (the
    #: Fig. 2 barrier loop) or ``"async"`` (bounded-staleness pipelining,
    #: DESIGN.md §5.9)
    pipeline: str = "sync"
    #: async-pipeline aggregates (empty for sync runs): bursts completed,
    #: burst failures, max observed staleness, mean queue depth at burst
    #: resolution, and barrier idle seconds the pipelining reclaimed
    pipeline_stats: dict[str, float] = field(default_factory=dict)
    #: the farm model and constraint count :data:`PENDING` virtual times
    #: are projected with (``None``: every pending time is zero, no trace)
    farm: FarmModel | None = None
    n_constraints: int = 0

    def __post_init__(self) -> None:
        for s in self.rounds:
            if s.__dict__["round_virtual_seconds"] is PENDING:
                s.__dict__["_run"] = self

    def _project(self) -> None:
        """Fill every pending virtual time of the run from one projection."""
        makespan, charges, trace = farm_projection.project(
            self.rounds, self.farm, self.n_slaves, self.n_constraints
        )
        own = self.__dict__
        if own["virtual_seconds"] is PENDING:
            own["virtual_seconds"] = makespan
        if own["trace"] is PENDING:
            own["trace"] = trace
        for s, (round_s, comm_s, slave_s) in zip(self.rounds, charges):
            if s.__dict__["round_virtual_seconds"] is PENDING:
                s.__dict__.update(
                    round_virtual_seconds=round_s,
                    communication_seconds=comm_s,
                    slave_virtual_seconds=slave_s,
                )

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def degraded_rounds(self) -> int:
        """Rounds that completed with at least one missing slave report."""
        return sum(1 for s in self.rounds if s.failed_slaves or s.backoff_slaves)

    def summary(self) -> str:
        """One-line human-readable summary for example scripts."""
        return (
            f"{self.variant}: best={self.best.value:g} "
            f"rounds={self.n_rounds} slaves={self.n_slaves} "
            f"evals={self.total_evaluations} "
            f"vtime={self.virtual_seconds:.3f}s wall={self.wall_seconds:.3f}s"
        )
