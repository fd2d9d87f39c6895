"""Result records for parallel (and sequential) runs."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.solution import Solution
from ..farm.trace import FarmTrace

__all__ = ["RoundStats", "ParallelRunResult"]


@dataclass(frozen=True)
class RoundStats:
    """Per-round aggregate of one master search iteration."""

    round_index: int
    best_value: float
    round_virtual_seconds: float
    #: virtual compute seconds charged to each *reporting* slave, keyed by
    #: slave id — on a degraded round the missing ids are exactly the
    #: slaves whose reports never arrived (a list by arrival order would
    #: silently misattribute entries as soon as one report goes missing)
    slave_virtual_seconds: dict[int, float]
    communication_seconds: float
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


@dataclass
class ParallelRunResult:
    """Outcome of a full run of any of the SEQ/ITS/CTS variants.

    ``virtual_seconds`` is the simulated-farm makespan (0.0 when no farm
    model was attached, e.g. pure wall-clock multiprocessing runs).
    """

    variant: str
    best: Solution
    rounds: list[RoundStats]
    total_evaluations: int
    virtual_seconds: float
    wall_seconds: float
    n_slaves: int
    trace: FarmTrace | None = None
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
