"""Event traces of simulated farm executions.

Every compute burst, message and barrier wait is recorded as a
:class:`FarmEvent`; :class:`FarmTrace` aggregates them into the utilisation
and load-balance statistics that experiments A5 (speedup) and A8 (barrier
idle time) report.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

__all__ = ["EventKind", "FarmEvent", "FarmTrace"]


class EventKind(str, Enum):
    COMPUTE = "compute"
    SEND = "send"
    RECV = "recv"
    BARRIER_WAIT = "barrier_wait"


@dataclass(frozen=True)
class FarmEvent:
    """One interval on one processor's timeline."""

    proc: int
    kind: EventKind
    t_start: float
    t_end: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise ValueError(
                f"event ends before it starts: [{self.t_start}, {self.t_end}]"
            )

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


class FarmTrace:
    """Append-only event log with aggregate queries.

    Besides the *virtual*-time events, the trace also carries the measured
    wall-clock phase splits the backends report per round (scatter /
    compute / gather plus per-slave gather idle) — the two time bases live
    side by side so an experiment can check the simulated schedule against
    what the real round loop actually did.
    """

    def __init__(self) -> None:
        self.events: list[FarmEvent] = []
        #: per-round measured wall phases (a master run's are projected):
        #: ``{"round_index", "phase_seconds", "gather_idle_s", "master_wait_s"}``
        self.wall_phases: list[dict] = []

    def record(
        self, proc: int, kind: EventKind, t_start: float, t_end: float, label: str = ""
    ) -> None:
        self.events.append(FarmEvent(proc, kind, t_start, t_end, label))

    def record_wall_phases(
        self,
        round_index: int,
        phase_seconds: dict[str, float],
        gather_idle_s: dict[int, float] | None = None,
        master_wait_s: float = 0.0,
    ) -> None:
        """Log one round's measured wall-clock phase split."""
        self.wall_phases.append(
            {
                "round_index": int(round_index),
                "phase_seconds": {k: float(v) for k, v in phase_seconds.items()},
                "gather_idle_s": {
                    int(k): float(v) for k, v in (gather_idle_s or {}).items()
                },
                "master_wait_s": float(master_wait_s),
            }
        )

    def wall_phase_totals(self) -> dict[str, float]:
        """Cumulative measured seconds per phase (plus ``master_wait``)."""
        totals: dict[str, float] = defaultdict(float)
        for rec in self.wall_phases:
            for phase, seconds in rec["phase_seconds"].items():
                totals[phase] += seconds
            totals["master_wait"] += rec["master_wait_s"]
        return dict(totals)

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------ #
    # Aggregations
    # ------------------------------------------------------------------ #
    def total_by_kind(self, kind: EventKind) -> float:
        """Total duration of all events of ``kind`` across processors."""
        return sum(e.duration for e in self.events if e.kind is kind)

    def per_proc_by_kind(self, kind: EventKind) -> dict[int, float]:
        out: dict[int, float] = defaultdict(float)
        for e in self.events:
            if e.kind is kind:
                out[e.proc] += e.duration
        return dict(out)

    def busy_fraction(self, makespan: float) -> dict[int, float]:
        """Fraction of the makespan each processor spent computing."""
        if makespan <= 0:
            return {}
        busy = self.per_proc_by_kind(EventKind.COMPUTE)
        return {p: t / makespan for p, t in busy.items()}

    def idle_ratio(self) -> float:
        """Barrier idle time as a fraction of (idle + compute) time.

        The A8 load-balance metric: lower is better; the paper's
        ``Nb_it ∝ 1/Nb_drop`` rule exists to shrink exactly this quantity.
        """
        idle = self.total_by_kind(EventKind.BARRIER_WAIT)
        compute = self.total_by_kind(EventKind.COMPUTE)
        denom = idle + compute
        return idle / denom if denom > 0 else 0.0

    def communication_seconds(self) -> float:
        return self.total_by_kind(EventKind.SEND) + self.total_by_kind(EventKind.RECV)
