"""The typed per-round measurement record every backend emits.

:class:`RoundTelemetry` is the one carrier of a round's wall-clock
measurements: every backend's ``run_round`` publishes one as
``backend.last_telemetry``, and the master reads nothing else, so no
field the paper's A5/A8 experiments rest on can go missing unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["BurstTelemetry", "RoundTelemetry"]


@dataclass(frozen=True)
class RoundTelemetry:
    """Everything one backend round measured about itself.

    Wall-clock quantities only — the *virtual* farm seconds live in
    :class:`~repro.master.result.RoundStats`; carrying both side by side is
    what lets an experiment check the simulated schedule against what the
    real round loop actually did.
    """

    round_index: int
    #: measured wall seconds per phase (``scatter``/``compute``/``gather``)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: seconds from gather start until each slave's first accepted report
    #: (a slave silent at the deadline is charged the whole gather)
    gather_idle_s: dict[int, float] = field(default_factory=dict)
    #: master wall time blocked waiting on slaves
    master_wait_s: float = 0.0
    #: bytes of task traffic sent to each slave this round
    task_nbytes: dict[int, int] = field(default_factory=dict)
    #: bytes of report traffic received from each slave this round
    report_nbytes: dict[int, int] = field(default_factory=dict)
    #: injected straggler slowdown factors by slave id (virtual-time input)
    slowdowns: dict[int, float] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(self.task_nbytes.values()) + sum(self.report_nbytes.values())

    def idle_ratio(self) -> float:
        """Summed gather idle as a fraction of total slave-observed gather time.

        A load-balance figure in the A8 spirit, but on *measured* wall time:
        0 when every report was already waiting at gather start.
        """
        gather = self.phase_seconds.get("gather", 0.0)
        if gather <= 0.0 or not self.gather_idle_s:
            return 0.0
        denom = gather * len(self.gather_idle_s)
        return min(1.0, sum(self.gather_idle_s.values()) / denom)

    def to_event_fields(self) -> dict:
        """JSON-ready field dict for the recorder (string keys, plain types)."""
        return {
            "round_index": self.round_index,
            "phase_seconds": {k: float(v) for k, v in self.phase_seconds.items()},
            "gather_idle_s": {str(k): float(v) for k, v in self.gather_idle_s.items()},
            "master_wait_s": float(self.master_wait_s),
            "task_nbytes": {str(k): int(v) for k, v in self.task_nbytes.items()},
            "report_nbytes": {str(k): int(v) for k, v in self.report_nbytes.items()},
            "slowdowns": {str(k): float(v) for k, v in self.slowdowns.items()},
        }


@dataclass(frozen=True)
class BurstTelemetry:
    """One pipelined burst's resolution, as the async master observed it.

    The asynchronous dispatch loop (DESIGN.md §5.9) has no round barrier, so
    the per-round record above is synthesized from windows; this is the raw
    per-burst measurement underneath — one per (slave, burst) resolution,
    whether the burst produced a report, was failed by the master, or was
    skipped for backoff.
    """

    slave_id: int
    #: per-slave burst index (the async analogue of the round index)
    burst_index: int
    #: tasks still queued at this slave right after the resolution
    queue_depth: int
    #: completed bursts this slave is ahead of the slowest live peer
    staleness: int
    #: dispatch-to-resolution wall seconds for this burst
    latency_s: float
    #: task bytes sent for this burst
    task_nbytes: int
    #: report bytes received for this burst (0 for failed/skipped)
    report_nbytes: int
    #: how the burst resolved: ``report`` / ``failed`` / ``skipped``
    outcome: str

    def to_event_fields(self) -> dict:
        """JSON-ready field dict for the recorder (plain types only)."""
        return {
            "slave_id": int(self.slave_id),
            "burst_index": int(self.burst_index),
            "queue_depth": int(self.queue_depth),
            "staleness": int(self.staleness),
            "latency_s": float(self.latency_s),
            "task_nbytes": int(self.task_nbytes),
            "report_nbytes": int(self.report_nbytes),
            "outcome": str(self.outcome),
        }
