"""Deterministic fault injection for the master–slave stack.

The paper's synchronous scheme (§4) assumes all ``P`` slaves return their
``B`` best solutions every round.  Real farms do not cooperate: workers
crash, reports get lost or duplicated in flight, and stragglers hold the
barrier hostage.  This module provides the *fault model* the chaos-test
suite drives against the hardened master: :class:`FaultPlan`, a
precomputed, seed-deterministic schedule of fault events addressed by
``(round_index, slave_id)``.  The same seed always yields the same
schedule, so every chaos scenario replays bit-for-bit — fault-injection
tests are ordinary deterministic tests, never flaky.

The plan only answers queries.  Every backend applies it in two places:
``dispatch`` drops tasks master-side
(:meth:`~repro.parallel.backends.Backend._drop_tasks`), and
:func:`~repro.parallel.backends.serve_batch` decides every slave-side
fault, which the caller then enacts (a worker process exits or sleeps, the
serial backend counts the fault and charges virtual time).

Failure taxonomy (see DESIGN.md §"Fault model"):

========== ==========================================================
``crash``      the slave dies mid-round; no report is produced
``drop``       a task or report message is lost in flight
``duplicate``  a report arrives twice (at-least-once delivery)
``delay``      a report is held one round and arrives stale
``straggle``   the slave computes at ``1/factor`` speed that round
========== ==========================================================
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

from ..rng import derive_rng

__all__ = ["FaultKind", "FaultEvent", "FaultPlan"]


class FaultKind(str, Enum):
    """The failure taxonomy injected by :class:`FaultPlan`."""

    CRASH = "crash"
    DROP_TASK = "drop_task"
    DROP_REPORT = "drop_report"
    DUPLICATE_REPORT = "duplicate_report"
    DELAY_REPORT = "delay_report"
    STRAGGLE = "straggle"


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault: *what* happens to *whom* in *which* round."""

    round_index: int
    slave_id: int
    kind: FaultKind
    #: straggler slowdown multiplier (ignored for the other kinds)
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.round_index < 0:
            raise ValueError("round_index must be >= 0")
        if self.slave_id < 0:
            raise ValueError("slave_id must be >= 0")
        if self.kind is FaultKind.STRAGGLE and self.factor <= 1.0:
            raise ValueError("straggle factor must be > 1")


#: Namespace constant mixed into the derivation path so fault streams never
#: collide with search-seed streams derived from the same root seed.
_FAULT_STREAM = 0xFA17


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, fully precomputed fault schedule.

    Build one with :meth:`from_seed` (randomized but deterministic) or pass
    explicit events for hand-crafted scenarios.  Query methods are O(1)
    dictionary lookups so the no-fault path costs one empty-dict probe.
    """

    events: tuple[FaultEvent, ...] = ()
    seed: int | None = None

    # Derived indexes (populated in __post_init__; object.__setattr__ because
    # the dataclass is frozen).
    _crashes: frozenset[tuple[int, int]] = field(default=frozenset(), repr=False)
    _task_drops: frozenset[tuple[int, int]] = field(default=frozenset(), repr=False)
    _report_drops: frozenset[tuple[int, int]] = field(default=frozenset(), repr=False)
    _report_dups: frozenset[tuple[int, int]] = field(default=frozenset(), repr=False)
    _report_delays: frozenset[tuple[int, int]] = field(default=frozenset(), repr=False)
    _straggles: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        by_kind: dict[FaultKind, set[tuple[int, int]]] = {k: set() for k in FaultKind}
        straggles: dict[tuple[int, int], float] = {}
        for event in self.events:
            key = (event.round_index, event.slave_id)
            by_kind[event.kind].add(key)
            if event.kind is FaultKind.STRAGGLE:
                straggles[key] = float(event.factor)
        object.__setattr__(self, "events", tuple(sorted(self.events)))
        object.__setattr__(self, "_crashes", frozenset(by_kind[FaultKind.CRASH]))
        object.__setattr__(self, "_task_drops", frozenset(by_kind[FaultKind.DROP_TASK]))
        object.__setattr__(self, "_report_drops", frozenset(by_kind[FaultKind.DROP_REPORT]))
        object.__setattr__(self, "_report_dups", frozenset(by_kind[FaultKind.DUPLICATE_REPORT]))
        object.__setattr__(self, "_report_delays", frozenset(by_kind[FaultKind.DELAY_REPORT]))
        object.__setattr__(self, "_straggles", straggles)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: the hardened stack must be bit-identical under it."""
        return cls()

    @classmethod
    def from_seed(
        cls,
        seed: int,
        n_slaves: int,
        n_rounds: int,
        *,
        crash_rate: float = 0.0,
        task_drop_rate: float = 0.0,
        report_drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        delay_rate: float = 0.0,
        straggle_rate: float = 0.0,
        straggle_factor: float = 4.0,
        max_crashes_per_round: int | None = None,
    ) -> "FaultPlan":
        """Draw a deterministic schedule from ``seed``.

        Per (round, slave) cell at most one fault fires, chosen by a fixed
        priority (crash > drop-task > drop-report > duplicate > delay >
        straggle), so rates compose predictably.  ``max_crashes_per_round``
        defaults to ``n_slaves - 1``: at least one slave survives every
        round, matching the degraded-mode guarantee the tests assert.
        """
        if n_slaves < 1:
            raise ValueError("n_slaves must be >= 1")
        if n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        for name, rate in [
            ("crash_rate", crash_rate),
            ("task_drop_rate", task_drop_rate),
            ("report_drop_rate", report_drop_rate),
            ("duplicate_rate", duplicate_rate),
            ("delay_rate", delay_rate),
            ("straggle_rate", straggle_rate),
        ]:
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]; got {rate}")
        if max_crashes_per_round is None:
            max_crashes_per_round = n_slaves - 1
        if not 0 <= max_crashes_per_round <= n_slaves:
            raise ValueError("max_crashes_per_round must be in [0, n_slaves]")

        rng = derive_rng(seed, _FAULT_STREAM)
        events: list[FaultEvent] = []
        schedule = [
            (FaultKind.CRASH, crash_rate),
            (FaultKind.DROP_TASK, task_drop_rate),
            (FaultKind.DROP_REPORT, report_drop_rate),
            (FaultKind.DUPLICATE_REPORT, duplicate_rate),
            (FaultKind.DELAY_REPORT, delay_rate),
            (FaultKind.STRAGGLE, straggle_rate),
        ]
        for round_index in range(n_rounds):
            crashed_this_round = 0
            for slave_id in range(n_slaves):
                # One uniform draw per fault kind per cell keeps the stream
                # layout independent of the rates (same seed, different
                # rates => comparable schedules).
                draws = rng.random(len(schedule))
                for (kind, rate), u in zip(schedule, draws):
                    if u >= rate:
                        continue
                    if kind is FaultKind.CRASH:
                        if crashed_this_round >= max_crashes_per_round:
                            continue
                        crashed_this_round += 1
                    events.append(
                        FaultEvent(
                            round_index,
                            slave_id,
                            kind,
                            factor=straggle_factor if kind is FaultKind.STRAGGLE else 1.0,
                        )
                    )
                    break
        return cls(events=tuple(events), seed=seed)

    @classmethod
    def stragglers(
        cls,
        seed: int,
        n_slaves: int,
        n_rounds: int,
        *,
        rate: float = 0.25,
        factor: float = 8.0,
    ) -> "FaultPlan":
        """A straggle-only plan: the pipelined-master benchmark regime.

        No crashes, no message loss — every report arrives, but a seeded
        quarter of the (round, slave) cells run ``factor`` times slower.
        Under the synchronous barrier every such cell stalls the whole
        round; the async pipeline overlaps the stall with its peers'
        compute, which is exactly the gap the async-pipeline gate in
        ``benchmarks/test_perf_gates.py`` measures.
        """
        return cls.from_seed(
            seed,
            n_slaves,
            n_rounds,
            straggle_rate=rate,
            straggle_factor=factor,
        )

    # ------------------------------------------------------------------ #
    # Queries (hot path: O(1) set membership)
    # ------------------------------------------------------------------ #
    @property
    def is_empty(self) -> bool:
        return not self.events

    @property
    def n_events(self) -> int:
        return len(self.events)

    def crashes(self, round_index: int, slave_id: int) -> bool:
        return (round_index, slave_id) in self._crashes

    def drops_task(self, round_index: int, slave_id: int) -> bool:
        return (round_index, slave_id) in self._task_drops

    def drops_report(self, round_index: int, slave_id: int) -> bool:
        return (round_index, slave_id) in self._report_drops

    def duplicates_report(self, round_index: int, slave_id: int) -> bool:
        return (round_index, slave_id) in self._report_dups

    def delays_report(self, round_index: int, slave_id: int) -> bool:
        return (round_index, slave_id) in self._report_delays

    def straggle_factor(self, round_index: int, slave_id: int) -> float:
        return self._straggles.get((round_index, slave_id), 1.0)

    def fingerprint(self) -> str:
        """Stable digest of the schedule (determinism assertions)."""
        text = ";".join(
            f"{e.round_index},{e.slave_id},{e.kind.value},{e.factor:g}"
            for e in self.events
        )
        return hashlib.sha256(text.encode()).hexdigest()
