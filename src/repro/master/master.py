"""The master process (Figure 2) with farm-time accounting.

::

    Procedure Master_Process(P, Nb_search_it)
        Read and send to slaves problem data
        For i = 1 to Nb_search_it do
            Call SGP(P, Data_struc) and ISP(P, Data_struc)
            Send initial solutions and strategies to slaves
            Receive from each slave its B best solutions

Cooperation is switchable so that one driver realises all four evaluated
approaches (Table 2):

===========  =============  =================
variant      communicate    adapt_strategies
===========  =============  =================
ITS          no             no
CTS1         yes            no
CTS2         yes            yes
===========  =============  =================

(SEQ is the degenerate ``P = 1`` single-round case, provided by
``repro.variants.seq`` without a master.)

**One ledger, two pipelines.**  Search iteration ``i`` keeps its books in
one :class:`_Window`: report, failure and backoff counts, the SGP/ISP
counters, byte ledgers, latencies and master wait.  Both master pipelines
(DESIGN.md §5.9) fill windows through the same :class:`MasterProcess`
methods: ``_task`` builds a slave's task, ``_fold`` absorbs one accepted
report, ``_fail`` starts a backoff, ``_adapt`` runs SGP then ISP, and
``_close`` emits the window's event group and appends its
:class:`RoundStats`.  The pipelines differ in two decisions only:

* **arrival** — ``"sync"`` gets a window's reports from one
  ``backend.run_round`` call (the Fig. 2 barrier); ``"async"`` pumps
  ``dispatch``/``next_report`` and bursts of different windows overlap;
* **adapt timing** — sync runs ``_adapt`` once per closed round over every
  entry in slave order; async runs it per resolved burst on that burst's
  one entry, so the next dispatch already sees the report.

When a :class:`~repro.farm.FarmModel` is attached, the master charges every
scatter, compute burst, gather and barrier wait to a
:class:`~repro.farm.VirtualClock` and logs a :class:`~repro.farm.FarmTrace`;
"execution time" then means deterministic virtual seconds.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from ..core.construction import random_solution
from ..core.instance import MKPInstance
from ..core.strategy import StrategyBounds
from ..core.tabu_search import TabuSearchConfig
from ..core.termination import Budget, CancelToken
from ..farm.clock import VirtualClock
from ..farm.machine import FarmModel
from ..farm.trace import EventKind, FarmTrace
from ..obs.recorder import RunRecorder
from ..obs.telemetry import BurstTelemetry, RoundTelemetry
from ..parallel.backends import Backend
from ..parallel.message import SlaveReport, SlaveTask
from ..rng import derive_rng, make_rng, random_seed_from
from .datastruct import SlaveEntry
from .isp import AlphaController, ISPConfig, generate_initial_solutions
from .result import ParallelRunResult, RoundStats
from .sgp import SGPConfig, update_strategies

__all__ = ["MasterConfig", "MasterProcess"]

#: async per-slave in-flight task cap: double buffering, one burst
#: computing while the next waits in the slave's queue
QUEUE_DEPTH = 2


@dataclass(frozen=True)
class MasterConfig:
    """Everything that parameterizes a master-driven run."""

    n_slaves: int = 16
    n_rounds: int = 10
    communicate: bool = True
    adapt_strategies: bool = True
    isp: ISPConfig = field(default_factory=ISPConfig)
    sgp: SGPConfig = field(default_factory=SGPConfig)
    bounds: StrategyBounds = field(default_factory=StrategyBounds)
    ts_config: TabuSearchConfig = field(default_factory=TabuSearchConfig)
    #: per-slave elite pool size retained by the master across rounds
    elite_capacity: int = 8
    #: adapt alpha dynamically (macro int/div; ignored if not communicate)
    dynamic_alpha: bool = True
    #: explicit starting strategies (one per slave); ``None`` = random from
    #: ``bounds``.  Lets experiments hand every slave a deliberately bad
    #: strategy and watch the SGP recover (the paper's §4.2 claim that the
    #: master "unloads the user from the task of finding the efficient TS
    #: parameters").
    initial_strategies: tuple = ()
    #: cap on the exponential respawn backoff: a slave that failed ``f``
    #: consecutive rounds sits out ``min(2**(f-1), max_backoff_rounds)``
    #: rounds before the master retasks it
    max_backoff_rounds: int = 8
    #: master execution mode (DESIGN.md §5.9): ``"sync"`` is the Fig. 2
    #: barrier loop; ``"async"`` pipelines per-slave bursts with bounded
    #: staleness over backends that expose ``dispatch()``/``next_report()``
    pipeline: str = "sync"
    #: async only: max allowed lead (in bursts) of any slave's dispatch
    #: frontier over the least-advanced slave's completion count; ``2``
    #: is classic double buffering
    max_staleness: int = 2
    #: async only: seconds to wait for *any* report before the globally
    #: oldest outstanding burst is declared lost (``None`` = wait forever)
    burst_timeout_s: float | None = 30.0

    def __post_init__(self) -> None:
        if self.n_slaves < 1:
            raise ValueError("n_slaves must be >= 1")
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if self.elite_capacity < 1:
            raise ValueError("elite_capacity must be >= 1")
        if self.max_backoff_rounds < 1:
            raise ValueError("max_backoff_rounds must be >= 1")
        if self.pipeline not in ("sync", "async"):
            raise ValueError(
                f"pipeline must be 'sync' or 'async'; got {self.pipeline!r}"
            )
        if self.max_staleness < 1:
            raise ValueError("max_staleness must be >= 1")
        if self.burst_timeout_s is not None and self.burst_timeout_s <= 0:
            raise ValueError("burst_timeout_s must be positive (or None)")
        if self.initial_strategies and len(self.initial_strategies) != self.n_slaves:
            raise ValueError(
                "initial_strategies must have one entry per slave "
                f"({self.n_slaves}); got {len(self.initial_strategies)}"
            )


@dataclass
class _Window:
    """The books of search iteration ``index``: a sync round or burst window."""

    index: int
    #: slaves whose burst for this window is settled (async closing rule)
    resolved: int = 0
    n_reports: int = 0
    evaluations: int = 0
    improved: int = 0
    failed: int = 0
    backoff: int = 0
    duplicates: int = 0
    stale: int = 0
    sgp: Counter = field(default_factory=Counter)
    isp: Counter = field(default_factory=Counter)
    #: async only — sync rounds take these from the backend's telemetry
    task_nbytes: dict = field(default_factory=dict)
    report_nbytes: dict = field(default_factory=dict)
    latency: dict = field(default_factory=dict)
    wait_s: float = 0.0


class MasterProcess:
    """Runs the Figure-2 loop over a :class:`~repro.parallel.Backend`."""

    def __init__(
        self,
        instance: MKPInstance,
        config: MasterConfig,
        backend: Backend,
        rng_seed: int = 0,
        farm: FarmModel | None = None,
        variant_name: str | None = None,
        recorder: RunRecorder | None = None,
        cancel: CancelToken | None = None,
    ) -> None:
        if backend.n_slaves != config.n_slaves:
            raise ValueError(
                f"backend has {backend.n_slaves} slaves but config expects "
                f"{config.n_slaves}"
            )
        self.instance = instance
        self.config = config
        self.backend = backend
        self.rng_seed = int(rng_seed)
        self.rng = make_rng(self.rng_seed)
        self.farm = farm
        self.variant_name = variant_name or (
            "CTS2"
            if config.communicate and config.adapt_strategies
            else "CTS1"
            if config.communicate
            else "ITS"
        )
        self.alpha_controller = AlphaController(alpha=config.isp.alpha)
        #: structured observability sink; the disabled default is a no-op,
        #: so recording is strictly opt-in and costs nothing otherwise
        self.recorder = recorder if recorder is not None else RunRecorder.disabled()
        #: cooperative cancellation, checked at every round boundary; the
        #: run ends early with the rounds completed so far and the backend
        #: left in its clean between-rounds state (service leasing relies
        #: on this — a cancelled job's backend is immediately reusable)
        self.cancel = cancel
        #: whether the last :meth:`run` ended early on a cancel request
        self.was_cancelled = False
        self._phase_trace: list[str] | None = None
        #: lazy per-instance LP-core selector (ISSUE-8): built on the first
        #: round in which some strategy asks for ``core_ratio < 1.0``, via
        #: the process-wide content-addressed cache — full-space runs never
        #: touch the LP (or scipy) at all
        self._core_selector = None

    def _fixation_pattern(self, strategy, slave_id: int):
        """The slave's fixation pattern for this round (None = full space).

        ``variant=slave_id`` rotates each slave's core boundary window so
        cooperating slaves free slightly different variable sets — the
        reduction layer's diversification, deterministic and RNG-free.
        """
        ratio = strategy.core_ratio
        if ratio >= 1.0:
            return None
        if self._core_selector is None:
            from ..core.reduction import shared_selector  # lazy: pulls scipy

            self._core_selector = shared_selector(self.instance)
        return self._core_selector.pattern(ratio, variant=slave_id)

    # ------------------------------------------------------------------ #
    def run(self, budget_per_slave: Budget | None = None) -> ParallelRunResult:
        """Execute ``n_rounds`` search iterations and return the result.

        ``budget_per_slave`` caps each slave's *total* work across all
        rounds; each round receives an equal share.  ``None`` runs purely
        structural budgets (``Nb_div``/``Nb_it`` loops only).

        This is the one copy of the run frame: backend start, the
        ``run_start`` event, the initial entries, the result and
        ``run_end``.  In between, :meth:`_run_sync` (the Fig. 2 barrier)
        or :meth:`_run_async` (bounded-staleness pipelining) fills one
        :class:`_Window` ledger per search iteration; both close every
        window through :meth:`_close`, so the result and the event stream
        have one shape whatever the pipeline.
        """
        t_wall0 = time.perf_counter()
        cfg = self.config
        rec = self.recorder
        pipelined = cfg.pipeline == "async"
        if pipelined and self.farm is not None:
            raise ValueError(
                "pipeline='async' has no virtual-farm accounting; "
                "run the farm model with pipeline='sync'"
            )
        if pipelined and not (
            hasattr(self.backend, "dispatch") and hasattr(self.backend, "next_report")
        ):
            raise TypeError(
                f"backend {type(self.backend).__name__} does not implement the "
                "pipelined dispatch()/next_report() API required by "
                "pipeline='async'"
            )

        # --- Fig. 2 line 1: distribute problem data ---------------------
        self._note("distribute_problem")
        self.backend.start(self.instance, cfg.ts_config)
        rec.run_start(
            variant=self.variant_name,
            n_slaves=cfg.n_slaves,
            n_rounds=cfg.n_rounds,
            seed=self.rng_seed,
            instance=str(getattr(self.instance, "name", "") or ""),
            instance_size=self.instance.size_label,
            communicate=cfg.communicate,
            adapt_strategies=cfg.adapt_strategies,
        )

        # --- initial entries: random solutions + random strategies ------
        strategies = cfg.initial_strategies or [
            cfg.bounds.random(self.rng) for _ in range(cfg.n_slaves)
        ]
        self._entries = [
            SlaveEntry(
                slave_id=k,
                strategy=strategies[k],
                init_solution=random_solution(self.instance, derive_rng(self.rng_seed, 0, k)),
            )
            for k in range(cfg.n_slaves)
        ]
        self._best = max((e.init_solution for e in self._entries), key=lambda s: s.value)
        # --- run-level books, fed only by _fold and _close --------------
        self._rounds: list[RoundStats] = []
        self._history = [self._best.value]
        self._evaluations = 0
        self._bytes_sent = 0
        self._faults: Counter[str] = Counter()
        # --- slave health: consecutive failures + exponential backoff ---
        self._failures = [0] * cfg.n_slaves
        self._resume = [0] * cfg.n_slaves
        self.was_cancelled = False

        budget = (
            Budget.unlimited()
            if budget_per_slave is None
            else budget_per_slave.scaled(1.0 / cfg.n_rounds)
        )
        target = None if budget_per_slave is None else budget_per_slave.target_value
        clock = VirtualClock(cfg.n_slaves + 1) if self.farm else None
        trace = FarmTrace() if self.farm else None
        if pipelined:
            pipeline_stats = self._run_async(budget, target)
        else:
            self._run_sync(budget, target, clock, trace)
            pipeline_stats = {}

        result = ParallelRunResult(
            variant=self.variant_name,
            best=self._best,
            rounds=self._rounds,
            total_evaluations=self._evaluations,
            virtual_seconds=clock.now if clock else 0.0,
            wall_seconds=time.perf_counter() - t_wall0,
            n_slaves=cfg.n_slaves,
            trace=trace,
            bytes_sent=self._bytes_sent,
            value_history=self._history,
            fault_summary={k: v for k, v in self._faults.items() if v},
            pipeline=cfg.pipeline,
            pipeline_stats=pipeline_stats,
        )
        rec.run_end(
            best_value=result.best.value,
            total_evaluations=result.total_evaluations,
            n_rounds=result.n_rounds,
            wall_seconds=result.wall_seconds,
            virtual_seconds=result.virtual_seconds,
            bytes_sent=result.bytes_sent,
            fault_summary=result.fault_summary,
        )
        return result

    # ------------------------------------------------------------------ #
    # Arrival: one barrier round per window ...
    # ------------------------------------------------------------------ #
    def _run_sync(
        self,
        budget: Budget,
        target: float | None,
        clock: VirtualClock | None,
        trace: FarmTrace | None,
    ) -> None:
        """The Fig. 2 barrier loop: SGP/ISP, send, receive — per round."""
        cfg = self.config
        entries = self._entries
        for b in range(cfg.n_rounds):
            # --- cooperative cancel: only ever between rounds -----------
            if self.cancel is not None and self.cancel.cancelled:
                self.was_cancelled = True
                break
            w = _Window(b)
            tasks = [self._task(w, entry, budget) for entry in entries]
            self.recorder.round_start(
                b, tasked_slaves=cfg.n_slaves - w.backoff, backoff_slaves=w.backoff
            )
            self._note("send_tasks")
            raw_reports = self.backend.run_round(tasks)
            self._note("receive_reports")

            # --- idempotent report handling -----------------------------
            # Accept at most one report per slave per round, keyed by the
            # (round, seq) ids the task carried; duplicated deliveries and
            # stale (delayed) reports from earlier rounds are discarded, so
            # no round ever double-counts a report.
            accepted: dict[int, SlaveReport] = {}
            for report in raw_reports:
                if report.round_index != b or not self._valid(report):
                    w.stale += 1
                elif report.slave_id in accepted:
                    w.duplicates += 1
                else:
                    accepted[report.slave_id] = report
            reports = [accepted[k] for k in sorted(accepted)]

            # --- measured wall telemetry + farm time accounting ---------
            telemetry = self.backend.last_telemetry
            charges = self._charge_round(clock, trace, reports, telemetry)
            if trace is not None and telemetry.phase_seconds:
                trace.record_wall_phases(
                    b,
                    dict(telemetry.phase_seconds),
                    dict(telemetry.gather_idle_s),
                    telemetry.master_wait_s,
                )

            # --- fold results, then one SGP/ISP pass in slave order -----
            improved = False
            for entry, task in zip(entries, tasks):
                report = accepted.get(entry.slave_id)
                if report is not None:
                    improved |= self._fold(w, entry, report)
                elif task is not None:
                    # Tasked but never (validly) reported: crashed slave
                    # or lost message.
                    self._fail(w, entry, b)
            self._adapt(w, entries, reports, improved)
            self._close(w, telemetry, *charges)

            # Early exit once the target objective is reached (time-to-
            # target experiments) — launching further rounds would only
            # inflate the reported makespan.
            if target is not None and self._best.value >= target:
                break

    # ------------------------------------------------------------------ #
    # ... or pipelined bursts that close windows in order
    # ------------------------------------------------------------------ #
    def _run_async(self, budget: Budget, target: float | None) -> dict[str, float]:
        """Bounded-staleness pipelined loop (DESIGN.md §5.9); returns its stats.

        Every slave holds up to :data:`QUEUE_DEPTH` tasks in flight; reports
        are consumed in arrival order and each one is adapted on its own
        entry at once, so the next dispatch sees it.  No slave's dispatch
        frontier runs ``max_staleness`` bursts ahead of the least-advanced
        slave's completion count.  Burst ``b`` belongs to window ``b``;
        every slave settles each burst once (report, failure or backoff
        skip), so windows close in order.  A duplicate or stale report is
        charged to its own window while that is open, else to the oldest
        open one, as a sync round charges a late report to the round it
        arrives in.  A report for burst ``b`` proves the slave's older
        in-flight bursts lost (per-slave arrival is burst-monotone); with no
        arrival for ``burst_timeout_s`` the oldest outstanding burst is
        failed.  :class:`SerialBackend` replay is deterministic: inline
        execution makes arrival order equal dispatch order.
        """
        cfg = self.config
        rec = self.recorder
        P = cfg.n_slaves
        backend = self.backend
        entries = self._entries
        drain_dead = getattr(backend, "drain_dead_slaves", lambda: ())
        drain_dead()  # losses from an earlier lease of this backend are not ours

        next_burst = [0] * P  # dispatch frontier (next undispatched burst)
        completed = [0] * P  # bursts resolved (report, failure, or skip)
        inflight: list[list[tuple[int, int, float]]] = [[] for _ in range(P)]
        seen_seqs: set[int] = set()
        windows: dict[int, _Window] = {}
        next_close = 0  # oldest open window
        stop_dispatch = False
        resolutions = burst_failures = max_staleness = depth_sum = 0
        reclaimed_idle_s = master_wait_s = 0.0

        def books(b: int) -> _Window:
            w = windows.get(b)
            if w is None:
                w = windows[b] = _Window(b)
            return w

        def resolve(k: int, b: int, outcome: str, latency: float) -> None:
            nonlocal next_close, resolutions, max_staleness, depth_sum
            nonlocal reclaimed_idle_s
            completed[k] += 1
            w = books(b)
            w.resolved += 1
            resolutions += 1
            staleness = completed[k] - min(completed)
            max_staleness = max(max_staleness, staleness)
            depth_sum += len(inflight[k])
            rec.burst_telemetry(
                BurstTelemetry(
                    slave_id=k,
                    burst_index=b,
                    queue_depth=len(inflight[k]),
                    staleness=staleness,
                    latency_s=latency,
                    task_nbytes=int(w.task_nbytes.get(k, 0)),
                    report_nbytes=int(w.report_nbytes.get(k, 0)),
                    outcome=outcome,
                )
            )
            while next_close in windows and windows[next_close].resolved >= P:
                w = windows.pop(next_close)
                next_close += 1
                lat = list(w.latency.values())
                # A straggler holds only its own burst back: everyone
                # else's latency lead over the slowest report is barrier
                # idle the pipelining reclaimed.
                if len(lat) >= 2:
                    reclaimed_idle_s += sum(max(lat) - v for v in lat)
                rec.round_start(
                    w.index, tasked_slaves=P - w.backoff, backoff_slaves=w.backoff
                )
                telemetry = RoundTelemetry(
                    round_index=w.index,
                    phase_seconds={
                        "scatter": 0.0,
                        "compute": min(lat) if lat else 0.0,
                        "gather": max(lat) if lat else 0.0,
                    },
                    gather_idle_s=dict(w.latency),
                    master_wait_s=w.wait_s,
                    task_nbytes=dict(w.task_nbytes),
                    report_nbytes=dict(w.report_nbytes),
                )
                self._close(w, telemetry, 0.0, 0.0, dict.fromkeys(w.latency, 0.0))

        def fail_head(k: int) -> None:
            nonlocal burst_failures
            b, _seq, t_dispatched = inflight[k].pop(0)
            w = books(b)
            burst_failures += 1
            self._fail(w, entries[k], next_burst[k])
            self._adapt(w, [entries[k]], [], None)
            w.latency[k] = time.perf_counter() - t_dispatched
            resolve(k, b, "failed", w.latency[k])

        def pump() -> bool:
            """Dispatch/skip every eligible burst; True if anything moved."""
            moved = False
            progress = True
            while progress and not stop_dispatch:
                progress = False
                floor = min(completed)
                for entry in entries:
                    k = entry.slave_id
                    b = next_burst[k]
                    if (
                        b >= cfg.n_rounds
                        or b - floor >= cfg.max_staleness
                        or len(inflight[k]) >= QUEUE_DEPTH
                    ):
                        continue
                    w = books(b)
                    task = self._task(w, entry, budget)
                    next_burst[k] += 1
                    moved = progress = True
                    if task is None:
                        # Backoff: the burst resolves instantly as a skip
                        # (the sync loop's None task), still staleness-paced
                        # so a failing slave cannot skip ahead of the fleet.
                        self._adapt(w, [entry], [], None)
                        resolve(k, b, "skipped", 0.0)
                        continue
                    self._note("dispatch")
                    w.task_nbytes[k] = backend.dispatch(k, task)
                    inflight[k].append((b, task.seq_id, time.perf_counter()))
            return moved

        while True:
            if self.cancel is not None and self.cancel.cancelled:
                self.was_cancelled = True
                stop_dispatch = True
            if target is not None and self._best.value >= target:
                stop_dispatch = True
            moved = pump()
            if not any(inflight):
                if stop_dispatch or not moved or all(b >= cfg.n_rounds for b in next_burst):
                    break
                continue

            t_wait0 = time.perf_counter()
            item = backend.next_report(timeout_s=cfg.burst_timeout_s)
            wait = time.perf_counter() - t_wait0
            master_wait_s += wait
            if next_close in windows:
                windows[next_close].wait_s += wait

            for k in drain_dead():
                # Worker death invalidates everything it had in flight.
                while inflight[k]:
                    fail_head(k)
            if item is None:
                if any(inflight):
                    # Nothing arrived in a full timeout window: declare the
                    # globally oldest outstanding burst lost.
                    fail_head(
                        min(
                            (k for k in range(P) if inflight[k]),
                            key=lambda k: (inflight[k][0][0], inflight[k][0][2]),
                        )
                    )
                continue

            report, report_nbytes = item
            self._note("receive_report")
            k = report.slave_id
            seq = report.seq_id
            valid = self._valid(report)
            seqs = [s for _b, s, _t0 in inflight[k]] if valid else []
            if seq not in seqs:
                # Duplicate of an accepted report, or a report for a burst
                # already written off (timeout raced a live slave).
                own = report.round_index
                w = books(own if valid and next_close <= own < cfg.n_rounds else next_close)
                if valid and seq in seen_seqs:
                    w.duplicates += 1
                else:
                    w.stale += 1
                continue
            # Per-slave arrival order is burst-monotone, so this report
            # proves every older in-flight burst of slave k lost.
            for _ in range(seqs.index(seq)):
                fail_head(k)
            b, _seq, t_dispatched = inflight[k].pop(0)
            seen_seqs.add(seq)
            w = books(b)
            w.latency[k] = time.perf_counter() - t_dispatched
            w.report_nbytes[k] = report_nbytes
            entry = entries[k]
            # Incremental SGP/ISP: the very next dispatch to any slave
            # already sees this report folded in — the freshness the
            # barrier loop only achieves once per round.
            improved = self._fold(w, entry, report)
            self._adapt(w, [entry], [report], improved)
            resolve(k, b, "report", w.latency[k])

        return {
            "bursts_completed": float(resolutions),
            "burst_failures": float(burst_failures),
            "max_staleness": float(max_staleness),
            "mean_queue_depth": depth_sum / resolutions if resolutions else 0.0,
            "reclaimed_idle_s": reclaimed_idle_s,
            "master_wait_s": master_wait_s,
        }

    # ------------------------------------------------------------------ #
    # The shared ledger: each job has exactly one copy
    # ------------------------------------------------------------------ #
    def _valid(self, report: SlaveReport) -> bool:
        """Whether ``report`` carries the (round, seq) ids of a real task."""
        k, P = report.slave_id, self.config.n_slaves
        return 0 <= k < P and report.seq_id == report.round_index * P + k

    def _task(self, w: _Window, entry: SlaveEntry, budget: Budget) -> SlaveTask | None:
        """The slave's task for window ``w``, or None while it backs off."""
        k = entry.slave_id
        b = w.index
        if b < self._resume[k]:
            # Still backing off after a failure: no task this window.
            w.backoff += 1
            entry.stagnant_rounds += 1
            return None
        return SlaveTask(
            x_init=entry.init_solution,
            strategy=entry.strategy,
            budget=budget,
            seed=random_seed_from(derive_rng(self.rng_seed, 1 + b, k)),
            round_index=b,
            seq_id=b * self.config.n_slaves + k,
            pattern=self._fixation_pattern(entry.strategy, k),
        )

    def _fold(self, w: _Window, entry: SlaveEntry, report: SlaveReport) -> bool:
        """Absorb one accepted report; True if it raised the incumbent."""
        self._failures[entry.slave_id] = 0
        w.n_reports += 1
        w.evaluations += report.evaluations
        self._evaluations += report.evaluations
        if entry.absorb_elite([report.best, *report.elite], self.config.elite_capacity):
            entry.stagnant_rounds = 0
            w.improved += 1
        else:
            entry.stagnant_rounds += 1
        # Degraded-mode monotonicity: the incumbent only ever ratchets up.
        if report.best.value > self._best.value:
            self._best = report.best
            return True
        return False

    def _fail(self, w: _Window, entry: SlaveEntry, resume_from: int) -> None:
        """Charge a lost task; the slave sits out an exponential backoff."""
        k = entry.slave_id
        self._failures[k] += 1
        backoff = min(2 ** (self._failures[k] - 1), self.config.max_backoff_rounds)
        self._resume[k] = resume_from + backoff
        entry.stagnant_rounds += 1
        w.failed += 1

    def _adapt(
        self,
        w: _Window,
        entries: list[SlaveEntry],
        reports: list[SlaveReport],
        improved: bool | None,
    ) -> None:
        """SGP then ISP over ``entries``; ``improved=None`` holds alpha."""
        cfg = self.config
        if cfg.adapt_strategies:
            self._note("sgp")
            decisions = update_strategies(
                entries,
                reports,
                cfg.bounds,
                cfg.sgp,
                self.instance.n_items,
                self.rng,
                allow_missing=True,
            )
            w.sgp.update(d.action for d in decisions)
        if not cfg.communicate:
            # Independent threads: each continues from its own best.
            for entry in entries:
                if entry.best is not None:
                    entry.init_solution = entry.best
            w.isp["keep"] += len(entries)
            return
        self._note("isp")
        alpha = cfg.isp.alpha
        if cfg.dynamic_alpha:
            controller = self.alpha_controller
            alpha = controller.alpha if improved is None else controller.update(improved)
        decisions = generate_initial_solutions(
            entries,
            self._best,
            self.instance,
            ISPConfig(alpha=alpha, stagnation_limit=cfg.isp.stagnation_limit),
            self.rng,
        )
        w.isp.update(d.rule for d in decisions)

    def _close(
        self,
        w: _Window,
        telemetry: RoundTelemetry,
        round_seconds: float,
        comm_seconds: float,
        slave_seconds: dict[int, float],
    ) -> None:
        """Emit the window's event group and enter it in the run's books."""
        cfg = self.config
        rec = self.recorder
        rec.round_telemetry(telemetry)
        self._bytes_sent += telemetry.total_bytes
        self._history.append(self._best.value)
        self._faults["failed"] += w.failed
        self._faults["duplicates"] += w.duplicates
        self._faults["stale"] += w.stale
        if w.failed or w.backoff:
            self._faults["degraded_rounds"] += 1
        if w.failed or w.backoff or w.duplicates or w.stale:
            rec.faults(
                w.index,
                failed_slaves=w.failed,
                backoff_slaves=w.backoff,
                duplicate_reports=w.duplicates,
                stale_reports=w.stale,
            )
        if cfg.adapt_strategies:
            rec.sgp(w.index, dict(w.sgp))
        rec.isp(w.index, dict(w.isp))
        self._rounds.append(
            RoundStats(
                round_index=w.index,
                best_value=self._best.value,
                round_virtual_seconds=round_seconds,
                slave_virtual_seconds=slave_seconds,
                communication_seconds=comm_seconds,
                evaluations=w.evaluations,
                improved_slaves=w.improved,
                isp_rules=dict(w.isp),
                sgp_actions=dict(w.sgp),
                failed_slaves=w.failed,
                backoff_slaves=w.backoff,
                duplicate_reports=w.duplicates,
                stale_reports=w.stale,
                phase_wall_seconds=dict(telemetry.phase_seconds),
                gather_idle_s=dict(telemetry.gather_idle_s),
            )
        )
        rec.round_end(
            w.index,
            best_value=self._best.value,
            evaluations=w.evaluations,
            improved_slaves=w.improved,
            n_reports=w.n_reports,
        )

    # ------------------------------------------------------------------ #
    def _charge_round(
        self,
        clock: VirtualClock | None,
        trace: FarmTrace | None,
        reports: list[SlaveReport],
        telemetry: RoundTelemetry,
    ) -> tuple[float, float, dict[int, float]]:
        """Charge one round to the virtual clock; returns time aggregates.

        Sequence per the synchronous scheme: the master serially scatters
        the task messages, every *surviving* slave computes, serially
        reports back, and all slaves then wait at the barrier for the next
        round.  Degraded rounds stay consistent by construction: a crashed
        slave is charged only the traffic that actually crossed the links,
        and the barrier still synchronizes every rank, so the clock vector
        never runs backwards.  Straggler faults multiply the afflicted
        slave's compute time by the backend-reported slowdown factor.

        The byte ledgers and slowdown factors come from the round's
        :class:`~repro.obs.telemetry.RoundTelemetry`; the returned per-slave
        compute charges are keyed by slave id (missing id = missing report).
        """
        m = self.instance.n_constraints
        if self.farm is None or clock is None or trace is None:
            return 0.0, 0.0, {r.slave_id: 0.0 for r in reports}

        master_rank = self.config.n_slaves
        t_round_start = clock.now
        task_nbytes = telemetry.task_nbytes
        report_nbytes = telemetry.report_nbytes
        slowdowns = telemetry.slowdowns

        # Scatter: the master's outgoing link serializes the sends.
        for k in sorted(task_nbytes):
            dt = self.farm.transfer_seconds(task_nbytes[k])
            t0 = clock.time_of(master_rank)
            clock.advance(master_rank, dt)
            trace.record(master_rank, EventKind.SEND, t0, t0 + dt, f"task->{k}")
            # Slave k cannot start before its task arrives.
            clock.wait_until(k, clock.time_of(master_rank))

        # Compute: each surviving slave burns its evaluation count (at its
        # own speed when the farm is heterogeneous; slower under straggle).
        slave_seconds: dict[int, float] = {}
        for report in reports:
            k = report.slave_id
            dt = self.farm.compute_seconds_on(k, report.evaluations, m)
            dt *= float(slowdowns.get(k, 1.0))
            t0 = clock.time_of(k)
            clock.advance(k, dt)
            trace.record(k, EventKind.COMPUTE, t0, t0 + dt, "round-search")
            slave_seconds[k] = dt

        # Gather: the master's incoming link serializes; it can only start
        # receiving from slave k once k has finished.
        comm_seconds = sum(
            self.farm.transfer_seconds(b) for b in task_nbytes.values()
        )
        for k in sorted(report_nbytes):
            dt = self.farm.transfer_seconds(report_nbytes[k])
            start = max(clock.time_of(master_rank), clock.time_of(k))
            clock.wait_until(master_rank, start)
            t0 = clock.time_of(master_rank)
            clock.advance(master_rank, dt)
            trace.record(k, EventKind.SEND, t0, t0 + dt, f"report<-{k}")
            comm_seconds += dt

        # Barrier: every slave waits for the master to finish the round.
        barrier_time = clock.time_of(master_rank)
        for k in range(self.config.n_slaves):
            idle = clock.wait_until(k, barrier_time)
            if idle > 0:
                trace.record(
                    k, EventKind.BARRIER_WAIT, barrier_time - idle, barrier_time, "barrier"
                )
        return clock.now - t_round_start, comm_seconds, slave_seconds

    # ------------------------------------------------------------------ #
    # Conformance tracing (Figure 2)
    # ------------------------------------------------------------------ #
    def enable_phase_trace(self) -> list[str]:
        self._phase_trace = []
        return self._phase_trace

    def _note(self, label: str) -> None:
        if self._phase_trace is not None:
            self._phase_trace.append(label)
