"""Execution backends for the master–slave exchange.

A *backend* moves slave tasks out and slave reports back.  :class:`Backend`
is the base class of every backend and holds everything that is not
transport: the one rule for the Fig. 2 round (:meth:`Backend.run_round`),
the byte ledgers and fault tallies, the warm-lease :meth:`Backend.start`,
the arrival buffer, the frames in flight and the dead-slave books.  A
subclass adds only its transport:

``_bind(instance, config)`` / ``_release()``
    Bind the slaves to a problem (Fig. 2: "Read and send to slaves") and
    release them again; :meth:`Backend.start` and :meth:`Backend.shutdown`
    wrap them, and both are idempotent on a live backend — see *Service
    leasing* below.
``dispatch(slave_id, task)`` or ``dispatch([(slave_id, task), ...])``
    Send tasks without waiting.  A list goes out as one frame per worker
    (multiprocessing) or member (socket); the return value is the task
    payload bytes charged.
``next_report(timeout_s)``
    The next ``(report, nbytes)`` pair in arrival order, or
    ``None`` on timeout, on a worker death (so the caller can consult
    ``drain_dead_slaves``), or at once when nothing is left in flight.

Both master pipelines drive that surface.  The bounded-staleness loop
(DESIGN.md §5.9) calls ``dispatch``, ``next_report`` and
``drain_dead_slaves`` directly; the Fig. 2 barrier calls ``run_round``:
dispatch all tasks, collect reports until nothing is in flight or a single
``round_timeout_s`` deadline passes, apply the backend's rule to workers
still silent, and publish the round's telemetry.  The two framed backends
share the rest of their exchange too: ``_dispatch_frames`` sends one task
batch frame per unit (a worker or a member) and ``_receive`` buffers one
report batch frame; each supplies only the unit lookup and the send.

Three implementations:

:class:`SerialBackend`
    Runs slaves in this process, inline or, when a serve has enough work,
    on a few helper threads whose C searches release the GIL; results are
    folded in dispatch order either way.  Objects travel by reference,
    but every task and report is charged its
    :class:`~repro.parallel.wire.WireCodec` frame length, so the byte volume
    is identical to a real run.  This is also the engine of the *simulated
    farm*: the master driver converts the reports' evaluation counts and
    the charged bytes into virtual time.

:class:`MultiprocessingBackend`
    Persistent worker processes connected by private duplex pipes.  The
    backend encodes task batches and decodes report batches with its one
    :class:`~repro.parallel.wire.WireCodec`;
    :class:`~repro.parallel.shm.ShmComm` only carries the bytes.  This is
    the real-parallelism path (the Python GIL forces processes, not
    threads — see DESIGN.md).

:class:`~repro.parallel.backend_socket.SocketBackend`
    TCP workers that may join and leave mid-run (DESIGN.md §5.10).

Every worker process — a pipe/shm worker here or a TCP agent — serves
frames through the one :func:`worker_loop`: STOP ends it, REBIND rebuilds
its runtime from a bind frame, and each TASK batch frame is decoded, served
through :func:`serve_batch` and answered by one report batch frame.  The
carriers differ only in how the loop's frames arrive and leave.

All produce bit-identical reports for identical tasks (same seeds), which
``tests/test_backends.py`` asserts — the property that makes the simulated
results transferable to real parallel hardware.  Every slave runs on a warm
:class:`~repro.parallel.runtime.SlaveRuntime` (DESIGN.md §5.4) whose arena
is rebound per task; the trajectory depends on the task alone.

Service leasing (DESIGN.md §5.6): backends may outlive a single run.
``start()`` on an already-started backend never respawns — the same problem
(by :meth:`~repro.core.instance.MKPInstance.content_hash`) is a no-op that
keeps the warm arenas, a different problem rebinds live workers in place
(serial: rebuilt runtimes; multiprocessing: one ``REBIND_TAG`` bind frame
per worker) — and ``shutdown()`` is idempotent, so a
:class:`~repro.service.SolverPool` can lease one backend to many
consecutive jobs with trajectories bit-identical to cold backends.

Fault tolerance (DESIGN.md §"Fault model"): every backend accepts a
:class:`~repro.parallel.faults.FaultPlan` that deterministically injects
slave crashes, dropped/duplicated/delayed messages and stragglers; a round's
return value then simply omits the reports the faults destroyed.  Task
entries may be ``None`` — the master uses that to keep a crashed slave in
exponential backoff.  One function decides every slave-side fault on every
backend, :func:`serve_batch`; the caller enacts its verdict.  A worker
process exits hard on a crash and sleeps for a straggle; the serial backend
counts both and turns a straggle into virtual time.  ``dispatch`` applies
task drops master-side through :meth:`Backend._drop_tasks`.  Workers answer
every task frame with exactly one report frame, empty when faults destroyed
its reports, so a round never waits on a lost report.

Observability (DESIGN.md §5.5): after each round the backend publishes one
typed :class:`~repro.obs.telemetry.RoundTelemetry` record
(``last_telemetry``) carrying the wall-clock phase split, per-slave gather
idle, master blocked time and the byte ledgers; the master reads that
record and nothing else.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from collections import Counter, defaultdict, deque
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import connection as mp_connection
from typing import Callable, Sequence

from ..core.instance import MKPInstance
from ..core.tabu_search import TabuSearchConfig
from ..obs.telemetry import RoundTelemetry
from .faults import FaultPlan
from .message import REBIND_TAG, RESULT_TAG, STOP_TAG, TASK_TAG, SlaveReport, SlaveTask
from .runtime import SlaveRuntime
from .shm import (
    DEFAULT_RING_NBYTES,
    CommClosedError,
    ShmComm,
    ShmRing,
    TornFrameError,
    resolve_transport,
)
from .wire import WireCodec, WireError, decode_bind, encode_bind

__all__ = [
    "Backend",
    "SerialBackend",
    "MultiprocessingBackend",
    "serve_batch",
    "worker_loop",
]

#: ``dispatch``'s list form: ``(slave_id, task)`` pairs.
Entries = Sequence[tuple[int, SlaveTask]]


class Backend:
    """Slave executor: the shared sync round and books over one transport.

    Subclasses implement ``_bind``, ``_release``, ``dispatch`` and
    ``next_report`` (see the module docstring) and may override the two
    round hooks, ``_open_round`` and ``_expire_silent``.  Layerbench wraps
    ``run_round``, ``dispatch`` and ``next_report`` per class, so every
    subclass names all three in its own namespace.
    """

    def __init__(
        self,
        n_slaves: int,
        *,
        fault_plan: FaultPlan | None = None,
        round_timeout_s: float | None = None,
    ) -> None:
        if n_slaves < 1:
            raise ValueError("n_slaves must be >= 1")
        if round_timeout_s is not None and round_timeout_s <= 0:
            raise ValueError("round_timeout_s must be positive (or None)")
        self.n_slaves = int(n_slaves)
        #: a round's gather deadline, counted from its start (``None``: none)
        self.round_timeout_s = round_timeout_s
        self.fault_plan = fault_plan or FaultPlan.none()
        #: cumulative injected-fault tally (diagnostics for the chaos suite)
        self.fault_counters: Counter[str] = Counter()
        #: ``start()`` calls that found live warm state already bound to the
        #: same problem and kept it (DESIGN.md §5.6 — the warm-lease path)
        self.warm_reuses = 0
        #: ``start()`` calls that rebound live state to a *different* problem
        self.rebinds = 0
        #: per-round task sizes by slave id (reports: ``last_telemetry``)
        self.last_task_nbytes: dict[int, int] = {}
        #: per-round straggler slowdown factors by slave id (virtual time:
        #: only inline slaves report them; a worker's straggle is a sleep)
        self.last_slowdowns: dict[int, float] = {}
        #: master wall time blocked waiting on slaves (per round, or per
        #: :meth:`next_report` call outside one; 0 for inline slaves)
        self.last_master_wait_s: float = 0.0
        #: typed telemetry record of the last round (DESIGN.md §5.5)
        self.last_telemetry: RoundTelemetry | None = None
        self._instance: MKPInstance | None = None
        self._config: TabuSearchConfig | None = None
        self._codec: WireCodec | None = None
        #: arrival buffer: ``(report, nbytes)`` pairs in arrival order,
        #: ahead of master consumption
        self._arrived: deque[tuple[SlaveReport, int]] = deque()
        #: per unit (worker or member), the slave ids of each task frame not
        #: yet answered; inline slaves never leave any
        self._in_flight: defaultdict[int, deque[tuple[int, ...]]] = defaultdict(deque)
        #: slave ids whose worker was lost since the last ``drain_dead_slaves()``
        self._dead_slaves: set[int] = set()

    # ------------------------------------------------------------------ #
    def start(self, instance: MKPInstance, config: TabuSearchConfig) -> None:
        """Bind the backend to a problem; idempotent on a live backend.

        Re-``start()``-ing a bound backend on the same problem data and
        config keeps the warm state and counts one ``warm_reuses`` — this is
        how a leased backend serves many jobs without re-paying arena
        construction.  The instance compares by identity first (the
        :class:`~repro.service.cache.InstanceCache` hands out one canonical
        object) and by content hash otherwise; the structural config
        compares by value.  Any other problem goes to the transport's
        ``_bind``, and replacing a bound problem counts one ``rebinds``.
        Either way the resulting trajectories are bit-identical to a cold
        backend (every task rebinds the arena before running;
        ``tests/test_service.py`` pins this).  A ``_bind`` that raises
        leaves the bound problem as it was.
        """
        bound = self._instance
        if (
            bound is not None
            and self._config == config
            and (bound is instance or bound.content_hash() == instance.content_hash())
        ):
            self.warm_reuses += 1
            return
        self._bind(instance, config)
        if bound is not None:
            self.rebinds += 1
        self._instance = instance
        self._config = config
        self._codec = WireCodec(instance.n_items)

    def shutdown(self) -> None:
        """Release the transport and unbind; idempotent, and ``start()`` revives.

        Safe to call any number of times, including before ``start()``;
        after a shutdown the backend is unbound and a later ``start()``
        binds it from scratch.
        """
        self._release()
        self._instance = None
        self._config = None
        self._codec = None
        self._arrived.clear()
        self._in_flight.clear()
        self._dead_slaves.clear()

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    def _require_started(self) -> None:
        if self._codec is None:
            raise RuntimeError("backend not started: call start() first")

    def drain_dead_slaves(self) -> list[int]:
        """Slave ids lost since the last call (send/gather failures).

        Consuming: the set is cleared.  Buffered reports those slaves
        delivered before dying remain valid and still surface through
        ``next_report`` — death invalidates the *in-flight*, not the
        already-arrived.
        """
        dead = sorted(self._dead_slaves)
        self._dead_slaves.clear()
        return dead

    def _drop_tasks(
        self, slave_id: int | Entries, task: SlaveTask | None
    ) -> list[tuple[int, SlaveTask | None]]:
        """``dispatch``'s two call forms as one list of ``(slave_id, task)``.

        Each task the plan loses on the wire is set to ``None``: the one
        master-side fault, counted in ``fault_counters["drop_task"]``,
        charged nothing and leaving no frame in flight.
        """
        entries = list(slave_id) if task is None else [(slave_id, task)]
        plan = self.fault_plan
        if plan.is_empty:
            return entries
        out: list[tuple[int, SlaveTask | None]] = []
        for k, t in entries:
            if plan.drops_task(t.round_index, k):
                self.fault_counters["drop_task"] += 1
                t = None
            out.append((k, t))
        return out

    # ------------------------------------------------------------------ #
    # Framed exchange (multiprocessing and socket)
    # ------------------------------------------------------------------ #
    def _dispatch_frames(self, slave_id: int | Entries, task: SlaveTask | None) -> int:
        """Send tasks as one task batch frame per unit; returns their bytes.

        ``_unit_of(k)`` names the unit (worker or member) serving slave
        ``k``, or ``None`` for a slave it has already written off;
        ``_send_task(unit, frame)`` sends one frame and returns whether it
        left.  Each entry is charged its own frame, not the envelope, so
        the ledger is the same for any grouping; a unit whose every task is
        dropped gets no frame, and a frame that did not leave is charged
        nothing and leaves nothing in flight.
        """
        per_unit: dict[int, list[tuple[int, SlaveTask]]] = {}
        for k, t in self._drop_tasks(slave_id, task):
            if t is None:
                continue
            unit = self._unit_of(k)
            if unit is not None:
                per_unit.setdefault(unit, []).append((k, t))
        total = 0
        for unit, entries in per_unit.items():
            frame, sizes = self._codec.encode_task_batch(entries)
            if not self._send_task(unit, frame):
                continue
            self._in_flight[unit].append(tuple(sizes))
            self.last_task_nbytes.update(sizes)
            total += sum(sizes.values())
        return total

    def _receive(self, unit: int, frame: bytes) -> None:
        """Buffer the reports of one report batch frame from ``unit``.

        The frame answers the unit's oldest task frame in flight.  A frame
        that does not decode raises :class:`~repro.parallel.wire.WireError`
        before anything changes.
        """
        reports, sizes = self._codec.decode_report_batch(frame)
        if self._in_flight[unit]:
            self._in_flight[unit].popleft()
        self._arrived.extend(zip(reports, sizes))

    # ------------------------------------------------------------------ #
    # The shared Fig. 2 round
    # ------------------------------------------------------------------ #
    def _open_round(self, deadline: float | None) -> None:
        """Prepare a round before its dispatch (default: nothing to do)."""

    def _expire_silent(self, unit: int) -> None:
        """Deadline rule for a unit still silent (default: count it only).

        Its frames stay in flight, so a late reply still resolves them in
        a later call.
        """

    def run_round(self, tasks: Sequence[SlaveTask | None]) -> list[SlaveReport]:
        """One Fig. 2 round over ``dispatch``/``next_report``.

        ``None`` entries sit the round out.  All other tasks leave in one
        ``dispatch`` call, then reports are collected in arrival order until
        nothing is in flight or the single ``round_timeout_s`` deadline
        (counted from the round's start) passes.  Each unit still silent at
        the deadline counts one ``gather_lost`` and gets the backend's
        ``_expire_silent`` rule.  The phase split is the same everywhere:
        ``scatter`` is the dispatch, ``compute`` the latency to the first
        report (inline slaves execute there) and ``gather`` the whole
        collection, which contains ``compute``.  Returns the reports that
        actually arrived (possibly fewer than the number of tasks placed).
        """
        self._require_started()
        if len(tasks) != self.n_slaves:
            raise ValueError(f"expected {self.n_slaves} tasks; got {len(tasks)}")
        self.last_task_nbytes = {}
        self.last_slowdowns = {}
        self.last_master_wait_s = 0.0
        report_nbytes: dict[int, int] = {}
        gather_idle_s: dict[int, float] = {}
        t_scatter = time.perf_counter()
        deadline = (
            None if self.round_timeout_s is None else t_scatter + self.round_timeout_s
        )
        self._open_round(deadline)
        self.dispatch([(k, task) for k, task in enumerate(tasks) if task is not None])
        t_gather = time.perf_counter()
        reports: list[SlaveReport] = []
        first_report_s: float | None = None
        wait_s = 0.0
        while True:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.perf_counter())
            )
            item = self.next_report(remaining)
            wait_s += self.last_master_wait_s
            if item is None:
                if remaining == 0.0 or not any(self._in_flight.values()):
                    break
                continue  # a worker died; its peers are still in flight
            report, nbytes = item
            now = time.perf_counter() - t_gather
            if first_report_s is None:
                first_report_s = now
            gather_idle_s.setdefault(report.slave_id, now)
            report_nbytes[report.slave_id] = report_nbytes.get(report.slave_id, 0) + nbytes
            reports.append(report)
        t_end = time.perf_counter()
        for unit, frames in list(self._in_flight.items()):
            if not frames:
                continue
            self.fault_counters["gather_lost"] += 1
            for slave_ids in frames:
                for k in slave_ids:
                    gather_idle_s.setdefault(k, t_end - t_gather)
            self._expire_silent(unit)
        self.last_master_wait_s = wait_s
        self.last_telemetry = RoundTelemetry(
            round_index=next((t.round_index for t in tasks if t is not None), -1),
            phase_seconds={
                "scatter": t_gather - t_scatter,
                "compute": first_report_s if first_report_s is not None else 0.0,
                "gather": t_end - t_gather,
            },
            gather_idle_s=gather_idle_s,
            master_wait_s=wait_s,
            task_nbytes=dict(self.last_task_nbytes),
            report_nbytes=report_nbytes,
            slowdowns=dict(self.last_slowdowns),
        )
        reports.sort(key=lambda r: (r.slave_id, r.seq_id))
        return reports


#: A serve hands slaves to helper threads only when the work it takes off
#: the master thread, Σ ``last_execute_s`` × (1 − 1/W), exceeds this many
#: seconds.  Below it, waking the helpers and two Python-heavy threads
#: contending for the GIL cost more than the overlap gains.  Measured on a
#: 2-core host (GK24, ``SerialBackend(4)``, W = 2, rounds of four equal
#: tasks, 15 alternating pairs per task size, every serve threaded), the
#: threaded rounds ran ×0.41–0.51 the inline speed at Σ ≤ 0.5 ms, ×0.72–0.94
#: at Σ = 0.85–1.5 ms, ×1.09–1.24 at Σ = 2.3–2.8 ms and ×1.27–1.48 at
#: Σ ≈ 8 ms: they break even near Σ = 2 ms, which is 1 ms off the master.
_HANDOFF_S = 1e-3


def usable_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API on this platform
        return os.cpu_count() or 1


class SerialBackend(Backend):
    """In-process backend; the substrate of the simulated farm.

    ``dispatch`` only charges and queues tasks; they execute the next time
    the master asks for a report, in this process, and their results are
    folded in dispatch order: reports join the arrival buffer, crashes and
    straggles are tallied and report bytes charged.  Arrival order
    therefore equals dispatch order (what makes async serial replay
    seeded-deterministic, DESIGN.md §5.9), and a round's phase split
    charges the execution to ``compute``.  Each task is served by the same
    :func:`serve_batch` as a worker process, with that slave's held-report
    list: a crash is counted, a straggle becomes ``last_slowdowns``.
    Every slave keeps its own warm runtime; inline slaves never hang, so
    the shared round needs no deadline.

    ``threads`` (W; default: :func:`usable_cpus`, at most ``n_slaves``)
    bounds the threads one serve may search on at once; backends that serve
    side by side share the CPUs through it (``SolverPool.serial`` divides
    them among its slots).  The native C search releases the GIL, so
    independent slaves can search at once: a serve with at least two
    slaves queued, every queued task searched in C
    (:meth:`SlaveRuntime.runs_native`) and enough work (see
    ``_HANDOFF_S``) groups its tasks by slave, and the master thread and
    up to W − 1 pooled helper threads take groups from one shared list;
    one slave's tasks run in order on one thread.  The results are still
    folded on the master in dispatch order, so every report, tally and byte
    is the same as inline execution's.  ``threads=1`` runs every task
    inline.  The pool starts at the first serve that uses it, lives across
    ``start()`` and rebinds, and is joined by ``shutdown()``.
    """

    def __init__(
        self,
        n_slaves: int,
        *,
        fault_plan: FaultPlan | None = None,
        threads: int | None = None,
    ) -> None:
        super().__init__(n_slaves, fault_plan=fault_plan)
        if threads is not None and threads < 1:
            raise ValueError("threads must be >= 1 (or None)")
        #: threads a serve may use, the master's included (1: all inline)
        self.threads = min(self.n_slaves, usable_cpus() if threads is None else int(threads))
        #: the helper threads, started by the first serve that uses them
        self._helpers: ThreadPoolExecutor | None = None
        self._runtimes: list[SlaveRuntime] = []
        #: dispatched tasks awaiting execution, in dispatch order; ``None``
        #: (a dropped task, or a sync round's opening) only releases that
        #: slave's held reports
        self._queued: deque[tuple[int, SlaveTask | None]] = deque()
        #: per slave, the reports a delay fault holds back
        self._held: list[list[SlaveReport]] = [[] for _ in range(self.n_slaves)]

    def _bind(self, instance: MKPInstance, config: TabuSearchConfig) -> None:
        """Build one warm runtime per slave (in place of a live set)."""
        # Helper threads only read the instance: build its lazily cached
        # fields here, on the master thread.
        instance.hot, instance.density_order, instance.tightness
        # Held reports belong to the old problem, as a rebound worker's do.
        self._held = [[] for _ in range(self.n_slaves)]
        self._runtimes = [
            SlaveRuntime(instance, config, slave_id=k) for k in range(self.n_slaves)
        ]

    def _release(self) -> None:
        """Join the helper threads; drop the warm runtimes and every task
        not yet executed."""
        if self._helpers is not None:
            self._helpers.shutdown()
            self._helpers = None
        self._runtimes = []
        self._queued.clear()

    def _open_round(self, deadline: float | None) -> None:
        """Release every report a delay fault held in an earlier round.

        Every slave releases, including those sitting this round out; the
        stale reports arrive after this round's inline execution, ahead of
        its fresh reports, and the master discards them by seq id.
        """
        self._queued.extend((k, None) for k, held in enumerate(self._held) if held)

    run_round = Backend.run_round

    def dispatch(self, slave_id: int | Entries, task: SlaveTask | None = None) -> int:
        """Charge and queue tasks for their slaves; returns the task bytes.

        The slaves run when the master next calls :meth:`next_report`.  Each
        task is charged its codec frame length; a task a drop fault loses on
        the wire is charged nothing.
        """
        self._require_started()
        total = 0
        for k, t in self._drop_tasks(slave_id, task):
            if t is not None:
                nbytes = self._codec.task_nbytes(t)
                self.last_task_nbytes[k] = nbytes
                total += nbytes
            self._queued.append((k, t))
        return total

    def _serve_queued(self) -> None:
        """Execute every dispatched task and fold the results in dispatch order.

        Each task goes through :func:`serve_batch` with its slave's held
        reports, which ride out first, so per-slave arrival order stays
        monotone in burst index — the invariant the async master's loss
        detection rests on.  Every report is charged its codec frame length.
        A task that raises stops the serve as inline execution would: the
        tasks dispatched before it are folded and those after it stay queued.
        """
        if self._use_helpers():
            self._serve_on_helpers()
        while self._queued:
            k, task = self._queued.popleft()
            self._fold(
                serve_batch(
                    self._runtimes[k],
                    self.fault_plan,
                    [] if task is None else [(k, task)],
                    self._held[k],
                )
            )

    def _use_helpers(self) -> bool:
        """Whether this serve is worth running on the helper threads.

        Only the C search releases the GIL, so every queued task must run
        there; a search in Python would only contend with the others.  The
        work estimate is each queued slave's previous task time, so a fresh
        runtime (0 s) serves inline.
        """
        if self.threads < 2:
            return False
        slaves = set()
        for k, task in self._queued:
            if task is not None:
                if not self._runtimes[k].runs_native(task):
                    return False
                slaves.add(k)
        work_s = sum(self._runtimes[k].last_execute_s for k in slaves)
        return len(slaves) >= 2 and work_s * (1.0 - 1.0 / self.threads) > _HANDOFF_S

    def _serve_on_helpers(self) -> None:
        """Serve the queue with one job per slave on the helper pool.

        Each job runs its slave's tasks in dispatch order and keeps every
        verdict and the held list after it; the master then folds the
        verdicts in dispatch order.  If a task raised, the serve ends as
        inline execution would have: the tasks before it are folded, every
        other slave's held list is put back as it stood after its last of
        those, the tasks after it are queued again and its error is raised.
        Other slaves' jobs do not stop at the error, so a task queued again
        may already have run once: the runtimes' telemetry (``tasks_served``,
        ``last_execute_s``, ``recores``, ``core_tasks``) then counts it
        twice, though no report or tally does.
        """
        queued = list(self._queued)
        self._queued.clear()
        positions: dict[int, list[int]] = {}
        for i, (k, _) in enumerate(queued):
            positions.setdefault(k, []).append(i)
        held_before = {k: list(self._held[k]) for k in positions}
        #: per queued entry: ``(verdict, held after it)`` or the error it raised
        results: list = [None] * len(queued)

        def serve(k: int) -> None:
            runtime, held = self._runtimes[k], self._held[k]
            for i in positions[k]:
                task = queued[i][1]
                try:
                    verdict = serve_batch(
                        runtime, self.fault_plan, [] if task is None else [(k, task)], held
                    )
                except BaseException as exc:  # raised on the master, in dispatch order
                    results[i] = exc
                    return
                results[i] = (verdict, list(held))

        # The master and the helpers take slaves from one shared list, so a
        # long job does not hold back the short ones queued behind it.  The
        # master's share pays: mapping the slaves onto W pooled threads while
        # the master waits read gk24-serial solve_s +11 % (2-core host, 6
        # alternating pairs, seeds 1001-1006, --seconds 12).
        pending = deque(positions)

        def drain() -> None:
            while True:
                try:
                    k = pending.popleft()
                except IndexError:
                    return
                serve(k)

        if self._helpers is None:
            self._helpers = ThreadPoolExecutor(
                self.threads - 1, thread_name_prefix="repro-serial-"
            )
        helping = [
            self._helpers.submit(drain) for _ in range(min(self.threads, len(pending)) - 1)
        ]
        drain()
        for future in helping:
            future.result()
        for i, result in enumerate(results):
            if isinstance(result, BaseException):
                failed = queued[i][0]
                for k, held in held_before.items():
                    if k != failed:
                        done = [results[j][1] for j in positions[k] if j < i]
                        self._held[k][:] = done[-1] if done else held
                self._queued.extend(queued[i + 1 :])
                raise result
            self._fold(result[0])

    def _fold(self, verdict: tuple[list[SlaveReport], bool, dict[int, float]]) -> None:
        """Tally one :func:`serve_batch` verdict and buffer its reports."""
        reports, crashed, factors = verdict
        if crashed:
            # Inline "process death": the task is consumed, no report.
            self.fault_counters["crash"] += 1
        for slave, factor in factors.items():
            self.fault_counters["straggle"] += 1
            self.last_slowdowns[slave] = factor
        self._arrived.extend(
            (report, self._codec.report_nbytes(report)) for report in reports
        )

    def next_report(
        self, timeout_s: float | None = None
    ) -> tuple[SlaveReport, int] | None:
        """Pop the next ``(report, nbytes)`` pair, or ``None``.

        Slaves run inline, so nothing can arrive *later*: an empty queue is
        final and the timeout is irrelevant — ``None`` returns immediately,
        which is exactly what lets the async master's timeout policy run
        deterministically under serial replay.
        """
        del timeout_s  # inline slaves: arrival already happened or never will
        if not self._arrived:
            self._serve_queued()
        return self._arrived.popleft() if self._arrived else None


def serve_batch(
    runtime: SlaveRuntime,
    fault_plan: FaultPlan,
    entries: Entries,
    held: list[SlaveReport],
) -> tuple[list[SlaveReport], bool, dict[int, float]]:
    """Serve one task batch; returns ``(reports, crashed, straggle factors)``.

    The one serving path and the one code that decides slave-side faults,
    on every backend and under every plan, empty or armed.  Each entry runs
    through :meth:`SlaveRuntime.execute`, which audits its ``x_init``
    first.  The plan applies per entry: a crash stops the batch
    (``crashed`` is true and no later entry runs), a straggle records its
    factor by slave id, and a report may be dropped, duplicated or delayed.
    ``held`` is the slave's (or worker's) list of delayed reports: they ride
    out first, ahead of this batch's reports, and this batch's delayed
    reports take their place — so a delay fault costs the master no wait
    and is charged on the round the stale bytes arrive
    (``tests/test_wall_clock.py``).  The caller enacts the verdict: a worker
    process through :func:`_serve_or_die`, the serial backend by counting it.
    """
    out = list(held)
    held.clear()
    factors: dict[int, float] = {}
    for k, task in entries:
        r = task.round_index
        if fault_plan.crashes(r, k):
            return out, True, factors
        report = runtime.execute(task, slave_id=k)
        factor = fault_plan.straggle_factor(r, k)
        if factor > 1.0:
            factors[k] = factor
        if fault_plan.drops_report(r, k):
            continue  # the report is lost in flight
        copies = [report] * (2 if fault_plan.duplicates_report(r, k) else 1)
        (held if fault_plan.delays_report(r, k) else out).extend(copies)
    return out, False, factors


#: Worker straggler injection sleeps ``_STRAGGLE_SLEEP_S * (factor - 1)``
#: wall seconds, capped — long enough to trip a short gather timeout in the
#: chaos tests, short enough to keep the suite fast.
_STRAGGLE_SLEEP_S = 0.05
_MAX_STRAGGLE_SLEEP_S = 1.0


def _serve_or_die(
    runtime: SlaveRuntime,
    fault_plan: FaultPlan,
    entries: Entries,
    held: list[SlaveReport],
) -> list[SlaveReport]:
    """:func:`serve_batch` in a worker process, which enacts its verdict.

    A crash is a hard exit with no cleanup and no reply; each straggle is
    a real, capped sleep.  The master only ever observes the symptoms.
    """
    reports, crashed, factors = serve_batch(runtime, fault_plan, entries, held)
    if crashed:
        os._exit(17)
    for factor in factors.values():
        time.sleep(min(_STRAGGLE_SLEEP_S * (factor - 1.0), _MAX_STRAGGLE_SLEEP_S))
    return reports


def worker_loop(
    recv: Callable[[], tuple[int, bytes]],
    reply: Callable[[bytes], None],
    fault_plan: FaultPlan,
    runtime: SlaveRuntime | None = None,
) -> None:
    """Serve frames until STOP: the one worker agent, on every carrier.

    ``recv`` returns the next ``(tag, frame)`` and ``reply`` sends one
    report batch frame back; the carrier setup around the loop supplies
    both.  STOP ends the loop.  REBIND decodes a bind frame and builds a
    fresh :class:`~repro.parallel.runtime.SlaveRuntime` in place of a
    process respawn; the carrier keeps frames in order, so every later task
    sees the new problem with no acknowledgement round-trip, and reports a
    delay fault held belong to the old problem and are dropped.  TASK
    decodes the batch, serves it through :func:`_serve_or_die` and answers
    with exactly one report batch frame.  ``runtime`` is the problem bound
    at spawn, or ``None`` until the first REBIND.  A task before any bind,
    or an unknown tag, is a protocol error; an undecodable frame raises
    :class:`~repro.parallel.wire.WireError`.
    """
    held: list[SlaveReport] = []
    while True:
        tag, frame = recv()
        if tag == STOP_TAG:
            return
        if tag == REBIND_TAG:
            instance, config = decode_bind(frame)
            slave_id = 0 if runtime is None else runtime.slave_id
            runtime = SlaveRuntime(instance, config, slave_id=slave_id)
            held = []
            continue
        if tag != TASK_TAG:
            raise RuntimeError(f"worker: unexpected tag {tag}")
        if runtime is None:
            raise RuntimeError("worker: task frame before problem bind")
        codec = WireCodec(runtime.instance.n_items)
        entries, _ = codec.decode_task_batch(frame)
        reports = _serve_or_die(runtime, fault_plan, entries, held)
        reply(codec.encode_report_batch(reports)[0])


def _worker_main(
    conn: "mp.connection.Connection",
    instance: MKPInstance,
    config: TabuSearchConfig,
    slave_ids: tuple[int, ...],
    fault_plan: FaultPlan,
    shm_spec: tuple[str, str] | None = None,
) -> None:
    """Worker process entry point: carrier setup around :func:`worker_loop`.

    One worker owns a whole slave *group* (``slave_ids``; a single id in
    the classic one-process-per-slave layout) on one warm runtime built at
    spawn.  The fault plan travels to the worker so faults happen on the
    worker side of the wire.

    ``shm_spec`` names the two rings the master created for this worker
    (task direction, report direction); attach failure silently degrades
    to the in-band pipe carrier — the doorbell protocol needs no
    negotiation, so the master never has to know.
    """
    send_ring = recv_ring = None
    if shm_spec is not None:
        task_name, report_name = shm_spec
        try:
            recv_ring = ShmRing.attach(task_name)
            send_ring = ShmRing.attach(report_name)
        except Exception:  # pragma: no cover - host-dependent attach failure
            if recv_ring is not None:
                recv_ring.close()
            send_ring = recv_ring = None
    comm = ShmComm(conn, send_ring=send_ring, recv_ring=recv_ring)
    try:
        worker_loop(
            comm.recv_message,
            lambda frame: comm.send(frame, tag=RESULT_TAG),
            fault_plan,
            SlaveRuntime(instance, config, slave_id=slave_ids[0]),
        )
    except (EOFError, BrokenPipeError, CommClosedError):  # pragma: no cover - master died
        pass
    finally:
        comm.close()


class MultiprocessingBackend(Backend):
    """Real process-parallel backend (PVM stand-in; mpi4py idiom over pipes).

    Workers are forked once per run and reused across rounds, so the
    problem data crosses the process boundary a single time — the same
    optimization the paper's master applies ("Read and send to slaves
    problem data" once, outside the round loop) — and each worker builds
    its search arena once at spawn and rebinds it per task.

    Hardened: every task frame is answered by exactly one report frame, and
    :meth:`next_report` waits in one ``connection.wait()`` over the workers
    with frames in flight, so a slow or dead rank never delays a fast one.
    A worker that breaks its pipe, or stays silent past the round deadline,
    is terminated (``respawns`` counts its lazy replacement), and the round
    returns without its reports instead of deadlocking the Fig. 2 barrier.

    Transport (DESIGN.md §5.7): the backend owns the one
    :class:`~repro.parallel.wire.WireCodec` of the master side and charges
    each entry its frame length; per worker, a byte carrier
    (:class:`~repro.parallel.shm.ShmComm`) moves the frames.  With
    ``transport="shm"`` (the automatic choice wherever POSIX shared memory
    works; override with the argument or ``REPRO_TRANSPORT``) every task
    and report frame moves through a per-worker pair of
    :class:`~repro.parallel.shm.ShmRing` buffers and the pipe carries only
    constant-size doorbells; ``"pipe"`` ships the same frames in-band.
    Byte ledgers are identical either way.

    Batching: ``batch_k`` slaves share one worker process and one
    :class:`~repro.parallel.runtime.SlaveRuntime`; a round then exchanges
    one batched message per worker per direction instead of one per slave.
    Reports are bit-identical to the ``batch_k == 1`` layout (pinned by
    ``tests/differential.py``); only the process count changes.
    """

    def __init__(
        self,
        n_slaves: int,
        *,
        mp_context: str = "fork",
        fault_plan: FaultPlan | None = None,
        round_timeout_s: float | None = 60.0,
        shutdown_timeout_s: float = 10.0,
        transport: str | None = None,
        batch_k: int = 1,
    ) -> None:
        super().__init__(n_slaves, fault_plan=fault_plan, round_timeout_s=round_timeout_s)
        if batch_k < 1:
            raise ValueError("batch_k must be >= 1")
        if shutdown_timeout_s <= 0:
            raise ValueError("shutdown_timeout_s must be positive")
        #: slaves served per worker process and message (1 = classic layout)
        self.batch_k = int(batch_k)
        #: worker process count: ``ceil(n_slaves / batch_k)``
        self.n_workers = -(-self.n_slaves // self.batch_k)
        #: resolved payload carrier: explicit arg > ``REPRO_TRANSPORT`` > auto
        self.transport = resolve_transport(transport)
        self.shutdown_timeout_s = float(shutdown_timeout_s)
        self._ctx = mp.get_context(mp_context)
        self._procs: list[mp.Process | None] = []
        self._comms: list[ShmComm | None] = []
        #: respawn count per worker (the chaos suite asserts recovery)
        self.respawns: Counter[int] = Counter()

    @property
    def worker_transports(self) -> list[str | None]:
        """Per-worker carrier in use ("shm" or "pipe"; ``None`` while buried)."""
        return [None if comm is None else comm.transport for comm in self._comms]

    # ------------------------------------------------------------------ #
    def _group_slaves(self, w: int) -> range:
        """Slave ids served by worker ``w`` (one id when ``batch_k == 1``)."""
        lo = w * self.batch_k
        return range(lo, min(lo + self.batch_k, self.n_slaves))

    def _spawn(self, w: int, instance: MKPInstance, config: TabuSearchConfig) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        task_ring: ShmRing | None = None
        report_ring: ShmRing | None = None
        if self.transport == "shm":
            try:
                task_ring = ShmRing.create(DEFAULT_RING_NBYTES)
                report_ring = ShmRing.create(DEFAULT_RING_NBYTES)
            except Exception:
                # Segment creation failed (exhausted /dev/shm, hardened
                # host, ...): this worker degrades to the in-band pipe
                # carrier.  The doorbell protocol is carrier-agnostic, so
                # nothing else changes.
                if task_ring is not None:
                    task_ring.close()
                    task_ring.unlink()
                task_ring = report_ring = None
                self.fault_counters["shm_fallback"] += 1
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                instance,
                config,
                tuple(self._group_slaves(w)),
                self.fault_plan,
                None if report_ring is None else (task_ring.name, report_ring.name),
            ),
            daemon=True,
            name=f"repro-slave-{w}",
        )
        proc.start()
        child_conn.close()
        self._procs[w] = proc
        self._comms[w] = ShmComm(parent_conn, send_ring=task_ring, recv_ring=report_ring)

    def _bury(self, w: int) -> None:
        """Terminate worker ``w`` and close its carrier (which unlinks its rings)."""
        proc = self._procs[w]
        if proc is not None:
            if proc.is_alive():  # pragma: no branch
                proc.terminate()
            proc.join(timeout=5)
            self._procs[w] = None
        comm = self._comms[w]
        if comm is not None:
            comm.close()
            self._comms[w] = None
        self._in_flight.pop(w, None)

    #: deadline rule: a worker still silent when the round closes is hung
    #: or dead — bury it, and the next dispatch respawns it
    _expire_silent = _bury

    def _lose(self, w: int) -> None:
        """Worker ``w`` died: queue its slaves for the sweep and bury it."""
        self._dead_slaves.update(self._group_slaves(w))
        self._bury(w)

    def _ensure_alive(self, w: int) -> ShmComm:
        """Respawn worker ``w`` if it is dead; return its live endpoint."""
        proc = self._procs[w]
        if proc is None or not proc.is_alive():
            self._bury(w)
            self._spawn(w, self._instance, self._config)
            self.respawns[w] += 1
        comm = self._comms[w]
        assert comm is not None
        return comm

    # ------------------------------------------------------------------ #
    def _bind(self, instance: MKPInstance, config: TabuSearchConfig) -> None:
        """Spawn the worker fleet, or rebind the live one in place.

        On a cold backend this spawns the fleet (problem data crosses the
        process boundary once, at spawn).  On a live one it *never*
        respawns: each live worker gets one
        :data:`~repro.parallel.message.REBIND_TAG` bind frame, which
        rebuilds its ``SlaveRuntime`` in place.  Dead workers are left to
        the lazy respawn in :meth:`dispatch`, which picks up the new problem
        from the bound fields.
        """
        if self._procs:
            bind = encode_bind(instance, config)
            for w in range(self.n_workers):
                comm = self._comms[w]
                proc = self._procs[w]
                if comm is None or comm.closed or proc is None or not proc.is_alive():
                    continue  # lazily respawned (with the new problem) on use
                try:
                    comm.send(bind, tag=REBIND_TAG)
                except (BrokenPipeError, OSError, CommClosedError):
                    self._bury(w)
            return
        self._procs = [None] * self.n_workers
        self._comms = [None] * self.n_workers
        for w in range(self.n_workers):
            self._spawn(w, instance, config)

    run_round = Backend.run_round

    def dispatch(self, slave_id: int | Entries, task: SlaveTask | None = None) -> int:
        """Send tasks without waiting for any report; returns their bytes.

        Tasks travel as one batch envelope per worker — a single entry when
        ``batch_k == 1`` — and each envelope is answered by exactly one
        report batch, possibly empty when a drop fault destroyed its
        reports, which keeps the doorbell pipe's message-per-frame cadence
        intact.  A task a drop fault loses on the wire is charged nothing,
        and a worker whose every task is dropped gets no frame.  A dead
        worker is respawned lazily here; if the send itself fails the
        group's slaves are queued for :meth:`drain_dead_slaves`.
        """
        self._require_started()
        return self._dispatch_frames(slave_id, task)

    def _unit_of(self, k: int) -> int:
        return k // self.batch_k

    def _send_task(self, w: int, frame: bytes) -> bool:
        try:
            self._ensure_alive(w).send(frame, tag=TASK_TAG)
        except (BrokenPipeError, OSError, CommClosedError):
            # The worker died between liveness check and send; the next
            # dispatch respawns it.
            self.fault_counters["send_failed"] += 1
            self._lose(w)
            return False
        return True

    def next_report(
        self, timeout_s: float | None = None
    ) -> tuple[SlaveReport, int] | None:
        """Wait for the next ``(report, nbytes)`` pair in arrival order.

        One multiplexed ``connection.wait`` over every worker with a frame
        in flight; coalesced doorbells are drained eagerly (``poll(0.0)``
        loop) so a burst of arrivals costs one select.  Returns ``None``
        when the timeout expires with nothing buffered, at once when no
        frame is in flight, or when a worker died during the wait (so the
        caller can observe the loss via :meth:`drain_dead_slaves` without
        blocking for the full timeout).  Worker death mid-drain buries the
        worker and records its slaves; reports it delivered before dying
        still count.
        """
        self.last_master_wait_s = 0.0
        deadline = None if timeout_s is None else time.perf_counter() + timeout_s
        while not self._arrived:
            live = {
                self._comms[w].connection: w
                for w, frames in self._in_flight.items()
                if frames
            }
            if not live:
                return None  # nothing in flight: nothing can arrive
            timeout = None
            if deadline is not None:
                timeout = deadline - time.perf_counter()
                if timeout <= 0.0:
                    return None
            t_wait = time.perf_counter()
            ready = mp_connection.wait(list(live), timeout)
            self.last_master_wait_s += time.perf_counter() - t_wait
            if not ready:
                return None  # deadline expired with every worker silent
            died = False
            for raw in ready:
                w = live[raw]
                comm = self._comms[w]
                try:
                    while self._in_flight[w] and comm.poll(0.0):
                        self._receive(w, comm.recv(tag=RESULT_TAG))
                except (EOFError, OSError, TornFrameError, CommClosedError, WireError):
                    # The worker died mid-round, tore its ring or sent a
                    # frame that does not decode.
                    self.fault_counters["gather_lost"] += 1
                    self._lose(w)
                    died = True
            if died and not self._arrived:
                return None  # surface the loss instead of re-waiting
        return self._arrived.popleft()

    def _release(self) -> None:
        """Stop every worker, bounded by one shared deadline.

        Signals *all* workers first, then joins each against the remaining
        budget of a single ``shutdown_timeout_s`` window — P hung workers
        cost the deadline once, not ``P × 10`` seconds of sequential joins.
        Whoever is still alive afterwards is terminated.  A no-op when no
        fleet is up (``tests/test_backends.py`` pins the idempotence), and
        a later ``start()`` spawns a fresh fleet.
        """
        if not self._procs and not self._comms:
            return
        for comm in self._comms:
            if comm is None or comm.closed:
                continue
            try:
                comm.send(b"", tag=STOP_TAG)
            except (BrokenPipeError, OSError, CommClosedError):  # pragma: no cover - dead worker
                pass
        deadline = time.monotonic() + self.shutdown_timeout_s
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        stragglers = [p for p in self._procs if p is not None and p.is_alive()]
        for proc in stragglers:  # pragma: no cover - defensive
            proc.terminate()
        for proc in stragglers:  # pragma: no cover - defensive
            proc.join(timeout=5)
        for comm in self._comms:
            if comm is not None:
                comm.close()
        self._procs = []
        self._comms = []
