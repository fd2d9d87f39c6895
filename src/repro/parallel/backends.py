"""Execution backends for the master–slave exchange.

A *backend* moves slave tasks out and slave reports back.  Its whole
per-transport surface is five methods:

``start(instance, config)`` / ``shutdown()``
    Bind the slaves to a problem (Fig. 2: "Read and send to slaves") and
    release them again.  Both are idempotent on a live backend — see
    *Service leasing* below.
``dispatch(slave_id, task)`` or ``dispatch([(slave_id, task), ...])``
    Send tasks without waiting.  A list goes out as one frame per worker
    (multiprocessing) or member (socket); the return value is the task
    payload bytes charged.
``next_report(timeout_s)``
    The next ``(report, nbytes)`` pair in arrival order, or
    ``None`` on timeout, on a worker death (so the caller can consult
    ``drain_dead_slaves``), or at once when nothing is left in flight.
``drain_dead_slaves()``
    Slave ids whose worker was lost since the last call (consuming).

Both master pipelines drive that surface.  The bounded-staleness loop
(DESIGN.md §5.9) calls it directly; the Fig. 2 barrier calls ``run_round``,
which every backend binds to the one shared :func:`_run_round`: dispatch all
tasks, collect reports until nothing is in flight or a single
``round_timeout_s`` deadline passes, apply the backend's rule to workers
still silent, and publish the round's telemetry.

Three implementations:

:class:`SerialBackend`
    Runs slaves inline, one after the other.  Objects travel by reference,
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
task drops master-side through :func:`_drop_tasks`.  Workers answer every
task frame with exactly one report frame, empty when faults destroyed its
reports, so a round never waits on a lost report.

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
from multiprocessing import connection as mp_connection
from typing import Callable, Protocol, Sequence

from ..core.instance import MKPInstance
from ..core.tabu_search import TabuSearchConfig
from ..obs.telemetry import RoundTelemetry
from .comm import CommClosedError, PipeComm
from .faults import FaultPlan
from .message import REBIND_TAG, RESULT_TAG, STOP_TAG, TASK_TAG, SlaveReport, SlaveTask
from .runtime import SlaveRuntime
from .shm import DEFAULT_RING_NBYTES, ShmComm, ShmRing, TornFrameError, resolve_transport
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


class Backend(Protocol):
    """Slave executor: a transport surface plus the shared sync round."""

    n_slaves: int
    #: the last ``run_round``'s measurements (DESIGN.md §5.5)
    last_telemetry: RoundTelemetry | None

    def start(self, instance: MKPInstance, config: TabuSearchConfig) -> None:
        """Distribute the problem data (Fig. 2: 'Read and send to slaves')."""
        ...  # pragma: no cover

    def dispatch(
        self, slave_id: int | Entries, task: SlaveTask | None = None
    ) -> int:
        """Send one task, or a list of ``(slave_id, task)`` pairs; no waiting."""
        ...  # pragma: no cover

    def next_report(
        self, timeout_s: float | None = None
    ) -> tuple[SlaveReport, int] | None:
        """The next ``(report, nbytes)`` in arrival order, or ``None``."""
        ...  # pragma: no cover

    def drain_dead_slaves(self) -> list[int]:
        """Slave ids lost since the last call (consuming)."""
        ...  # pragma: no cover

    def run_round(self, tasks: Sequence[SlaveTask | None]) -> list[SlaveReport]:
        """Execute one search round; ``None`` entries sit the round out.

        Every backend binds :func:`_run_round`.  Returns the reports that
        actually arrived (possibly fewer than the number of tasks placed).
        """
        ...  # pragma: no cover

    def shutdown(self) -> None:
        """Release workers/resources."""
        ...  # pragma: no cover


def _as_entries(slave_id: int | Entries, task: SlaveTask | None) -> Entries:
    """``dispatch``'s two call forms as one list of ``(slave_id, task)``."""
    return list(slave_id) if task is None else [(slave_id, task)]


def _drop_tasks(
    backend, entries: Entries
) -> Sequence[tuple[int, SlaveTask | None]]:
    """``entries`` with each task the plan loses on the wire set to ``None``.

    The one master-side fault, shared by every ``dispatch`` that takes a
    plan: a dropped task is counted in ``fault_counters["drop_task"]``,
    charged nothing and leaves no frame in flight.
    """
    plan = backend.fault_plan
    if plan.is_empty:
        return entries
    out: list[tuple[int, SlaveTask | None]] = []
    for k, t in entries:
        if plan.drops_task(t.round_index, k):
            backend.fault_counters["drop_task"] += 1
            t = None
        out.append((k, t))
    return out


def _run_round(backend, tasks: Sequence[SlaveTask | None]) -> list[SlaveReport]:
    """One Fig. 2 round over ``dispatch``/``next_report``, for every backend.

    All non-``None`` tasks leave in one ``dispatch`` call, then reports are
    collected in arrival order until nothing is in flight or the single
    ``round_timeout_s`` deadline (counted from the round's start) passes.
    Each worker still silent at the deadline counts one ``gather_lost`` and
    gets the backend's ``_expire_silent`` rule.  The phase split is the
    same everywhere: ``scatter`` is the dispatch, ``compute`` the latency
    to the first report (inline slaves execute there) and ``gather`` the
    whole collection, which contains ``compute``.
    """
    backend._require_started()
    if len(tasks) != backend.n_slaves:
        raise ValueError(f"expected {backend.n_slaves} tasks; got {len(tasks)}")
    backend.last_task_nbytes = {}
    backend.last_report_nbytes = {}
    backend.last_slowdowns = {}
    backend.last_gather_idle_s = {}
    backend.last_master_wait_s = 0.0
    t_scatter = time.perf_counter()
    deadline = (
        None
        if backend.round_timeout_s is None
        else t_scatter + backend.round_timeout_s
    )
    backend._open_round(deadline)
    backend.dispatch([(k, task) for k, task in enumerate(tasks) if task is not None])
    t_gather = time.perf_counter()
    reports: list[SlaveReport] = []
    first_report_s: float | None = None
    wait_s = 0.0
    while True:
        remaining = (
            None if deadline is None else max(0.0, deadline - time.perf_counter())
        )
        item = backend.next_report(remaining)
        wait_s += backend.last_master_wait_s
        if item is None:
            if remaining == 0.0 or not any(backend._in_flight.values()):
                break
            continue  # a worker died; its peers are still in flight
        report, nbytes = item
        now = time.perf_counter() - t_gather
        if first_report_s is None:
            first_report_s = now
        backend.last_gather_idle_s.setdefault(report.slave_id, now)
        backend.last_report_nbytes[report.slave_id] = (
            backend.last_report_nbytes.get(report.slave_id, 0) + nbytes
        )
        reports.append(report)
    t_end = time.perf_counter()
    for unit, frames in list(backend._in_flight.items()):
        if not frames:
            continue
        backend.fault_counters["gather_lost"] += 1
        for slave_ids in frames:
            for k in slave_ids:
                backend.last_gather_idle_s.setdefault(k, t_end - t_gather)
        backend._expire_silent(unit)
    backend.last_master_wait_s = wait_s
    backend.last_telemetry = RoundTelemetry(
        round_index=next((t.round_index for t in tasks if t is not None), -1),
        phase_seconds={
            "scatter": t_gather - t_scatter,
            "compute": first_report_s if first_report_s is not None else 0.0,
            "gather": t_end - t_gather,
        },
        gather_idle_s=dict(backend.last_gather_idle_s),
        master_wait_s=wait_s,
        task_nbytes=dict(backend.last_task_nbytes),
        report_nbytes=dict(backend.last_report_nbytes),
        slowdowns=dict(backend.last_slowdowns),
    )
    reports.sort(key=lambda r: (r.slave_id, r.seq_id))
    return reports


def _same_problem(
    bound_instance: MKPInstance,
    bound_config: TabuSearchConfig | None,
    instance: MKPInstance,
    config: TabuSearchConfig,
) -> bool:
    """Whether a live backend's bound problem matches a ``start()`` request.

    Instance comparison is by identity first (the common warm-lease case —
    the :class:`~repro.service.cache.InstanceCache` hands out one canonical
    object) and by content hash otherwise; the structural config compares
    by value (plain dataclass equality — it carries no arrays).
    """
    if bound_config != config:
        return False
    if bound_instance is instance:
        return True
    return bound_instance.content_hash() == instance.content_hash()


class SerialBackend:
    """In-process backend; the substrate of the simulated farm.

    ``dispatch`` only charges and queues tasks; they execute inline, in
    dispatch order, the next time the master asks for a report.  Arrival
    order therefore equals dispatch order (what makes async serial replay
    seeded-deterministic, DESIGN.md §5.9), and a round's phase split
    charges the execution to ``compute``.  Each task is served by the same
    :func:`serve_batch` as a worker process, with that slave's held-report
    list: a crash is counted, a straggle becomes ``last_slowdowns``.
    Every slave keeps its own warm runtime.
    """

    #: inline slaves never hang, so the shared round needs no deadline
    round_timeout_s: float | None = None

    def __init__(
        self,
        n_slaves: int,
        *,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if n_slaves < 1:
            raise ValueError("n_slaves must be >= 1")
        self.n_slaves = int(n_slaves)
        self.fault_plan = fault_plan or FaultPlan.none()
        self._codec: WireCodec | None = None
        self._instance: MKPInstance | None = None
        self._config: TabuSearchConfig | None = None
        self._runtimes: list[SlaveRuntime] = []
        #: ``start()`` calls that found live warm state already bound to the
        #: same problem and kept it (DESIGN.md §5.6 — the warm-lease path)
        self.warm_reuses = 0
        #: ``start()`` calls that rebound live state to a *different* problem
        self.rebinds = 0
        #: per-round message sizes by slave id, for the farm's scatter/gather model
        self.last_task_nbytes: dict[int, int] = {}
        self.last_report_nbytes: dict[int, int] = {}
        #: per-round straggler slowdown factors by slave id (virtual time)
        self.last_slowdowns: dict[int, float] = {}
        #: cumulative injected-fault tally (diagnostics for the chaos suite)
        self.fault_counters: Counter[str] = Counter()
        #: seconds from gather start to each slave's first accepted report
        self.last_gather_idle_s: dict[int, float] = {}
        #: master wall time blocked waiting on slaves (0 for inline slaves)
        self.last_master_wait_s: float = 0.0
        #: typed telemetry record of the last round (DESIGN.md §5.5)
        self.last_telemetry: RoundTelemetry | None = None
        #: dispatched tasks awaiting inline execution, in dispatch order;
        #: ``None`` (a dropped task, or a sync round's opening) only
        #: releases that slave's held reports
        self._queued: deque[tuple[int, SlaveTask | None]] = deque()
        #: per slave, the reports a delay fault holds back
        self._held: list[list[SlaveReport]] = [[] for _ in range(self.n_slaves)]
        #: executed ``(report, nbytes)`` pairs in arrival order
        self._pending: deque[tuple[SlaveReport, int]] = deque()
        #: frames in flight per worker: inline slaves never leave any
        self._in_flight: dict[int, deque[tuple[int, ...]]] = {}

    def start(self, instance: MKPInstance, config: TabuSearchConfig) -> None:
        """Bind the backend to a problem; idempotent on a live backend.

        Re-``start()``-ing an already-started backend on the same problem
        data (by :meth:`~repro.core.instance.MKPInstance.content_hash`) and
        config keeps the warm runtimes — this is how a leased backend
        serves many jobs without re-paying arena construction.  A different
        problem rebuilds the runtimes in place.  Either way the resulting
        trajectories are bit-identical to a cold backend (every task rebinds
        the arena before running; ``tests/test_service.py`` pins this).
        """
        if (
            self._instance is not None
            and _same_problem(self._instance, self._config, instance, config)
        ):
            self.warm_reuses += 1
            return
        if self._instance is not None:
            self.rebinds += 1
        self._instance = instance
        self._config = config
        self._codec = WireCodec(instance.n_items)
        # Held reports belong to the old problem, as a rebound worker's do.
        self._held = [[] for _ in range(self.n_slaves)]
        self._runtimes = [
            SlaveRuntime(instance, config, slave_id=k) for k in range(self.n_slaves)
        ]

    def _require_started(self) -> None:
        if self._instance is None:
            raise RuntimeError("backend not started: call start() first")

    def _open_round(self, deadline: float | None) -> None:
        """Release every report a delay fault held in an earlier round.

        Every slave releases, including those sitting this round out; the
        stale reports arrive after this round's inline execution, ahead of
        its fresh reports, and the master discards them by seq id.
        """
        self._queued.extend((k, None) for k, held in enumerate(self._held) if held)

    run_round = _run_round

    def dispatch(self, slave_id: int | Entries, task: SlaveTask | None = None) -> int:
        """Charge and queue tasks for their slaves; returns the task bytes.

        The slaves run when the master next calls :meth:`next_report`.  Each
        task is charged its codec frame length; a task a drop fault loses on
        the wire is charged nothing.
        """
        self._require_started()
        total = 0
        for k, t in _drop_tasks(self, _as_entries(slave_id, task)):
            if t is not None:
                nbytes = len(self._codec.encode_task(t))
                self.last_task_nbytes[k] = nbytes
                total += nbytes
            self._queued.append((k, t))
        return total

    def _serve_queued(self) -> None:
        """Execute every dispatched task inline, in dispatch order.

        Each task goes through :func:`serve_batch` with its slave's held
        reports, which ride out first, so per-slave arrival order stays
        monotone in burst index — the invariant the async master's loss
        detection rests on.  Every report is charged its codec frame length.
        """
        while self._queued:
            k, task = self._queued.popleft()
            entries = [] if task is None else [(k, task)]
            reports, crashed, factors = serve_batch(
                self._runtimes[k], self.fault_plan, entries, self._held[k]
            )
            if crashed:
                # Inline "process death": the task is consumed, no report.
                self.fault_counters["crash"] += 1
            for slave, factor in factors.items():
                self.fault_counters["straggle"] += 1
                self.last_slowdowns[slave] = factor
            self._pending.extend(
                (report, len(self._codec.encode_report(report))) for report in reports
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
        if not self._pending:
            self._serve_queued()
        return self._pending.popleft() if self._pending else None

    def drain_dead_slaves(self) -> list[int]:
        """Slaves lost since the last call (inline slaves never die)."""
        return []

    def shutdown(self) -> None:
        """Release the warm runtimes; idempotent, and ``start()`` revives.

        Safe to call any number of times (including before ``start()``);
        after a shutdown the backend is simply unbound and a later
        ``start()`` rebuilds it from scratch.
        """
        self._runtimes = []
        self._instance = None
        self._config = None
        self._queued.clear()
        self._pending.clear()

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()


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
    comm = ShmComm(PipeComm(conn), send_ring=send_ring, recv_ring=recv_ring)
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


class MultiprocessingBackend:
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
        if n_slaves < 1:
            raise ValueError("n_slaves must be >= 1")
        if batch_k < 1:
            raise ValueError("batch_k must be >= 1")
        if round_timeout_s is not None and round_timeout_s <= 0:
            raise ValueError("round_timeout_s must be positive (or None)")
        if shutdown_timeout_s <= 0:
            raise ValueError("shutdown_timeout_s must be positive")
        self.n_slaves = int(n_slaves)
        #: slaves served per worker process and message (1 = classic layout)
        self.batch_k = int(batch_k)
        #: worker process count: ``ceil(n_slaves / batch_k)``
        self.n_workers = -(-self.n_slaves // self.batch_k)
        #: resolved payload carrier: explicit arg > ``REPRO_TRANSPORT`` > auto
        self.transport = resolve_transport(transport)
        self.fault_plan = fault_plan or FaultPlan.none()
        self.round_timeout_s = round_timeout_s
        self.shutdown_timeout_s = float(shutdown_timeout_s)
        self._ctx = mp.get_context(mp_context)
        self._procs: list[mp.Process | None] = []
        self._comms: list[ShmComm | None] = []
        self._rings: list[tuple[ShmRing, ShmRing] | None] = []
        #: per-worker carrier actually in use after spawn ("shm" or "pipe")
        self.worker_transports: list[str] = []
        self._instance: MKPInstance | None = None
        self._config: TabuSearchConfig | None = None
        self._codec: WireCodec | None = None
        self.last_task_nbytes: dict[int, int] = {}
        self.last_report_nbytes: dict[int, int] = {}
        #: always empty: worker straggles are real sleeps, not virtual time
        self.last_slowdowns: dict[int, float] = {}
        #: respawn count per worker (the chaos suite asserts recovery)
        self.respawns: Counter[int] = Counter()
        self.fault_counters: Counter[str] = Counter()
        #: ``start()`` calls served by live workers with no reship needed
        self.warm_reuses = 0
        #: ``start()`` calls that rebound live workers to a new problem
        self.rebinds = 0
        #: seconds from gather start to each slave's first accepted report
        #: (silent slaves get the full gather wall — their cost to the round)
        self.last_gather_idle_s: dict[int, float] = {}
        #: master wall time blocked inside ``connection.wait`` (per round,
        #: or per :meth:`next_report` call outside one)
        self.last_master_wait_s: float = 0.0
        #: typed telemetry record of the last round (DESIGN.md §5.5)
        self.last_telemetry: RoundTelemetry | None = None
        #: arrival buffer: ``(report, nbytes)`` pairs drained from worker
        #: pipes in arrival order, ahead of master consumption
        self._report_buffer: deque[tuple[SlaveReport, int]] = deque()
        #: per worker, the slave ids of each task frame not yet answered
        self._in_flight: defaultdict[int, deque[tuple[int, ...]]] = defaultdict(deque)
        #: slave ids whose worker died since the last ``drain_dead_slaves()``
        self._dead_slaves: set[int] = set()

    # ------------------------------------------------------------------ #
    def _group_slaves(self, w: int) -> range:
        """Slave ids served by worker ``w`` (one id when ``batch_k == 1``)."""
        lo = w * self.batch_k
        return range(lo, min(lo + self.batch_k, self.n_slaves))

    def _spawn(self, w: int) -> None:
        assert self._instance is not None and self._config is not None
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        task_ring: ShmRing | None = None
        report_ring: ShmRing | None = None
        shm_spec: tuple[str, str] | None = None
        if self.transport == "shm":
            try:
                task_ring = ShmRing.create(DEFAULT_RING_NBYTES)
                report_ring = ShmRing.create(DEFAULT_RING_NBYTES)
                shm_spec = (task_ring.name, report_ring.name)
            except Exception:
                # Segment creation failed (exhausted /dev/shm, hardened
                # host, ...): this worker degrades to the in-band pipe
                # carrier.  The doorbell protocol is carrier-agnostic, so
                # nothing else changes.
                if task_ring is not None:
                    task_ring.close()
                    task_ring.unlink()
                task_ring = report_ring = None
                shm_spec = None
                self.fault_counters["shm_fallback"] += 1
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._instance,
                self._config,
                tuple(self._group_slaves(w)),
                self.fault_plan,
                shm_spec,
            ),
            daemon=True,
            name=f"repro-slave-{w}",
        )
        proc.start()
        child_conn.close()
        self._procs[w] = proc
        self._comms[w] = ShmComm(
            PipeComm(parent_conn), send_ring=task_ring, recv_ring=report_ring
        )
        self._rings[w] = (
            (task_ring, report_ring) if task_ring is not None else None
        )
        self.worker_transports[w] = "shm" if shm_spec is not None else "pipe"

    def _bury(self, w: int) -> None:
        """Terminate worker ``w``, close its wire, unlink its rings."""
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
        rings = self._rings[w]
        if rings is not None:
            for ring in rings:
                ring.close()
                ring.unlink()
            self._rings[w] = None
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
            self._spawn(w)
            self.respawns[w] += 1
        comm = self._comms[w]
        assert comm is not None
        return comm

    # ------------------------------------------------------------------ #
    def start(self, instance: MKPInstance, config: TabuSearchConfig) -> None:
        """Bind the workers to a problem; reuses live workers when possible.

        On a cold backend this spawns the worker fleet (problem data crosses
        the process boundary once, at spawn).  On an already-started backend
        it *never* respawns: the same problem (by content hash) and config is
        a no-op — the workers' warm arenas stay valid — and a different
        problem ships one :data:`~repro.parallel.message.REBIND_TAG` bind
        frame per live worker, which rebuilds its ``SlaveRuntime`` in place.  Dead
        workers are left to the lazy respawn in :meth:`dispatch`, which
        picks up the new problem from the updated backend fields.
        """
        if self._procs:
            if _same_problem(self._instance, self._config, instance, config):
                self.warm_reuses += 1
                return
            self.rebinds += 1
            self._instance = instance
            self._config = config
            self._codec = WireCodec(instance.n_items)
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
        self._instance = instance
        self._config = config
        self._codec = WireCodec(instance.n_items)
        self._procs = [None] * self.n_workers
        self._comms = [None] * self.n_workers
        self._rings = [None] * self.n_workers
        self.worker_transports = ["pipe"] * self.n_workers
        for w in range(self.n_workers):
            self._spawn(w)

    def _require_started(self) -> None:
        if not self._procs:
            raise RuntimeError("backend not started: call start() first")

    def _open_round(self, deadline: float | None) -> None:
        """Nothing to prepare: dead workers respawn lazily in :meth:`dispatch`."""

    run_round = _run_round

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
        per_worker: dict[int, list[tuple[int, SlaveTask]]] = {}
        for k, t in _drop_tasks(self, _as_entries(slave_id, task)):
            if t is not None:
                per_worker.setdefault(k // self.batch_k, []).append((k, t))
        total = 0
        for w, entries in per_worker.items():
            # Each entry is charged its own frame, not the envelope: the
            # same ledger for any ``batch_k``.
            frame, sizes = self._codec.encode_task_batch(entries)
            try:
                self._ensure_alive(w).send(frame, tag=TASK_TAG)
            except (BrokenPipeError, OSError, CommClosedError):
                # The worker died between liveness check and send; the
                # next dispatch respawns it.
                self.fault_counters["send_failed"] += 1
                self._lose(w)
                continue
            self._in_flight[w].append(tuple(sizes))
            self.last_task_nbytes.update(sizes)
            total += sum(sizes.values())
        return total

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
        while not self._report_buffer:
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
                        reports, sizes = self._codec.decode_report_batch(
                            comm.recv(tag=RESULT_TAG)
                        )
                        self._in_flight[w].popleft()
                        self._report_buffer.extend(zip(reports, sizes))
                except (EOFError, OSError, TornFrameError, CommClosedError, WireError):
                    # The worker died mid-round, tore its ring or sent a
                    # frame that does not decode.
                    self.fault_counters["gather_lost"] += 1
                    self._lose(w)
                    died = True
            if died and not self._report_buffer:
                return None  # surface the loss instead of re-waiting
        return self._report_buffer.popleft()

    def drain_dead_slaves(self) -> list[int]:
        """Slave ids lost since the last call (send/gather failures).

        Consuming: the set is cleared.  Buffered reports those slaves
        delivered before dying remain valid and still surface through
        :meth:`next_report` — death invalidates the *in-flight*, not the
        already-arrived.
        """
        dead = sorted(self._dead_slaves)
        self._dead_slaves.clear()
        return dead

    def shutdown(self) -> None:
        """Stop every worker, bounded by one shared deadline.

        Signals *all* workers first, then joins each against the remaining
        budget of a single ``shutdown_timeout_s`` window — P hung workers
        cost the deadline once, not ``P × 10`` seconds of sequential joins.
        Whoever is still alive afterwards is terminated.

        Idempotent by contract (``tests/test_backends.py`` pins it): calling
        it twice, before ``start()``, or after workers already died/were
        buried is a no-op beyond releasing whatever is still held, and a
        later ``start()`` spawns a fresh fleet.
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
        for rings in self._rings:
            if rings is not None:
                for ring in rings:
                    ring.close()
                    ring.unlink()
        self._procs = []
        self._comms = []
        self._rings = []
        self.worker_transports = []
        self._report_buffer.clear()
        self._in_flight.clear()
        self._dead_slaves.clear()

    def __enter__(self) -> "MultiprocessingBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
