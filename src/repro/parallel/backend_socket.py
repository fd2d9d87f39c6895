"""Elastic TCP backend: socket transport with dynamic worker membership.

Every earlier backend assumes a fixed fleet wired up at ``start()`` — the
paper's Fig. 2 farm on one host.  :class:`SocketBackend` promotes the same
master–slave round protocol onto TCP so workers can live anywhere a socket
reaches, and makes the fleet *elastic*:

* **join mid-run** — a ``repro worker --connect HOST:PORT`` agent registers
  with a HELLO frame at any time; the master re-shards the logical slave-id
  space ``0..P-1`` over the live members and the joiner's first task batch
  warms its :class:`~repro.parallel.runtime.SlaveRuntime`.  Trajectories
  depend only on task contents (pinned by ``tests/test_runtime.py``), so a
  late attach never perturbs a pinned trajectory — it only changes which
  process executes which slave id.
* **vanish mid-run** — a closed connection, an expired heartbeat window
  (normalised through :class:`~repro.parallel.shm.CommTimeout`) or a report
  frame that fails to decode buries the member; its slave ids surface
  through :meth:`SocketBackend.drain_dead_slaves` and the missing reports
  take the master's existing dead-rank path (degraded-mode ISP/SGP,
  exponential backoff, monotone incumbent).

Wire protocol (DESIGN.md §5.10): length-prefixed frames ``<tag:u8, len:u32>``
followed by ``len`` payload bytes.  Task and report payloads are the
:class:`~repro.parallel.wire.WireCodec` *batch* envelopes — byte-identical
to the shm/pipe carriers, so the byte ledgers agree across transports.
The control frames, HELLO (magic, wire version, pid, name) and REBIND
(instance and config), are struct frames too.  Nothing a peer sends is
unpickled: every frame meets a total decoder raising
:class:`~repro.parallel.wire.WireError`, and a peer's first frame may be no
larger than the largest HELLO.

The worker agent, :func:`run_worker`, is carrier setup only — connect,
HELLO, a heartbeat thread — around the same
:func:`~repro.parallel.backends.worker_loop` that serves pipe and shm
workers.

The master's socket I/O runs on one asyncio loop in a daemon thread; the
blocking backend methods exchange events with it through a queue, so the
surface :class:`~repro.parallel.backends.Backend` gives every backend
(``start`` / ``dispatch`` / ``next_report`` / ``drain_dead_slaves`` /
``shutdown``, plus the shared ``run_round``) stays synchronous and drop-in
for both master pipelines and the service pool.  The warm lease, the round,
its ledgers and the frame dispatch and receive steps are the base class's;
this module adds only the transport: the IO thread, HELLO, heartbeats,
membership and resharding.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import socket
import struct
import threading
import time
from typing import Any, Callable, Sequence

from ..core.instance import MKPInstance
from ..core.tabu_search import TabuSearchConfig
from .backends import Backend, Entries, worker_loop
from .faults import FaultPlan
from .message import REBIND_TAG, RESULT_TAG, STOP_TAG, TASK_TAG, SlaveReport, SlaveTask
from .shm import CommTimeout
from .wire import (
    HELLO_MAX_NBYTES,
    WireError,
    decode_hello,
    encode_bind,
    encode_hello,
)

__all__ = ["SocketBackend", "run_worker", "HELLO_TAG", "HEARTBEAT_TAG"]

#: Worker registration frame (worker -> master, an ``encode_hello`` frame).
HELLO_TAG = 10
#: Liveness beacon (worker -> master, empty payload).  A worker's heartbeat
#: thread keeps these flowing even while the main thread is deep in a
#: compute-bound task, so the master's window only expires on real death.
HEARTBEAT_TAG = 11

#: Length-prefixed frame header: tag (u8) + payload length (u32).
_WIRE_HEADER = struct.Struct("<BI")

#: Hard ceiling on a single frame from a registered peer (a REBIND carries
#: a whole instance; anything past this is a corrupt or hostile stream).
_MAX_FRAME_NBYTES = 1 << 28


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ``EOFError`` on a closed peer."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise EOFError("peer closed the socket mid-frame")
        buf += chunk
    return bytes(buf)


def _recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    tag, length = _WIRE_HEADER.unpack(_recv_exact(sock, _WIRE_HEADER.size))
    if length > _MAX_FRAME_NBYTES:
        raise WireError(f"frame of {length} bytes exceeds the wire limit")
    payload = _recv_exact(sock, length) if length else b""
    return tag, payload


class _Member:
    """Master-side record of one connected worker (backend-thread owned)."""

    __slots__ = ("wid", "name", "pid", "slave_ids")

    def __init__(self, wid: int, pid: int, name: str) -> None:
        self.wid = wid
        self.name = name
        self.pid = pid
        self.slave_ids: tuple[int, ...] = ()


class SocketBackend(Backend):
    """TCP backend with elastic membership over a fixed slave-id space.

    The *logical* farm size ``n_slaves`` is fixed (the master's ISP/SGP and
    telemetry are sized by it); the *physical* fleet is whatever is
    connected right now.  Each member owns a contiguous shard of slave ids,
    recomputed whenever membership changes; one batched task frame per
    member per round carries its shard's tasks (the worker's single warm
    arena serves the whole shard by identity override, exactly like the
    ``batch_k > 1`` multiprocessing layout).

    Membership state machine per worker: CONNECTED (HELLO accepted) ->
    BOUND (problem shipped) -> serving; any read error, closed socket,
    undecodable report frame or heartbeat-window expiry -> DEAD (buried,
    shard re-dealt).  A worker is never respawned by the master — respawn
    is the operator's (or the test harness') job; the master only ever
    re-deals the shards.
    """

    def __init__(
        self,
        n_slaves: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        min_workers: int = 1,
        round_timeout_s: float | None = 60.0,
        start_timeout_s: float = 30.0,
        heartbeat_timeout_s: float | None = 15.0,
        shutdown_timeout_s: float = 10.0,
    ) -> None:
        super().__init__(n_slaves, round_timeout_s=round_timeout_s)
        if min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if heartbeat_timeout_s is not None and heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive (or None)")
        self.host = host
        self.port = int(port)
        self.min_workers = int(min_workers)
        self.start_timeout_s = float(start_timeout_s)
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.shutdown_timeout_s = float(shutdown_timeout_s)

        # IO loop plumbing (created by listen()).
        self._thread: threading.Thread | None = None
        self._aloop: Any = None
        self._ready = threading.Event()
        self._bound_port: int | None = None
        self._writers: dict[int, Any] = {}  # loop-thread only
        self._inbox: "queue.Queue[tuple]" = queue.Queue()

        # Backend-thread membership state.
        self._members: dict[int, _Member] = {}
        self._owner_of: dict[int, int] = {}
        self._needs_reshard = True
        self._local_procs: list[mp.Process] = []
        #: workers that ever registered (joins across the backend's life)
        self.joins = 0

    # ------------------------------------------------------------------ #
    # asyncio side (daemon thread)
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; raises if :meth:`listen` never ran."""
        if self._bound_port is None:
            raise RuntimeError("backend is not listening: call listen() first")
        return self.host, self._bound_port

    def listen(self) -> tuple[str, int]:
        """Bind and start accepting workers; idempotent; returns the address."""
        if self._thread is not None and self._thread.is_alive():
            return self.address
        self._ready.clear()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._io_thread_main, name="repro-socket-io", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=self.start_timeout_s)
        if self._startup_error is not None:
            raise self._startup_error
        if self._bound_port is None:
            raise RuntimeError("socket backend failed to bind within the deadline")
        return self.address

    def _io_thread_main(self) -> None:
        import asyncio

        async def main() -> None:
            self._aloop = asyncio.get_running_loop()
            self._stop_async = asyncio.Event()
            try:
                server = await asyncio.start_server(
                    self._handle_worker, self.host, self.port
                )
            except OSError as exc:
                self._startup_error = RuntimeError(
                    f"cannot listen on {self.host}:{self.port}: {exc}"
                )
                self._ready.set()
                return
            self._bound_port = server.sockets[0].getsockname()[1]
            self._ready.set()
            try:
                await self._stop_async.wait()
            finally:
                server.close()
                await server.wait_closed()
                for writer in list(self._writers.values()):
                    writer.close()

        asyncio.run(main())

    async def _handle_worker(self, reader: Any, writer: Any) -> None:
        """One connection's lifetime: HELLO, then frames until death.

        The first frame must be a HELLO no larger than
        :data:`~repro.parallel.wire.HELLO_MAX_NBYTES`; anything else closes
        the connection before the peer joins.  After that, any read error —
        EOF, reset, a malformed frame, or a heartbeat window expiring (the
        ``asyncio`` timeout is normalised through
        :class:`~repro.parallel.shm.CommTimeout`, the same type the pipe
        transport raises on a silent peer) — ends in exactly one ``leave``
        event, which is what buries the member's shard.
        """
        import asyncio

        wid = -1
        reason = "closed"
        try:
            tag, payload = await asyncio.wait_for(
                self._read_frame(reader, HELLO_MAX_NBYTES),
                timeout=self.start_timeout_s,
            )
            if tag != HELLO_TAG:
                return
            pid, name = decode_hello(payload)
            wid = self._next_wid
            self._next_wid += 1
            self._writers[wid] = writer
            self._inbox.put(("join", wid, (pid, name)))
            while True:
                try:
                    if self.heartbeat_timeout_s is None:
                        tag, payload = await self._read_frame(reader)
                    else:
                        tag, payload = await asyncio.wait_for(
                            self._read_frame(reader),
                            timeout=self.heartbeat_timeout_s,
                        )
                except asyncio.TimeoutError as exc:
                    raise CommTimeout(
                        f"worker {wid}: no frame within "
                        f"{self.heartbeat_timeout_s:.1f}s heartbeat window"
                    ) from exc
                if tag == HEARTBEAT_TAG:
                    continue
                if tag == RESULT_TAG:
                    self._inbox.put(("report", wid, payload))
                    continue
                reason = f"protocol error: unexpected tag {tag}"
                return
        except CommTimeout:
            reason = "heartbeat-timeout"
        except asyncio.CancelledError:
            # Loop teardown cancels handler tasks; finishing normally keeps
            # shutdown quiet (3.11's stream done-callback re-raises a
            # cancelled task's exception into the loop's error handler).
            reason = "master-shutdown"
        except (asyncio.IncompleteReadError, asyncio.TimeoutError, OSError, EOFError):
            reason = "closed"  # including a peer that never sent its HELLO
        except WireError as exc:
            reason = f"bad frame: {exc}"
        finally:
            self._writers.pop(wid, None)
            writer.close()
            if wid >= 0:
                self._inbox.put(("leave", wid, reason))

    _next_wid = 0

    @staticmethod
    async def _read_frame(
        reader: Any, limit: int = _MAX_FRAME_NBYTES
    ) -> tuple[int, bytes]:
        head = await reader.readexactly(_WIRE_HEADER.size)
        tag, length = _WIRE_HEADER.unpack(head)
        if length > limit:
            raise WireError(f"frame of {length} bytes exceeds the {limit}-byte limit")
        payload = await reader.readexactly(length) if length else b""
        return tag, payload

    def _in_loop(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the IO loop thread, fire and forget."""
        if self._aloop is None:
            return
        try:
            self._aloop.call_soon_threadsafe(fn)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    def _send(self, wid: int, tag: int, payload: bytes = b"") -> None:
        """Schedule one frame to a worker (thread-safe, fire and forget).

        Writes happen on the loop thread in call order, so the per-worker
        stream stays ordered (bind before tasks); a send to a member that
        died in flight is silently dropped — the ``leave`` event is the
        authoritative signal, exactly like a broken pipe on the mp backend.
        """
        if self._aloop is None:
            return
        frame = _WIRE_HEADER.pack(tag, len(payload)) + payload

        def write() -> None:
            writer = self._writers.get(wid)
            if writer is not None and not writer.is_closing():
                try:
                    writer.write(frame)
                except Exception:  # pragma: no cover - torn connection
                    pass

        self._in_loop(write)

    def _hang_up(self, wid: int) -> None:
        """Close a member's connection from the backend thread."""

        def close() -> None:
            writer = self._writers.get(wid)
            if writer is not None:
                writer.close()

        self._in_loop(close)

    # ------------------------------------------------------------------ #
    # membership (backend thread)
    # ------------------------------------------------------------------ #
    def _pump(self, timeout: float) -> bool:
        """Drain membership/report events; block up to ``timeout`` for one.

        Returns whether any event was processed.  All mutation of
        ``_members`` / ``_arrived`` / ``_dead_slaves`` funnels through
        here, so the blocking backend methods see a consistent fleet.
        """
        processed = False
        block = timeout > 0.0
        while True:
            try:
                event = self._inbox.get(timeout=timeout if block else 0.0)
            except queue.Empty:
                return processed
            processed = True
            block = False  # only the first get may block
            kind = event[0]
            if kind == "join":
                _, wid, (pid, name) = event
                member = _Member(wid, pid, name)
                self._members[wid] = member
                self._needs_reshard = True
                self.joins += 1
                self.fault_counters["worker_join"] += 1
                if self._instance is not None:
                    self._send(wid, REBIND_TAG, encode_bind(self._instance, self._config))
            elif kind == "leave":
                _, wid, reason = event
                if self._bury(wid) and reason == "heartbeat-timeout":
                    self.fault_counters["heartbeat_timeout"] += 1
            elif kind == "report":
                _, wid, payload = event
                if self._codec is None or wid not in self._members:
                    continue  # raced a shutdown/rebind, or a buried member
                try:
                    self._receive(wid, payload)
                except WireError:
                    # The peer is broken or hostile: bury it exactly like a
                    # dead connection.
                    self.fault_counters["bad_frame"] += 1
                    self._bury(wid)
                    self._hang_up(wid)

    def _bury(self, wid: int) -> bool:
        """Drop member ``wid``: its shard goes to the dead-slave sweep.

        Returns whether ``wid`` was still a member.  A member that dies with
        task frames in flight also counts one ``gather_lost``.
        """
        member = self._members.pop(wid, None)
        if member is None:
            return False
        self._needs_reshard = True
        self._dead_slaves.update(member.slave_ids)
        self.fault_counters["worker_lost"] += 1
        if self._in_flight.pop(wid, None):
            self.fault_counters["gather_lost"] += 1
        return True

    def _reshard(self) -> None:
        """Deal the slave-id space 0..P-1 over the live members, contiguously.

        The first ``P mod W`` members (by join order) take one extra id.
        In-flight tasks are unaffected — reports carry their slave id — so
        a reshard between rounds is invisible to the master's fold.
        """
        members = [self._members[w] for w in sorted(self._members)]
        self._owner_of.clear()
        self._needs_reshard = False
        if not members:
            return
        base, extra = divmod(self.n_slaves, len(members))
        lo = 0
        for i, member in enumerate(members):
            width = base + (1 if i < extra else 0)
            member.slave_ids = tuple(range(lo, lo + width))
            for k in member.slave_ids:
                self._owner_of[k] = member.wid
            lo += width

    def _fleet(self, deadline: float | None) -> bool:
        """Ensure at least one live member, pumping until ``deadline``."""
        self._pump(0.0)
        while not self._members:
            remaining = None if deadline is None else deadline - time.perf_counter()
            if remaining is not None and remaining <= 0.0:
                return False
            if not self._pump(remaining if remaining is not None else 1.0):
                return False
        if self._needs_reshard:
            self._reshard()
        return True

    # ------------------------------------------------------------------ #
    # Transport surface
    # ------------------------------------------------------------------ #
    def _bind(self, instance: MKPInstance, config: TabuSearchConfig) -> None:
        """Wait for ``min_workers`` members, then ship the problem to each.

        Every member gets one REBIND frame.  Workers that join later
        receive the current problem in their join handshake, so a mid-run
        attach needs no extra protocol.  Raises ``RuntimeError`` when too
        few workers connect within ``start_timeout_s``.
        """
        self.listen()
        deadline = time.perf_counter() + self.start_timeout_s
        self._pump(0.0)
        while len(self._members) < self.min_workers:
            remaining = deadline - time.perf_counter()
            if remaining <= 0.0:
                host, port = self.address
                raise RuntimeError(
                    f"only {len(self._members)}/{self.min_workers} workers "
                    f"connected to {host}:{port} within "
                    f"{self.start_timeout_s:.0f}s; start more with "
                    f"`repro worker --connect {host}:{port}`"
                )
            self._pump(remaining)
        payload = encode_bind(instance, config)
        for wid in sorted(self._members):
            self._send(wid, REBIND_TAG, payload)
        if self._needs_reshard:
            self._reshard()

    def _open_round(self, deadline: float | None) -> None:
        """Wait (up to the round deadline) for a fleet to deal the round to."""
        self._fleet(deadline)

    # A silent member is only counted at the deadline, never buried (the
    # base rule): a remote straggler's liveness is the heartbeat's verdict,
    # not the round clock's.

    run_round = Backend.run_round

    def dispatch(self, slave_id: int | Entries, task: SlaveTask | None = None) -> int:
        """Send tasks as one batch frame per owning member; returns their bytes.

        A slave id with no live owner is recorded for
        :meth:`drain_dead_slaves` and charged nothing — the master's
        backoff then owns the retry, and a worker joining in the meantime
        inherits the id at the next reshard.
        """
        self._require_started()
        self._pump(0.0)
        if self._needs_reshard:
            self._reshard()
        return self._dispatch_frames(slave_id, task)

    def _unit_of(self, k: int) -> int | None:
        wid = self._owner_of.get(k)
        if wid is None or wid not in self._members:
            self.fault_counters["no_owner"] += 1
            self._dead_slaves.add(k)
            return None
        return wid

    def _send_task(self, wid: int, frame: bytes) -> bool:
        self._send(wid, TASK_TAG, frame)
        return True  # a member lost in flight surfaces as a ``leave`` event

    def next_report(
        self, timeout_s: float | None = None
    ) -> tuple[SlaveReport, int] | None:
        """Pop the next ``(report, nbytes)`` pair in arrival order.

        Returns ``None`` on timeout, at once when no frame is in flight, or
        when a member died during the wait — surfacing the loss immediately
        so the caller can consult :meth:`drain_dead_slaves` instead of
        blocking out the full timeout (mirrors the mp backend's contract).
        """
        self.last_master_wait_s = 0.0
        deadline = None if timeout_s is None else time.perf_counter() + timeout_s
        n_dead_before = len(self._dead_slaves)
        self._pump(0.0)
        while not self._arrived:
            if len(self._dead_slaves) > n_dead_before:
                return None  # surface the loss instead of re-waiting
            if not any(self._in_flight.values()):
                return None  # nothing in flight: nothing can arrive
            t_wait = time.perf_counter()
            remaining = None if deadline is None else deadline - t_wait
            if remaining is not None and remaining <= 0.0:
                return None
            got = self._pump(1.0 if remaining is None else remaining)
            self.last_master_wait_s += time.perf_counter() - t_wait
            if not got and remaining is not None:
                return None  # deadline expired with the fleet silent
        return self._arrived.popleft()

    # ------------------------------------------------------------------ #
    def attach_local_workers(
        self,
        n: int,
        *,
        mp_context: str = "fork",
        fault_plans: Sequence[FaultPlan | None] | None = None,
        heartbeat_s: float = 1.0,
    ) -> list[mp.Process]:
        """Spawn ``n`` local worker processes pointed at this master.

        Convenience for tests, benchmarks and single-host pools; each
        process is a full :func:`run_worker` agent, indistinguishable from
        one started by ``repro worker --connect`` on another machine.
        They are joined (then terminated) by :meth:`shutdown`.
        """
        host, port = self.listen()
        ctx = mp.get_context(mp_context)
        procs: list[mp.Process] = []
        for i in range(n):
            plan = fault_plans[i] if fault_plans is not None else None
            proc = ctx.Process(
                target=run_worker,
                args=(host, port),
                kwargs={
                    "name": f"local-{i}",
                    "fault_plan": plan,
                    "heartbeat_s": heartbeat_s,
                },
                daemon=True,
                name=f"repro-socket-worker-{i}",
            )
            proc.start()
            procs.append(proc)
        self._local_procs.extend(procs)
        return procs

    def _release(self) -> None:
        """Stop the fleet and the IO loop.

        Every member gets one STOP frame, locally attached workers are
        joined against a single shared deadline (stragglers terminated),
        and the listener closes — a later ``start()`` binds afresh (a new
        ephemeral port when ``port=0``).
        """
        for wid in list(self._members):
            self._send(wid, STOP_TAG)
        if self._aloop is not None:
            self._in_loop(self._stop_async.set)
        if self._thread is not None:
            self._thread.join(timeout=self.shutdown_timeout_s)
            self._thread = None
        self._aloop = None
        self._bound_port = None
        deadline = time.monotonic() + self.shutdown_timeout_s
        for proc in self._local_procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self._local_procs:
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5)
        self._local_procs = []
        self._members.clear()
        self._owner_of.clear()
        self._needs_reshard = True
        while True:  # drop events from the torn-down fleet
            try:
                self._inbox.get_nowait()
            except queue.Empty:
                break


# ---------------------------------------------------------------------- #
# Worker agent
# ---------------------------------------------------------------------- #


def run_worker(
    host: str,
    port: int,
    *,
    name: str | None = None,
    heartbeat_s: float = 1.0,
    fault_plan: FaultPlan | None = None,
    connect_timeout_s: float = 10.0,
) -> int:
    """Serve slave tasks for a :class:`SocketBackend` master until STOP.

    The agent behind ``repro worker --connect HOST:PORT``: connects,
    registers with HELLO and starts a daemon thread that keeps HEARTBEAT
    frames flowing while the main thread is compute-bound.  The rest is
    :func:`~repro.parallel.backends.worker_loop`, the same frame loop a
    multiprocessing worker runs: the problem arrives in a REBIND frame,
    and each task batch is answered with one report batch computed on a
    single warm :class:`~repro.parallel.runtime.SlaveRuntime` (identity
    override per slave id, so any worker can serve any shard
    bit-identically).  Returns 0 on STOP or a closed master.

    ``fault_plan`` injects worker-side chaos for the seeded test matrix:
    a scheduled crash is a hard ``os._exit`` mid-batch (the master only
    observes the symptom — a dead socket), a straggle is a real sleep, and
    reports may be dropped, duplicated or delayed.  Task drops are a
    master-side fault, which a socket master does not inject.
    """
    sock = socket.create_connection((host, port), timeout=connect_timeout_s)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_lock = threading.Lock()
    stop_beat = threading.Event()

    def send_frame(tag: int, payload: bytes = b"") -> None:
        with send_lock:
            sock.sendall(_WIRE_HEADER.pack(tag, len(payload)) + payload)

    def beat() -> None:
        while not stop_beat.wait(heartbeat_s):
            try:
                send_frame(HEARTBEAT_TAG)
            except OSError:
                return

    send_frame(HELLO_TAG, encode_hello(os.getpid(), name or f"worker-{os.getpid()}"))
    threading.Thread(target=beat, name="repro-heartbeat", daemon=True).start()
    try:
        worker_loop(
            lambda: _recv_frame(sock),
            lambda frame: send_frame(RESULT_TAG, frame),
            fault_plan or FaultPlan.none(),
        )
    except (ConnectionError, EOFError, OSError):
        pass  # master went away; nothing left to serve
    finally:
        stop_beat.set()
        sock.close()
    return 0
